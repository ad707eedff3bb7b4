"""Cosine matrices and linkage scores."""

import resource

import numpy as np
import pytest

from blockmerge import pairwise_block_similarity
from blockmerge.similarity import SimilarityMatrix, pairwise_all

from helpers import buffer_owner, synthetic_rows, synthetic_tv, tv_from_rows
from oracles import cosine, cosine_oracle, group_similarity


def test_cosine_self_similarity():
    v = np.array([0.3, -1.2, 4.0], dtype=np.float32)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_closed_form():
    got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert got == pytest.approx(0.7071068, abs=1e-6)


def test_cosine_zero_vector_convention():
    assert cosine(np.zeros(2), np.array([1.0, 2.0])) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.zeros(3))


def test_single_task_matrix():
    tv = synthetic_tv(np.random.default_rng(0), [10], num_tasks=1)
    mx = pairwise_block_similarity(tv, 0)
    np.testing.assert_array_equal(mx.values, np.array([[1.0]], dtype=np.float32))


def test_identical_vectors_give_one():
    rows = synthetic_rows(np.random.default_rng(0), [16], num_tasks=2)
    rows[0][1] = rows[0][0]
    tv = tv_from_rows(rows)
    mx = pairwise_block_similarity(tv, 0)
    assert mx.values[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_matrix_matches_float64_oracle():
    tv = synthetic_tv(np.random.default_rng(7), [100], num_tasks=6)
    mx = pairwise_block_similarity(tv, 0)
    x = tv.rows(0)
    for i in range(6):
        for j in range(6):
            want = 1.0 if i == j else cosine_oracle(x[i], x[j])
            assert abs(float(mx.values[i, j]) - want) < 1e-5
    assert np.array_equal(mx.values, mx.values.T)
    assert np.all(np.diag(mx.values) == np.float32(1.0))
    assert np.all(mx.values <= 1.0) and np.all(mx.values >= -1.0)


def test_zero_task_flagged():
    rows = synthetic_rows(np.random.default_rng(1), [8], num_tasks=3)
    rows[0][1] = 0.0
    tv = tv_from_rows(rows)
    mx = pairwise_block_similarity(tv, 0)
    assert mx.zero_tasks == (1,)
    assert mx.values[1, 0] == 0.0 and mx.values[2, 1] == 0.0
    assert mx.values[1, 1] == 1.0  # diagonal pinned by construction


def _matrix(values):
    return SimilarityMatrix(block_id=0, values=np.array(values, dtype=np.float32))


def test_singletons_reduce_to_matrix_entry():
    mx = _matrix([[1.0, 0.3, 0.2], [0.3, 1.0, 0.4], [0.2, 0.4, 1.0]])
    tv = synthetic_tv(np.random.default_rng(2), [4], num_tasks=3)
    for strategy in ("min", "max", "avg"):
        assert group_similarity(mx, [1], [2], strategy) == pytest.approx(0.4)
    assert group_similarity(mx, [1], [2], "unified", tv) == pytest.approx(
        cosine(tv.rows(0)[1], tv.rows(0)[2])
    )


def test_hand_case_min_max_avg():
    mx = _matrix(
        [
            [1.0, 0.9, 0.4],
            [0.9, 1.0, 0.1],
            [0.4, 0.1, 1.0],
        ]
    )
    a, b = [0], [1, 2]
    assert group_similarity(mx, a, b, "min") == pytest.approx(0.4)
    assert group_similarity(mx, a, b, "max") == pytest.approx(0.9)
    assert group_similarity(mx, a, b, "avg") == pytest.approx(0.65)


def test_unified_identical_members():
    rows = synthetic_rows(np.random.default_rng(3), [8], num_tasks=3)
    rows[0][1] = rows[0][0]
    rows[0][2] = rows[0][0]
    tv = tv_from_rows(rows)
    mx = pairwise_block_similarity(tv, 0)
    assert group_similarity(mx, [0], [1, 2], "unified", tv) == pytest.approx(1.0, abs=1e-12)


def test_overlapping_groups_rejected():
    mx = _matrix([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        group_similarity(mx, [0], [0, 1], "min")


def test_symmetry_all_strategies():
    rng = np.random.default_rng(9)
    tv = synthetic_tv(rng, [12], num_tasks=6)
    mx = pairwise_block_similarity(tv, 0)
    a, b = [0, 3], [1, 4, 5]
    for strategy in ("min", "max", "avg", "unified"):
        x = group_similarity(mx, a, b, strategy, tv)
        y = group_similarity(mx, b, a, strategy, tv)
        assert x == y


def test_blocks_get_their_own_arrays_and_match_single_block_calls():
    rows = synthetic_rows(np.random.default_rng(10), [16, 8, 32, 4], num_tasks=5)
    rows[2][3] = 0.0
    tv = tv_from_rows(rows)
    every = pairwise_all(tv)
    for b, mx in enumerate(every):
        alone = pairwise_block_similarity(tv, b)
        assert mx.block_id == alone.block_id == b
        np.testing.assert_array_equal(mx.values, alone.values)
        np.testing.assert_array_equal(mx.gram, alone.gram)
        assert mx.zero_tasks == alone.zero_tasks
    assert every[2].zero_tasks == (3,)
    owners = [buffer_owner(mx.gram) for mx in every]
    for i, a in enumerate(owners):
        for b in owners[i + 1:]:
            assert not np.shares_memory(a, b)


def test_repeat_pairwise_all_faults_in_no_fresh_pages():
    # a warm call reuses the heap pages its predecessor freed; memory that
    # every call maps and first-touches shows up as minor page faults
    tv = synthetic_tv(np.random.default_rng(12), [6400] * 150, num_tasks=30)
    pairwise_all(tv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pairwise_all(tv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000, f"warm pairwise_all took {faults} minor page faults"


def test_min_monotone_containment():
    rng = np.random.default_rng(11)
    tv = synthetic_tv(rng, [16], num_tasks=6)
    mx = pairwise_block_similarity(tv, 0)
    a, b, c = [0, 1], [2, 3], [4, 5]
    joint = group_similarity(mx, a, b + c, "min")
    assert joint <= min(group_similarity(mx, a, b, "min"), group_similarity(mx, a, c, "min")) + 1e-12
