"""Per-group merging algorithms against hand values and scalar-loop oracles."""

import numpy as np
import pytest

from blockmerge import EmptyGroup, MergerConfig, merge_group, ties_trim
from blockmerge.mergers import ceil_count

from helpers import merge_rows, synthetic_rows, synthetic_tv, tv_from_rows
from oracles import (
    average_oracle,
    ceil_ratio,
    consensus_oracle,
    emr_oracle,
    pcb_oracle,
    ta_oracle,
    ties_oracle,
)


def v32(*rows):
    return [np.array(r, dtype=np.float32) for r in rows]


# -- averaging / ta ----------------------------------------------------------

def test_average_of_one_is_identity():
    (v,) = v32([0.5, -2.0, 3.25])
    np.testing.assert_array_equal(merge_rows("average", [v]).unified, v)


def test_average_arithmetic():
    out = merge_rows("average", v32([2.0, 0.0], [0.0, 2.0]))
    np.testing.assert_array_equal(out.unified, np.array([1.0, 1.0], dtype=np.float32))


def test_average_three_members():
    out = merge_rows("average", v32([1.0, 1.0], [2.0, 2.0], [3.0, 3.0]))
    np.testing.assert_array_equal(out.unified, np.array([2.0, 2.0], dtype=np.float32))


def test_ta_identity_at_lambda_one():
    (v,) = v32([1.0, -4.5])
    np.testing.assert_array_equal(merge_rows("ta", [v], lam=1.0).unified, v)


def test_ta_scaled_mean():
    out = merge_rows("ta", v32([2.0, 0.0], [0.0, 2.0]), lam=1.5)
    np.testing.assert_array_equal(out.unified, np.array([1.5, 1.5], dtype=np.float32))


def test_ta_default_lambda():
    assert MergerConfig.for_algorithm("ta").lam == 1.5


def test_ta_is_scaled_average():
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=16).astype(np.float32) for _ in range(4)]
    lam = np.float32(1.5)
    np.testing.assert_array_equal(
        merge_rows("ta", vecs, lam=1.5).unified, lam * merge_rows("average", vecs).unified
    )


def test_empty_group_raises():
    tv = synthetic_tv(np.random.default_rng(0), [4], num_tasks=2)
    with pytest.raises(EmptyGroup):
        merge_group(MergerConfig.for_algorithm("average"), tv, 0, [])


# -- global trim -------------------------------------------------------------

def test_trim_keep_all_is_identity():
    tv = synthetic_tv(np.random.default_rng(1), [8, 8], num_tasks=2)
    before = list(tv.block_vectors)
    out = ties_trim(tv, 1.0)
    for a, b in zip(out.block_vectors, before, strict=True):
        np.testing.assert_array_equal(a, b)
    assert out.trim_ratio == 1.0


def test_trim_top_half():
    rows = synthetic_rows(np.random.default_rng(2), [4], num_tasks=1)
    rows[0][0] = np.array([3.0, -1.0, 2.0, 0.5], dtype=np.float32)
    out = ties_trim(tv_from_rows(rows), 0.5)
    np.testing.assert_array_equal(out.rows(0)[0], np.array([3.0, 0.0, 2.0, 0.0], dtype=np.float32))


def test_trim_is_global_not_per_block():
    rows = synthetic_rows(np.random.default_rng(3), [4, 4], num_tasks=1)
    rows[0][0] = np.array([0.1, 0.2, 0.1, 0.2], dtype=np.float32)
    rows[1][0] = np.array([5.0, 6.0, 7.0, 8.0], dtype=np.float32)
    out = ties_trim(tv_from_rows(rows), 0.5)
    assert not out.rows(0)[0].any()  # all survivors sit in block 2
    assert np.count_nonzero(out.rows(1)[0]) == 4


def test_trim_count_exact():
    assert ceil_count(0.1, 40) == 4
    assert ceil_count(0.1, 41) == 5
    assert ceil_count(1.0, 7) == 7
    assert ceil_count(0.25, 10) == 3
    # the rational approximation rounds 1e-9 to 0, but ceil(1e-9 * n) is 1
    assert ceil_count(1e-9, 1000) == ceil_ratio(1e-9, 1000) == 1
    assert ceil_count(1e-9, 0) == 0
    assert ceil_count(0.0, 1000) == 0


def test_trim_at_a_tiny_ratio_keeps_each_tasks_largest_magnitude():
    rows = synthetic_rows(np.random.default_rng(24), [32, 64], num_tasks=3)
    rows[1][2, 5] = rows[0][2, 7] = np.float32(-9.0)  # task 2 ties: the lower flat index wins
    tv = ties_trim(tv_from_rows(rows), 1e-9)
    assert tv.trim_ratio == 1e-9
    dense = np.concatenate(rows, axis=1)
    trimmed = np.concatenate([tv.rows(b) for b in range(2)], axis=1)
    for k in range(3):
        top = int(np.argmax(np.abs(dense[k])))  # the first of equal magnitudes
        assert np.flatnonzero(trimmed[k]).tolist() == [top]
        assert trimmed[k, top] == dense[k, top]
    assert np.flatnonzero(trimmed[2]).tolist() == [7]


def test_pcb_at_a_tiny_ratio_keeps_one_coordinate_per_member():
    rng = np.random.default_rng(25)
    vecs = [rng.normal(size=16).astype(np.float32) for _ in range(3)]
    got = merge_rows("pcb", vecs, keep_ratio=1e-9).unified
    assert 1 <= np.count_nonzero(got) <= 3
    np.testing.assert_allclose(got, pcb_oracle(vecs, 1e-9, 1.0, 1.0, 1.0), rtol=1e-6, atol=1e-8)


# -- ties --------------------------------------------------------------------

def test_ties_single_identity():
    (v,) = v32([1.0, 0.0, -2.0])
    np.testing.assert_array_equal(merge_rows("ties", [v], lam=1.0).unified, v)


def test_ties_elect_and_disjoint():
    out = merge_rows("ties", v32([1.0, -2.0], [3.0, 1.0]), lam=1.0)
    np.testing.assert_array_equal(out.unified, np.array([2.0, -2.0], dtype=np.float32))


def test_ties_zero_column():
    out = merge_rows("ties", v32([0.0, 1.0], [0.0, 1.0]), lam=1.0)
    assert out.unified[0] == 0.0


def test_ties_sign_consistency_property():
    rng = np.random.default_rng(4)
    for _ in range(30):
        mat = rng.normal(size=(rng.integers(2, 5), 12)).astype(np.float32)
        out = merge_rows("ties", list(mat), lam=1.0)
        total = mat.sum(axis=0, dtype=np.float64)
        eps = np.where(total >= 0, 1.0, -1.0)
        nz = out.unified != 0
        assert np.all(np.sign(out.unified[nz]) == eps[nz])


# -- pcb ---------------------------------------------------------------------

def test_pcb_single_identity():
    (v,) = v32([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(merge_rows("pcb", [v], keep_ratio=1.0, lam=1.0).unified, v)


def test_pcb_drop_count():
    rng = np.random.default_rng(5)
    vecs = [rng.normal(size=16).astype(np.float32) for _ in range(3)]
    keep_ratio = 0.25  # keep 4 of 16 per member
    out = merge_rows("pcb", vecs, keep_ratio=keep_ratio, lam=1.0)
    # combined vector can only be nonzero where at least one member kept
    assert np.count_nonzero(out.unified) <= 3 * 4


def test_pcb_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        d = 16
        vecs = [rng.normal(size=d).astype(np.float32) for _ in range(n)]
        got = merge_rows("pcb", vecs, keep_ratio=0.5, lam=1.0).unified
        want = pcb_oracle(vecs, 0.5, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


# -- emr ---------------------------------------------------------------------

def test_emr_hand_case():
    out = merge_rows("emr", v32([1.0, -2.0], [3.0, 1.0]))
    np.testing.assert_array_equal(out.unified, np.array([3.0, -2.0], dtype=np.float32))
    np.testing.assert_array_equal(out.masks, np.array([[True, True], [True, False]]))
    assert out.rescalers[0] == pytest.approx(0.6)
    assert out.rescalers[1] == pytest.approx(4.0 / 3.0)


def test_emr_single_member_reconstructs_exactly():
    (v,) = v32([1.0, 0.0, -2.0, 0.25])
    out = merge_rows("emr", [v])
    np.testing.assert_array_equal(out.masks[0], v != 0)
    assert out.rescalers[0] == 1.0
    np.testing.assert_array_equal(out.rescalers[0] * out.unified * out.masks[0], v)


def test_emr_masks_binary_and_sign_safe():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.normal(size=(rng.integers(2, 6), 10)).astype(np.float32)
        out = merge_rows("emr", list(mat))
        amax = np.abs(mat).max(axis=0)
        assert np.all(np.abs(out.unified) <= amax + 1e-7)
        picked = out.masks & (out.unified[None, :] != 0)
        assert np.all(mat[picked] * np.broadcast_to(out.unified, mat.shape)[picked] > 0)


# -- consensus ---------------------------------------------------------------

def test_consensus_threshold_zero_all_ones():
    rng = np.random.default_rng(8)
    vecs = [rng.normal(size=12).astype(np.float32) for _ in range(3)]
    out = merge_rows("consensus", vecs, consensus_threshold=0.0)
    assert out.masks.all()


def test_consensus_mask_inequality():
    out = merge_rows("consensus", v32([1.0], [3.0]), consensus_threshold=0.6)
    # unified = mean(1, 3) = 2; member 0: |1| >= 0.6 * |2 - 1| -> 1
    assert out.unified[0] == 2.0
    assert bool(out.masks[0, 0]) is True


def test_consensus_default_threshold():
    assert MergerConfig.for_algorithm("consensus").consensus_threshold == 0.6


def test_consensus_unified_is_ties():
    rng = np.random.default_rng(9)
    vecs = [rng.normal(size=8).astype(np.float32) for _ in range(3)]
    np.testing.assert_array_equal(
        merge_rows("consensus", vecs, consensus_threshold=0.6).unified,
        merge_rows("ties", vecs, lam=1.0).unified,
    )


# -- dispatcher / order invariance -------------------------------------------

@pytest.mark.parametrize("algorithm", ["average", "ta", "ties", "pcb", "emr", "consensus"])
def test_group_order_invariance(algorithm):
    rng = np.random.default_rng(10)
    tv = synthetic_tv(rng, [24], num_tasks=5)
    cfg = MergerConfig.for_algorithm(algorithm, keep_ratio=0.5)
    a = merge_group(cfg, tv, 0, [0, 2, 4])
    b = merge_group(cfg, tv, 0, [4, 0, 2])
    np.testing.assert_array_equal(a.unified, b.unified)
    if a.masks is not None:
        np.testing.assert_array_equal(a.masks, b.masks)
    if a.rescalers is not None:
        np.testing.assert_array_equal(a.rescalers, b.rescalers)


@pytest.mark.parametrize("algorithm", ["average", "ta", "ties", "pcb"])
def test_degenerate_singleton_identity(algorithm):
    rng = np.random.default_rng(11)
    tv = synthetic_tv(rng, [16], num_tasks=2)
    cfg = MergerConfig.for_algorithm(algorithm, lam=1.0, keep_ratio=1.0)
    out = merge_group(cfg, tv, 0, [1])
    np.testing.assert_array_equal(out.unified, tv.rows(0)[1])


def test_scalar_loop_oracles_random_groups():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 65))
        vecs = [rng.normal(size=d).astype(np.float32) for _ in range(n)]
        np.testing.assert_allclose(
            merge_rows("average", vecs).unified, average_oracle(vecs), rtol=1e-6, atol=1e-8
        )
        np.testing.assert_allclose(
            merge_rows("ta", vecs, lam=1.5).unified, ta_oracle(vecs, 1.5), rtol=1e-6, atol=1e-7
        )
        np.testing.assert_allclose(
            merge_rows("ties", vecs, lam=1.0).unified, ties_oracle(vecs, 1.0), rtol=1e-6, atol=1e-8
        )
        u, m, g = emr_oracle(vecs)
        out = merge_rows("emr", vecs)
        np.testing.assert_allclose(out.unified, u, rtol=1e-6, atol=1e-8)
        np.testing.assert_array_equal(out.masks, np.array(m, dtype=bool))
        np.testing.assert_allclose(out.rescalers, g, rtol=1e-6, atol=1e-8)
        cu, cm = consensus_oracle(vecs, 0.6)
        cout = merge_rows("consensus", vecs, consensus_threshold=0.6)
        np.testing.assert_allclose(cout.unified, cu, rtol=1e-6, atol=1e-8)
        np.testing.assert_array_equal(cout.masks, np.array(cm, dtype=bool))
