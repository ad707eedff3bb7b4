"""Fast-path vs naive-greedy equality on tie-heavy, degenerate inputs.

Random similarity matrices never produce exact ties; duplicated, opposite
and zero task vectors do, and the canonical tie-break must resolve them the
same way on both paths.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmerge import block_merge_sequence, compute_merge_plan, global_merge_order
from blockmerge.similarity import SimilarityMatrix

from helpers import plan_signature, synthetic_rows, synthetic_tv, tv_from_rows
from oracles import naive_greedy_order


def _with_structure(rng, dims, num_tasks, kind):
    rows = synthetic_rows(rng, dims, num_tasks)
    for x in rows:
        if kind == "duplicates":
            for k in range(1, num_tasks, 2):
                x[k] = x[k - 1]
        elif kind == "opposites":
            for k in range(1, num_tasks, 2):
                x[k] = -x[k - 1]
        elif kind == "zeros":
            x[0] = 0.0
            if num_tasks > 3:
                x[3] = 0.0
        elif kind == "all_same":
            x[:] = x[0]
        elif kind == "two_groups":
            half = num_tasks // 2
            for k in range(num_tasks):
                x[k] = x[0] if k < half else x[half]
        elif kind == "scaled":
            # positive scalings keep cosine exactly 1 between the copies
            for k in range(1, num_tasks):
                x[k] = 2.0 * x[k - 1]
    return tv_from_rows(rows)


@pytest.mark.parametrize(
    "kind", ["duplicates", "opposites", "zeros", "all_same", "two_groups", "scaled"]
)
@pytest.mark.parametrize("strategy", ["min", "max", "avg", "unified"])
def test_tie_heavy_instances_match_oracle(kind, strategy):
    rng = np.random.default_rng(zlib.crc32(f"{kind}/{strategy}".encode()))
    for m in (2, 3, 4, 6):
        tv = _with_structure(rng, [8, 12], m, kind)
        fast = compute_merge_plan(tv, strategy=strategy)
        slow = naive_greedy_order(tv, strategy=strategy)
        assert plan_signature(fast) == plan_signature(slow), (kind, strategy, m)


def test_mixed_degenerate_blocks_match_oracle():
    rng = np.random.default_rng(99)
    rows = synthetic_rows(rng, [8, 8, 8, 8], num_tasks=5)
    rows[0][:] = 0.0  # whole block is zero vectors
    rows[1][2] = rows[1][0]
    rows[2][4] = -rows[2][1]
    tv = tv_from_rows(rows)
    for strategy in ("min", "max", "avg"):
        fast = compute_merge_plan(tv, strategy=strategy)
        slow = naive_greedy_order(tv, strategy=strategy)
        assert plan_signature(fast) == plan_signature(slow), strategy


# Exact ties in the matrix itself: the first maximum in (score desc, min id
# asc, other min id asc) order must win, whichever group was touched last.
HAND_5 = [
    [1.0, 0.75, 0.75, 0.25, 0.25],
    [0.75, 1.0, 0.0, 0.25, 0.0],
    [0.75, 0.0, 1.0, 0.25, 0.75],
    [0.25, 0.25, 0.25, 1.0, 0.75],
    [0.25, 0.0, 0.75, 0.75, 1.0],
]
HAND_4 = [
    [1.0, 0.0, 0.25, 0.5],
    [0.0, 1.0, 0.75, 0.0],
    [0.25, 0.75, 1.0, 0.75],
    [0.5, 0.0, 0.75, 1.0],
]


def _oracle_on(values, strategy):
    mx = SimilarityMatrix(block_id=0, values=np.array(values, dtype=np.float32))
    tv = synthetic_tv(np.random.default_rng(0), [4], num_tasks=mx.num_tasks)
    fast = global_merge_order([block_merge_sequence(mx, strategy)])
    return plan_signature(fast), plan_signature(naive_greedy_order(tv, strategy, matrices=[mx]))


@pytest.mark.parametrize("values", [HAND_5, HAND_4], ids=["5x5", "4x4"])
@pytest.mark.parametrize("strategy", ["min", "max", "avg"])
def test_hand_tied_matrix_matches_oracle(values, strategy):
    fast, slow = _oracle_on(values, strategy)
    assert fast == slow


def test_hand_tied_matrix_min_sequence():
    fast, _ = _oracle_on(HAND_5, "min")
    assert [(left, right) for _, left, right, _ in fast[:2]] == [((0,), (1,)), ((2,), (4,))]


@st.composite
def quantized_matrices(draw):
    """Symmetric matrices with entries k/4: exact ties everywhere."""
    m = draw(st.integers(2, 9))
    steps = draw(st.lists(st.integers(-4, 4), min_size=m * m, max_size=m * m))
    a = np.array(steps, dtype=np.float64).reshape(m, m) / 4
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return a


@given(quantized_matrices(), st.sampled_from(["min", "max", "avg"]))
@settings(max_examples=150, deadline=None)
def test_quantized_matrices_match_oracle(values, strategy):
    fast, slow = _oracle_on(values, strategy)
    assert fast == slow


def test_unified_identical_blocks_break_ties_by_block_id():
    # block 1 holds block 0's vectors with their coordinates permuted: the
    # same cosines up to float64 rounding, so the same float32 scores
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rows = synthetic_rows(rng, [16, 16], num_tasks=6)
        rows[1][:] = rows[0][:, rng.permutation(16)]
        tv = tv_from_rows(rows)
        plan = compute_merge_plan(tv, strategy="unified")
        per_block = {0: [], 1: []}
        for pos, ev in enumerate(plan.events):
            per_block[ev.block_id].append((pos, ev.left, ev.right, ev.score))
        assert [e[1:] for e in per_block[0]] == [e[1:] for e in per_block[1]]
        assert all(a[0] < b[0] for a, b in zip(per_block[0], per_block[1])), seed


def test_unified_needs_gram():
    mx = SimilarityMatrix(block_id=0, values=np.eye(3, dtype=np.float32))
    with pytest.raises(ValueError, match="Gram"):
        block_merge_sequence(mx, "unified")
