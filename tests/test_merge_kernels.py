"""The float32 sign-elect kernels (ties, emr, consensus) against their
previous float64-temporary form, bit for bit; the kernels' ownership of
their inputs; and their peak memory."""

import tracemalloc

import numpy as np
import pytest

from blockmerge import (
    MergerConfig,
    merge_average,
    merge_consensus,
    merge_emr,
    merge_group,
    merge_pcb,
    merge_ta,
    merge_ties,
)
from blockmerge.mergers import ALGORITHMS

from helpers import synthetic_tv
from oracles import merge_consensus_reference, merge_emr_reference, merge_ties_reference

DIMS = (1, 7, 8, 9, 8193, 100_003)  # mask-byte edges and numpy's 8192-element cast buffer


def special_columns(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Of every five columns, make the first all +0.0, the second -0.0
    mixed with +0.0 (no member agrees with the elected sign), and the third
    subnormal."""
    n, d = mat.shape
    mat[:, 0::5] = 0.0
    signed = np.where(rng.random((n, len(range(1, d, 5)))) < 0.5, np.float32(-0.0), np.float32(0.0))
    mat[:, 1::5] = signed
    tiny = rng.integers(1, 1 << 23, size=(n, len(range(2, d, 5)))).astype(np.uint32).view(np.float32)
    mat[:, 2::5] = tiny * rng.choice(np.float32([-1.0, 1.0]), size=tiny.shape)
    return mat


def group(kind: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    mat = rng.normal(size=(n, d)).astype(np.float32)
    if kind == "tiny":  # mat * unified underflows to 0, which a mask must see
        mat *= np.float32(1e-20)
    elif kind == "cancel" and n >= 2:
        mat[1] = -mat[0]
    elif kind == "wide":  # float64 member sums round, so their order shows
        mags = 10.0 ** rng.uniform(-44, 38, size=(n, d))
        mat = (np.sign(mat) * mags).astype(np.float32)
    return special_columns(mat, rng)


def assert_same_bits(mat: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):  # wide and non-finite groups
        compare_bits(list(mat))


def compare_bits(vectors):
    unified, masks, gammas = merge_emr_reference(vectors)
    out = merge_emr(vectors)
    assert out.unified.view(np.uint32).tobytes() == unified.view(np.uint32).tobytes()
    assert out.masks.tobytes() == masks.tobytes()
    assert out.rescalers.view(np.uint32).tobytes() == gammas.view(np.uint32).tobytes()
    for lam in (1.0, -0.5):
        want = merge_ties_reference(vectors, lam)
        assert merge_ties(vectors, lam).unified.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()
    for threshold in (0.6, 0.0):
        unified, masks = merge_consensus_reference(vectors, threshold)
        out = merge_consensus(vectors, threshold)
        assert out.unified.view(np.uint32).tobytes() == unified.view(np.uint32).tobytes()
        assert out.masks.tobytes() == masks.tobytes()


@pytest.mark.parametrize("kind", ["normal", "tiny", "cancel", "wide"])
def test_kernels_match_reference_bits(kind):
    rng = np.random.default_rng(["normal", "tiny", "cancel", "wide"].index(kind))
    for d in DIMS:
        # every n for the narrow widths; a spread of n, up to 2**20 entries,
        # for the wide ones
        for n in range(1, 31) if d < 8192 else [n for n in (1, 2, 9, 30) if n * d <= 1 << 20]:
            assert_same_bits(group(kind, n, d, rng))


def test_member_sums_are_sequential_not_pairwise():
    # numpy adds a single column pairwise. Sign election: 1e30 absorbs -1
    # before -1e30 cancels it, so the sequential sum is 0 (elected +) where a
    # pairwise one is -1 (elected -)
    col = np.zeros((16, 1), dtype=np.float32)
    col[0], col[1], col[8] = 1e30, -1.0, -1e30
    assert_same_bits(col)
    assert merge_ties(list(col)).unified[0] == np.float32(1e30)
    # disjoint sum: each 2**-50 vanishes into 16 + 2**-20 one at a time, so
    # the mean sits exactly halfway between two float32s and rounds to 1.0;
    # added pairwise, they carry it past the midpoint
    col = np.full((16, 1), 2.0**-50, dtype=np.float32)
    col[0], col[1] = 16.0, 2.0**-20
    assert_same_bits(col)
    assert merge_ties(list(col)).unified[0] == np.float32(1.0)


def test_row_sums_add_each_whole_row_pairwise():
    # emr's L1 and kept sums: numpy's 8192-element cast buffers would split
    # the pairwise order of a row wider than that, so the row is widened whole
    from blockmerge.mergers import _row_sums

    rng = np.random.default_rng(23)
    for d in DIMS:
        rows = np.abs(group("wide", 3, d, rng))
        assert _row_sums(rows).tobytes() == rows.astype(np.float64).sum(axis=1).tobytes()


def test_non_finite_members_match_reference_bits():
    mat = np.array([[np.inf, np.nan, 1.0, -np.inf, np.nan],
                    [1.0, 2.0, np.nan, np.inf, -1.0],
                    [-2.0, -np.inf, 0.5, 3.0, np.nan]], dtype=np.float32)
    assert_same_bits(mat)


DIRECT = {
    "average": merge_average,
    "ta": lambda v: merge_ta(v, lam=1.5),
    "ties": lambda v: merge_ties(v, lam=1.0),
    "pcb": lambda v: merge_pcb(v, keep_ratio=0.5, lam=1.0),
    "emr": merge_emr,
    "consensus": lambda v: merge_consensus(v, threshold=0.6),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernels_never_write_their_inputs(algorithm):
    rng = np.random.default_rng(21)
    tv = synthetic_tv(rng, [37, 1], num_tasks=5)
    before = [v.tobytes() for v in tv.block_vectors]
    cfg = MergerConfig.for_algorithm(algorithm)
    for b in range(2):
        merge_group(cfg, tv, b, [4, 1, 2])
    assert [v.tobytes() for v in tv.block_vectors] == before

    mat = rng.normal(size=(3, 37)).astype(np.float32)
    rows = [row.copy() for row in mat]
    mat_bytes, rows_bytes = mat.tobytes(), [row.tobytes() for row in rows]
    DIRECT[algorithm](mat)
    DIRECT[algorithm](rows)
    assert mat.tobytes() == mat_bytes
    assert [row.tobytes() for row in rows] == rows_bytes


@pytest.mark.parametrize("algorithm", ["emr", "ties", "consensus"])
def test_merge_group_peak_memory_is_bounded(algorithm):
    # one gathered copy of the group, one float32 scratch buffer, bool masks
    # and d-sized vectors: no float64 (n, d) temporary fits under 3x
    tv = synthetic_tv(np.random.default_rng(22), [1 << 20], num_tasks=8)
    group_bytes = tv.rows(0).nbytes
    tracemalloc.start()
    try:
        merge_group(MergerConfig.for_algorithm(algorithm), tv, 0, range(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * group_bytes, f"peak {peak / group_bytes:.2f}x the group's bytes"
