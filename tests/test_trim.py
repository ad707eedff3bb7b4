"""The global trim against its earlier copying form, bit for bit; what it
records on the set it is given and leaves of the set's sources; and its peak
memory."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockmerge.mergers as mergers
from blockmerge import (
    MergerConfig,
    TaskVectorSet,
    compute_task_vectors,
    default_transformer_rules,
    partition,
    prepare_task_vectors,
    read_archive,
    ties_trim,
    write_archive,
)
from blockmerge.mergers import ceil_count

from helpers import synthetic_partition, synthetic_tv, toy_model
from oracles import ties_trim_reference

# a coarse grid, so magnitudes tie often, plus the entries a trim must not trip on
VALUES = [0.5 * i for i in range(-4, 5)] + [-0.0, np.inf, -np.inf, np.nan]
KEEPS = ("one", "all_but_one", "all", "ratio_one")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tv_of(blocks) -> TaskVectorSet:
    return TaskVectorSet(synthetic_partition([b.shape[1] for b in blocks]), blocks[0].shape[0],
                         [np.ascontiguousarray(b, dtype=np.float32) for b in blocks])


def ratio_for(keep: str | int, total: int) -> float:
    """A keep_ratio whose ceil(ratio * total) is the wanted count."""
    if keep == "ratio_one":
        return 1.0
    count = {"one": 1, "all_but_one": max(1, total - 1), "all": total}.get(keep, keep)
    ratio = (count - 0.5) / total
    assert ceil_count(ratio, total) == count
    return ratio


def assert_trim_matches_reference(blocks, keep_ratio: float):
    tv = tv_of(blocks)
    want = ties_trim_reference(tv.block_vectors, keep_ratio)
    arrays = list(tv.block_vectors)
    source = [v.tobytes() for v in arrays]
    out = ties_trim(tv, keep_ratio)
    assert out is tv and out.trim_ratio == keep_ratio
    # tobytes, so the sign of a zero and the payload of a NaN count
    assert [tv.rows(b).tobytes() for b in range(len(arrays))] == [v.tobytes() for v in want]
    assert [v.tobytes() for v in arrays] == source  # the row source is not written


@st.composite
def trim_cases(draw):
    num_tasks = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    total = sum(dims)
    values = draw(st.lists(st.sampled_from(VALUES), min_size=num_tasks * total,
                           max_size=num_tasks * total))
    flat = np.array(values, dtype=np.float32).reshape(num_tasks, total)
    blocks = np.split(flat, np.cumsum(dims)[:-1], axis=1)
    keep = draw(st.sampled_from(KEEPS) | st.integers(1, total))
    return blocks, ratio_for(keep, total)


@given(trim_cases())
@settings(max_examples=300, deadline=None)
def test_trim_matches_copying_reference_bits(case):
    assert_trim_matches_reference(*case)


@pytest.mark.parametrize("keep", KEEPS + (37, 500))
@pytest.mark.parametrize("dims", [[1000], [1, 7, 64, 3, 300, 8, 617]])
def test_trim_matches_reference_on_wide_grids(dims, keep):
    rng = np.random.default_rng(len(dims))
    flat = (rng.integers(-6, 7, size=(4, 1000)) * 0.25).astype(np.float32)
    flat[:, ::97] = np.float32(-0.0)
    flat[1, 5::211] = [np.inf, -np.inf, np.nan, np.inf, np.nan]
    assert_trim_matches_reference(np.split(flat, np.cumsum(dims)[:-1], axis=1), ratio_for(keep, 1000))


def test_trim_ties_straddle_block_boundaries():
    # six equal magnitudes across three blocks, four to keep: the first four
    # by flat index survive, so the last block keeps one of its three
    blocks = [np.float32([[1.0, -2.0, 0.5]]), np.float32([[-2.0, 2.0]]), np.float32([[2.0, -2.0, 2.0]])]
    tv = ties_trim(tv_of(blocks), ratio_for(4, 8))
    assert [v[0].tolist() for v in tv.block_vectors] == [[0.0, -2.0, 0.0], [-2.0, 2.0], [2.0, 0.0, 0.0]]


# -- what the trim does to the set --------------------------------------------

def test_trim_keeps_the_set_and_its_arrays():
    tv = synthetic_tv(np.random.default_rng(40), [5, 11], num_tasks=3)
    arrays = list(tv.block_vectors)
    source = [v.tobytes() for v in arrays]
    want = ties_trim_reference(arrays, 0.1)
    assert prepare_task_vectors(tv, MergerConfig.for_algorithm("ties")) is tv
    assert tv.trim_ratio == 0.1
    assert [v.tobytes() for v in arrays] == source
    assert [tv.rows(b).tobytes() for b in range(2)] == [v.tobytes() for v in want]
    assert sum(np.count_nonzero(v) for v in tv.block_vectors) == 3 * ceil_count(0.1, 16)


def test_keep_all_allocates_no_copy():
    tv = synthetic_tv(np.random.default_rng(41), [1 << 16, 1 << 15], num_tasks=8)
    before = [v.tobytes() for v in tv.block_vectors]
    peak = _traced_peak(lambda: ties_trim(tv, 1.0))
    assert tv.trim_ratio == 1.0
    assert peak < 4096, f"peak {peak} bytes"
    assert [v.tobytes() for v in tv.block_vectors] == before


def test_retrim_at_another_ratio_raises_and_changes_nothing():
    tv = synthetic_tv(np.random.default_rng(42), [9, 4], num_tasks=3)
    prepare_task_vectors(tv, MergerConfig.for_algorithm("ties"))
    trimmed = [v.tobytes() for v in tv.block_vectors]
    assert prepare_task_vectors(tv, MergerConfig.for_algorithm("consensus")) is tv  # same 0.1
    with pytest.raises(ValueError):
        prepare_task_vectors(tv, MergerConfig.for_algorithm("consensus", keep_ratio=0.2))
    assert tv.trim_ratio == 0.1
    assert [v.tobytes() for v in tv.block_vectors] == trimmed


def _tensor_hashes(ckpts):
    return [{n: hashlib.sha256(a.tobytes()).hexdigest() for n, a in ck.tensors.items()} for ck in ckpts]


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_trim_never_writes_the_checkpoints(tmp_path, dtype):
    pre, tasks = toy_model(np.random.default_rng(43), 3, dtype=dtype)
    paths = [tmp_path / f"in{k}.st" for k in range(4)]
    for path, ck in zip(paths, [pre] + tasks):
        write_archive(ck, str(path))
    ckpts = [read_archive(str(p)) for p in paths]
    before = _tensor_hashes(ckpts)
    part = partition(ckpts[0], default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(ckpts[0], ckpts[1:], part)
    read = [a for ck in ckpts for a in ck.tensors.values()]
    assert not any(np.shares_memory(v, a) for v in tv.block_vectors for a in read)
    prepare_task_vectors(tv, MergerConfig.for_algorithm("ties", keep_ratio=0.3))
    assert any((v == 0).any() for v in tv.block_vectors)
    assert _tensor_hashes(ckpts) == before


def test_prepare_trims_through_the_module_global(monkeypatch):
    # the benchmark's tracer times the trim by rebinding mergers.ties_trim
    calls = []
    real = mergers.ties_trim
    monkeypatch.setattr(mergers, "ties_trim", lambda tv, r: calls.append(r) or real(tv, r))
    prepare_task_vectors(synthetic_tv(np.random.default_rng(44), [8], 2), MergerConfig.for_algorithm("ties"))
    assert calls == [0.1]


# -- memory bound ---------------------------------------------------------------

DIMS = [20_000 + 3_001 * i for i in range(12)]  # D = 438 066, uneven widths


def _bound(dims, num_tasks=8, keep_ratio=0.1) -> int:
    # two float32 scratch rows, a few block-sized temporaries and the
    # survivors the trim records (packed keep masks and kept values): a
    # dense copy of the set (8 tasks x 4 bytes) does not fit
    survivors = num_tasks * (sum((d + 7) // 8 for d in dims) + 4 * ceil_count(keep_ratio, sum(dims)))
    return 8 * sum(dims) + 16 * max(dims) + survivors + (64 << 10)


def _grid_tv(seed: int):
    tv = synthetic_tv(np.random.default_rng(seed), DIMS, num_tasks=8)
    for v in tv.block_vectors:  # on a grid, so magnitudes tie at the threshold
        np.round(v * np.float32(16), out=v)
    return tv


def test_trim_peak_memory_is_bounded():
    tv = _grid_tv(45)
    peak = _traced_peak(lambda: ties_trim(tv, 0.1))
    assert peak <= _bound(DIMS), f"peak {peak} > bound {_bound(DIMS)}"


def test_prepare_consensus_peak_memory_is_bounded():
    tv = _grid_tv(46)
    peak = _traced_peak(lambda: prepare_task_vectors(tv, MergerConfig.for_algorithm("consensus")))
    assert tv.trim_ratio == 0.1
    assert peak <= _bound(DIMS), f"peak {peak} > bound {_bound(DIMS)}"
