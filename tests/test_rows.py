"""Task vectors built on demand: ``TaskVectorSet.rows`` against the dense
sets computed up front before, bit for bit; rows never alias the read
checkpoints, and whole sweeps leave them as they were; the plan stage holds
one block's rows, not the whole (M, D) set, and the streamed merge sweep
holds neither that set nor any size's payloads."""

import hashlib
import os
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmerge import (
    Checkpoint,
    MergerConfig,
    PartitionRule,
    SizeModel,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    export_sweep,
    partition,
    prepare_task_vectors,
    read_archive,
    replay_to_sizes,
    ties_trim,
    write_archive,
)
from blockmerge.mergers import ceil_count
from blockmerge.similarity import pairwise_all

from helpers import buffer_owner, ratio_for, toy_model, write_unpadded
from oracles import task_vectors_reference, ties_trim_reference

# a coarse grid, so trimmed magnitudes tie often; non-finite values and both
# zeros (inf - inf and nan - x give NaN task vectors); and values whose
# differences a float16 subtraction would round or overflow
VALUES = [0.5 * i for i in range(-4, 5)] + [-0.0, np.inf, -np.inf, np.nan] + [0.1, -1000.5, 65504.0, 6e-8]
KEEPS = ("one", "all_but_one", "all", "ratio_one")
RULES = [PartitionRule("b{B}.*", "b{B}")]
# inf - inf: the NaN is what the task vector holds
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")


def read_back(ckpts, dtype, writer=write_archive):
    """The checkpoints written as archives of ``dtype`` by ``writer`` and
    read again, so their tensors are views of archive mappings, as in the
    pipeline (unaligned ones when ``writer`` is ``write_unpadded``)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for i, ck in enumerate(ckpts):
            path = os.path.join(tmp, f"{i}.st")
            writer(Checkpoint({n: a.astype(dtype) for n, a in ck.tensors.items()}), path)
            out.append(read_archive(path))
    return out


def assert_rows_match_reference(ckpts, keep, member_lists):
    pre, fts = ckpts[0], ckpts[1:]
    part = partition(pre, RULES)
    tv = compute_task_vectors(pre, fts, part)
    want = task_vectors_reference(pre, fts, part)
    if keep is not None:
        ratio = ratio_for(keep, part.total_dim)
        assert ties_trim(tv, ratio) is tv
        want = ties_trim_reference(want, ratio)
    for b, members in enumerate(member_lists):
        got = tv.rows(b, members)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        # tobytes, so the sign of a zero and the payload of a NaN count
        assert got.tobytes() == want[b][list(members)].tobytes(), (b, members)
        assert tv.rows(b).tobytes() == want[b].tobytes()


@st.composite
def row_cases(draw):
    num_tasks = draw(st.integers(1, 4))
    widths = draw(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=3), min_size=1, max_size=4))
    names = [(f"b{b}.t{t}", w) for b, ws in enumerate(widths) for t, w in enumerate(ws)]
    ckpts = [Checkpoint({n: np.array(draw(st.lists(st.sampled_from(VALUES), min_size=w, max_size=w)),
                                     dtype=np.float32) for n, w in names})
             for _ in range(num_tasks + 1)]
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    keep = draw(st.none() | st.sampled_from(KEEPS) | st.integers(1, sum(w for _, w in names)))
    members = [draw(st.lists(st.integers(0, num_tasks - 1), min_size=1, max_size=num_tasks, unique=True))
               for _ in widths]
    writer = draw(st.sampled_from([write_archive, write_unpadded]))
    return read_back(ckpts, dtype, writer), keep, members


@given(row_cases())
@settings(max_examples=200, deadline=None)
def test_rows_match_dense_reference_bits(case):
    assert_rows_match_reference(*case)


@pytest.mark.parametrize("keep", (None,) + KEEPS + (37, 500))
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_rows_match_reference_on_wide_grids(dtype, keep):
    # uneven multi-tensor blocks on a coarse grid: threshold ties straddle
    # tensor and block boundaries
    rng = np.random.default_rng(7)
    widths = [[1, 7], [64], [3, 300, 8], [617]]
    ckpts = []
    for _ in range(5):
        tensors = {f"b{b}.t{t}": (rng.integers(-6, 7, size=w) * 0.25).astype(np.float32)
                   for b, ws in enumerate(widths) for t, w in enumerate(ws)}
        tensors["b2.t1"][::97] = [np.inf, -np.inf, np.nan, -0.0]
        tensors["b3.t0"][::89] = rng.normal(scale=100.0, size=7)
        ckpts.append(Checkpoint(tensors))
    members = [[3, 0, 2], [1], [0, 1, 2, 3], [2, 3]]
    assert_rows_match_reference(read_back(ckpts, dtype), keep, members)


# -- aliasing and the inputs ------------------------------------------------------

def _archived_toy(tmp_path, dtype, num_tasks=4):
    pre, tasks = toy_model(np.random.default_rng(11), num_tasks, width=6, dtype=dtype)
    ckpts = []
    for k, ck in enumerate([pre] + tasks):
        path = str(tmp_path / f"in{k}.st")
        write_archive(ck, path)
        ckpts.append(read_archive(path))
    return ckpts[0], ckpts[1:]


def _hashes(ckpts):
    return [{n: hashlib.sha256(a.tobytes()).hexdigest() for n, a in ck.tensors.items()} for ck in ckpts]


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("algorithm", ["emr", "consensus"])
def test_rows_never_alias_the_read_buffers(tmp_path, dtype, algorithm):
    pre, tasks = _archived_toy(tmp_path, dtype)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), MergerConfig.for_algorithm(algorithm))
    buffers = {id(buffer_owner(a)): buffer_owner(a) for ck in [pre] + tasks for a in ck.tensors.values()}
    for b in range(part.num_blocks):
        first, again = tv.rows(b, [2, 0]), tv.rows(b, [2, 0])
        assert not np.shares_memory(first, again)
        assert not any(np.shares_memory(first, buf) for buf in buffers.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_full_sweeps_leave_the_checkpoints_untouched(tmp_path, dtype):
    # the kernels overwrite the matrix they are given: it must never be a
    # view of an input
    pre, tasks = _archived_toy(tmp_path, dtype)
    before = _hashes([pre] + tasks)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    for algorithm in ("emr", "consensus"):
        cfg = MergerConfig.for_algorithm(algorithm)
        tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
        sm = SizeModel.from_partition(part, cfg)
        targets = [Fraction(s) for s in range(len(tasks), 0, -1)]
        out_dirs = [str(tmp_path / algorithm / str(t)) for t in targets]
        export_sweep(replay_to_sizes(compute_merge_plan(tv), tv, targets, sm), out_dirs, tv, cfg)
    assert _hashes([pre] + tasks) == before


# -- memory bound ---------------------------------------------------------------

M = 8
DIMS = [20_000 + 3_001 * i for i in range(12)]  # D = 438 066, uneven widths
UNIT = M * max(DIMS) * 4  # one block's float32 rows of every task
SLACK = 64 << 10


def _inputs(dtype):
    rng = np.random.default_rng(12)
    names = [f"blocks.{i}.attn.w" for i in range(len(DIMS))]
    pre = Checkpoint({n: rng.normal(size=d).astype(dtype) for n, d in zip(names, DIMS)})
    tasks = [Checkpoint({n: (a + rng.normal(scale=0.1, size=a.size)).astype(dtype)
                         for n, a in pre.tensors.items()}) for _ in range(M)]
    return pre, tasks, partition(pre, default_transformer_rules())


def _survivors(cfg) -> int:
    """Bytes a trimmed set records: packed keep masks plus kept values."""
    if not cfg.needs_global_trim:
        return 0
    return M * (sum((d + 7) // 8 for d in DIMS) + 4 * ceil_count(cfg.keep_ratio, sum(DIMS)))


def _traced(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


# one block's rows in float32 and float64 (similarity) or a group's rows, a
# scratch matrix and masks (merge), plus the float32 copy of a float16
# pretrained model and the trim's two (D,) scratch rows: the whole set
# (M x D x 4 bytes, 8.3 units here) does not fit beside them
CASES = [("emr", np.float32), ("consensus", np.float16)]


@pytest.mark.parametrize("algorithm,dtype", CASES)
def test_plan_stage_peak_memory_is_bounded(algorithm, dtype):
    pre, tasks, part = _inputs(dtype)
    cfg = MergerConfig.for_algorithm(algorithm)

    def plan_stage():
        tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
        return pairwise_all(tv)

    peak, _ = _traced(plan_stage)
    bound = 5 * UNIT + _survivors(cfg) + SLACK
    assert peak <= bound, f"peak {peak / UNIT:.2f} units > {bound / UNIT:.2f}"


@pytest.mark.parametrize("algorithm,dtype", CASES)
def test_merge_stage_peak_memory_is_bounded(tmp_path, algorithm, dtype):
    # the streamed sweep writes every size block by block: what it holds
    # beyond the inputs is a group's working set and one block's payloads of
    # two sizes, never an artifact, so there is no allowance for payloads
    pre, tasks, part = _inputs(dtype)
    cfg = MergerConfig.for_algorithm(algorithm)
    sm = SizeModel.from_partition(part, cfg)
    plan = compute_merge_plan(prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg))
    targets = [Fraction(M), Fraction(M, 2), Fraction(1)]

    def merge_stage():
        tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
        export_sweep(replay_to_sizes(plan, tv, targets, sm),
                     [str(tmp_path / str(t)) for t in targets], tv, cfg)

    peak, _ = _traced(merge_stage)
    widened = sum(DIMS) * 4 if dtype == np.float16 else 0  # the set's float32 pretrained copy
    bound = 4 * UNIT + _survivors(cfg) + widened + SLACK
    assert peak <= bound, f"peak {peak / UNIT:.2f} units > {bound / UNIT:.2f}"
