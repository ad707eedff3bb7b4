"""Merge sequencing, global ordering, replay and size accounting."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmerge import (
    MalformedPlan,
    MergerConfig,
    SizeModel,
    block_merge_sequence,
    build_artifact,
    compute_merge_plan,
    global_merge_order,
    kmeans_baseline,
    prepare_task_vectors,
    read_plan_jsonl,
    replay_to_size,
    replay_to_sizes,
    write_plan_jsonl,
)
from blockmerge.scheduler import MergeEvent, MergePlan
from blockmerge.similarity import SimilarityMatrix, pairwise_all

from helpers import (
    plan_signature,
    synthetic_partition,
    synthetic_rows,
    synthetic_tv,
    toy_task_vectors,
    tv_from_rows,
)
from oracles import naive_greedy_order, size_oracle


def _matrix(values, block_id=0):
    return SimilarityMatrix(block_id=block_id, values=np.array(values, dtype=np.float32))


# -- per-block sequences -----------------------------------------------------

def test_sequence_single_task_empty():
    assert block_merge_sequence(_matrix([[1.0]]), "min") == []


def test_sequence_two_tasks():
    mx = _matrix([[1.0, 0.25], [0.25, 1.0]])
    (ev,) = block_merge_sequence(mx, "min")
    assert (ev.left, ev.right) == ((0,), (1,))
    assert ev.score == pytest.approx(0.25)


def test_sequence_three_tasks_hand_case():
    mx = _matrix(
        [
            [1.0, 0.9, 0.2],
            [0.9, 1.0, 0.5],
            [0.2, 0.5, 1.0],
        ]
    )
    events = block_merge_sequence(mx, "min")
    assert [(e.left, e.right) for e in events] == [((0,), (1,)), ((0, 1), (2,))]
    assert events[0].score == pytest.approx(0.9)
    assert events[1].score == pytest.approx(0.2)  # min(0.2, 0.5)


def test_scores_non_increasing_within_block():
    rng = np.random.default_rng(1)
    for strategy in ("min", "max", "avg"):
        tv = synthetic_tv(rng, [32], num_tasks=7)
        mx = pairwise_all(tv)[0]
        events = block_merge_sequence(mx, strategy)
        scores = [e.score for e in events]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


@pytest.mark.parametrize("strategy", ["min", "max", "avg", "unified"])
def test_fast_path_equals_naive_oracle(strategy):
    rng = np.random.default_rng(2)
    for _ in range(6):
        dims = [int(d) for d in rng.integers(4, 65, size=int(rng.integers(1, 5)))]
        tv = synthetic_tv(rng, dims, num_tasks=int(rng.integers(2, 7)))
        fast = compute_merge_plan(tv, strategy=strategy)
        slow = naive_greedy_order(tv, strategy=strategy)
        assert plan_signature(fast) == plan_signature(slow)


def test_all_equal_similarities_tiebreak():
    tv = synthetic_tv(np.random.default_rng(3), [8], num_tasks=4)
    mx = _matrix(np.full((4, 4), 0.5))
    plan = naive_greedy_order(tv, "min", matrices=[mx])
    assert [(e.left, e.right) for e in plan.events] == [
        ((0,), (1,)),
        ((0, 1), (2,)),
        ((0, 1, 2), (3,)),
    ]
    fast = global_merge_order([block_merge_sequence(mx, "min")])
    assert plan_signature(fast) == plan_signature(plan)


# -- global ordering ---------------------------------------------------------

def _ev(block, left, right, score):
    return MergeEvent(block_id=block, left=left, right=right, score=score)


def test_single_block_plan_is_sequence():
    seq = [_ev(0, (0,), (1,), 0.7)]
    plan = global_merge_order([seq], "greedy")
    assert [e.score for e in plan.events] == [0.7]
    assert [e.seq for e in plan.events] == [0]


def test_two_block_interleave_sorted():
    seqs = [
        [_ev(0, (0,), (1,), 0.9), _ev(0, (0, 1), (2,), 0.3)],
        [_ev(1, (0,), (2,), 0.8), _ev(1, (0, 2), (1,), 0.4)],
    ]
    plan = global_merge_order(seqs, "greedy")
    assert [e.score for e in plan.events] == [0.9, 0.8, 0.4, 0.3]


def test_right_to_left_policy():
    seqs = [[_ev(b, (0,), (1,), 0.5)] for b in range(3)]
    plan = global_merge_order(seqs, "right_to_left")
    assert [e.block_id for e in plan.events] == [2, 1, 0]
    plan = global_merge_order(seqs, "left_to_right")
    assert [e.block_id for e in plan.events] == [0, 1, 2]


def test_random_policy_seeded_and_order_preserving():
    rng = np.random.default_rng(4)
    tv = synthetic_tv(rng, [16, 16, 16], num_tasks=5)
    a = compute_merge_plan(tv, order_policy="random", seed=7)
    b = compute_merge_plan(tv, order_policy="random", seed=7)
    c = compute_merge_plan(tv, order_policy="random", seed=8)
    assert plan_signature(a) == plan_signature(b)
    assert plan_signature(a) != plan_signature(c)
    greedy = compute_merge_plan(tv)
    for block in range(3):
        in_block = [(e.left, e.right) for e in a.events if e.block_id == block]
        reference = [(e.left, e.right) for e in greedy.events if e.block_id == block]
        assert in_block == reference  # dendrogram order kept within each block


# -- replay and sizes --------------------------------------------------------

def test_replay_target_m_applies_nothing():
    tv = synthetic_tv(np.random.default_rng(5), [8, 8], num_tasks=4)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition)
    asg = replay_to_size(plan, tv, Fraction(4), sm)
    assert asg.applied_events == 0
    assert asg.size == Fraction(4)
    assert all(groups == ((0,), (1,), (2,), (3,)) for groups in asg.block_groups)


def test_replay_target_one_dense_full_merge():
    tv = synthetic_tv(np.random.default_rng(6), [8, 16], num_tasks=4)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition)
    asg = replay_to_size(plan, tv, Fraction(1), sm)
    assert asg.size == Fraction(1)
    assert all(len(groups) == 1 for groups in asg.block_groups)


def test_replay_incremental_size_matches_scratch_dense_and_masked():
    rng = np.random.default_rng(7)
    tv = synthetic_tv(rng, [8, 24, 16], num_tasks=5)
    plan = compute_merge_plan(tv)
    for cfg in (None, MergerConfig.for_algorithm("emr"), MergerConfig.for_algorithm("consensus")):
        sm = SizeModel.from_partition(tv.partition, cfg)
        for k in range(len(plan.events) + 1):
            prefix = plan.events[:k]
            sub = plan.__class__(
                events=prefix, num_tasks=plan.num_tasks, num_blocks=plan.num_blocks,
                block_keys=plan.block_keys,
            )
            asg = replay_to_size(sub, tv, Fraction(0), sm)
            assert asg.applied_events == k
            scratch = sm.size_of(asg.block_groups)
            assert asg.size == scratch
            oracle = size_oracle(
                asg.block_groups, sm.block_nbytes, sm.block_dims, sm.masked, sm.scalars
            )
            assert asg.size == oracle


def test_dense_fractional_steps():
    tv = synthetic_tv(np.random.default_rng(8), [8, 24], num_tasks=3)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition)
    unit = sm.unit_bytes
    sizes = []
    for k in range(len(plan.events) + 1):
        sub = plan.__class__(
            events=plan.events[:k], num_tasks=plan.num_tasks, num_blocks=plan.num_blocks,
        )
        sizes.append(replay_to_size(sub, tv, Fraction(0), sm).size)
    for prev, cur, ev in zip(sizes, sizes[1:], plan.events):
        assert prev - cur == Fraction(sm.block_nbytes[ev.block_id], unit)
    assert sizes[0] == Fraction(3) and sizes[-1] == Fraction(1)


def test_replay_groups_match_set_union_simulation():
    rng = np.random.default_rng(17)
    tv = synthetic_tv(rng, [8, 16, 8], num_tasks=6)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition)
    for k in (0, 3, 7, len(plan.events)):
        sub = plan.__class__(
            events=plan.events[:k], num_tasks=plan.num_tasks, num_blocks=plan.num_blocks,
        )
        asg = replay_to_size(sub, tv, Fraction(0), sm)
        assert asg.block_groups == _prefix_groups(plan, k)


def test_replay_below_floor_returns_full_merge():
    tv = synthetic_tv(np.random.default_rng(9), [8], num_tasks=3)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition, MergerConfig.for_algorithm("emr"))
    asg = replay_to_size(plan, tv, Fraction(0), sm)
    assert asg.applied_events == len(plan.events)
    assert asg.size == Fraction(2) + Fraction(3, 32)


@st.composite
def sweeps(draw):
    """A small plan, a size model and an unsorted target list with
    duplicates, targets below the masked floor, above M and fractional."""
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    tv = synthetic_tv(np.random.default_rng(draw(st.integers(0, 2**16))), dims, num_tasks=m)
    plan = compute_merge_plan(
        tv,
        strategy=draw(st.sampled_from(["min", "max", "avg"])),
        order_policy=draw(st.sampled_from(["greedy", "left_to_right", "random"])),
        seed=draw(st.integers(0, 3)),
    )
    algorithm = draw(st.sampled_from([None, "ta", "emr", "consensus"]))
    cfg = MergerConfig.for_algorithm(algorithm) if algorithm else None
    sm = SizeModel.from_partition(tv.partition, cfg)
    drawn = draw(st.lists(st.fractions(min_value=0, max_value=m + 2, max_denominator=64),
                          min_size=1, max_size=6))
    targets = drawn + [Fraction(1, 2), Fraction(m + 1), drawn[0]]
    return plan, tv, sm, draw(st.permutations(targets))


@given(sweeps())
@settings(max_examples=60, deadline=None)
def test_replay_to_sizes_equals_per_target_replays(case):
    plan, tv, sm, targets = case
    swept = replay_to_sizes(plan, tv, targets, sm)
    assert len(swept) == len(targets)
    for target, asg in zip(targets, swept):
        alone = replay_to_size(plan, tv, target, sm)
        assert asg.block_groups == alone.block_groups
        assert asg.applied_events == alone.applied_events
        assert isinstance(asg.size, Fraction) and asg.size == alone.size
        # the first prefix at or below the target, else the whole plan
        assert asg.size == sm.size_of(asg.block_groups)
        assert asg.size <= target or asg.applied_events == len(plan.events)
        if asg.applied_events:
            shorter = replace(plan, events=plan.events[: asg.applied_events - 1])
            assert replay_to_size(shorter, tv, Fraction(0), sm).size > target


def _prefix_groups(plan, k):
    """Each block's groups after the first ``k`` events, by set unions."""
    sets = [[{t} for t in range(plan.num_tasks)] for _ in range(plan.num_blocks)]
    for ev in plan.events[:k]:
        block = sets[ev.block_id]
        left = next(s for s in block if ev.left[0] in s)
        right = next(s for s in block if ev.right[0] in s)
        block.remove(right)
        left |= right
    return [tuple(tuple(sorted(s)) for s in sorted(block, key=min)) for block in sets]


@st.composite
def boundary_targets(draw):
    """A plan, a size model over one- or two-byte elements and, for every
    prefix of the plan, targets at its exact size, one byte below it and a
    non-integer number of bytes below and above it."""
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    tv = synthetic_tv(np.random.default_rng(draw(st.integers(0, 2**16))), dims, num_tasks=m)
    plan = compute_merge_plan(tv, order_policy=draw(st.sampled_from(["greedy", "random"])),
                              seed=draw(st.integers(0, 3)))
    algorithm = draw(st.sampled_from([None, "emr", "consensus"]))
    part = synthetic_partition(dims, bytes_per_element=draw(st.sampled_from([2, 4])))
    sm = SizeModel.from_partition(part, MergerConfig.for_algorithm(algorithm) if algorithm else None)
    oracle = [size_oracle(_prefix_groups(plan, k), sm.block_nbytes, sm.block_dims, sm.masked)
              for k in range(len(plan.events) + 1)]
    byte = Fraction(1, sm.unit_bytes)
    below = Fraction(draw(st.integers(1, 8)), 9) * byte
    above = Fraction(draw(st.integers(1, 8)), 9) * byte
    targets = [t for size in oracle for t in (size, size - byte, size - below, size + above)]
    return plan, tv, sm, oracle, draw(st.permutations(targets))


@given(boundary_targets())
@settings(max_examples=60, deadline=None)
def test_replay_stops_at_the_first_prefix_the_oracle_puts_at_or_below_the_target(case):
    plan, tv, sm, oracle, targets = case
    for target, asg in zip(targets, replay_to_sizes(plan, tv, targets, sm), strict=True):
        k = next((k for k, size in enumerate(oracle) if size <= target), len(plan.events))
        assert asg.applied_events == k
        assert asg.block_groups == _prefix_groups(plan, k)
        assert asg.size == oracle[k]


# -- k-means baseline --------------------------------------------------------

def test_kmeans_extremes():
    tv = synthetic_tv(np.random.default_rng(11), [16, 16], num_tasks=5)
    sm = SizeModel.from_partition(tv.partition)
    all_single = kmeans_baseline(tv, k=5, sm=sm, seed=0)
    assert all(groups == ((0,), (1,), (2,), (3,), (4,)) for groups in all_single.block_groups)
    assert all_single.size == Fraction(5)
    one = kmeans_baseline(tv, k=1, sm=sm, seed=0)
    assert all(groups == ((0, 1, 2, 3, 4),) for groups in one.block_groups)
    assert one.size == Fraction(1)


def test_kmeans_exact_k_and_size():
    tv = synthetic_tv(np.random.default_rng(12), [16, 8, 24], num_tasks=6)
    sm = SizeModel.from_partition(tv.partition)
    for k in (2, 3, 4):
        asg = kmeans_baseline(tv, k=k, sm=sm, seed=3)
        assert all(len(groups) == k for groups in asg.block_groups)
        assert asg.size == Fraction(k)


def test_kmeans_recovers_planted_clusters():
    rng = np.random.default_rng(13)
    dims = [32, 32]
    centers = [rng.normal(size=d) for d in dims]
    rows = synthetic_rows(rng, dims, num_tasks=6)
    for b, d in enumerate(dims):
        for task in range(6):
            side = 1.0 if task < 3 else -1.0
            rows[b][task] = (
                side * 10.0 * centers[b] + rng.normal(scale=0.01, size=d)
            ).astype(np.float32)
    tv = tv_from_rows(rows)
    asg = kmeans_baseline(tv, k=2, sm=SizeModel.from_partition(tv.partition), seed=0)
    assert all(groups == ((0, 1, 2), (3, 4, 5)) for groups in asg.block_groups)


@pytest.mark.parametrize("algorithm", ["emr", "consensus"])
def test_kmeans_sizes_a_masked_grouping_as_its_artifact_reports(algorithm):
    # masks and the pretrained copy cost bytes: a dense model would say k
    _, _, part, tv = toy_task_vectors(np.random.default_rng(18), 4)
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = prepare_task_vectors(tv, cfg)
    sm = SizeModel.from_partition(part, cfg)
    asg = kmeans_baseline(tv, k=2, sm=sm, seed=0)
    oracle = size_oracle(asg.block_groups, sm.block_nbytes, sm.block_dims, masked=True)
    assert asg.size == build_artifact(asg, tv, cfg).size_report.units == oracle
    assert asg.size > 2


def test_kmeans_deterministic():
    tv = synthetic_tv(np.random.default_rng(14), [16], num_tasks=6)
    sm = SizeModel.from_partition(tv.partition)
    a = kmeans_baseline(tv, k=3, sm=sm, seed=5)
    b = kmeans_baseline(tv, k=3, sm=sm, seed=5)
    assert a.block_groups == b.block_groups


# -- exports -----------------------------------------------------------------

def test_assignment_json_export(tmp_path):
    import json

    from blockmerge import write_assignment_json

    tv = synthetic_tv(np.random.default_rng(16), [8, 8], num_tasks=4)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(tv.partition)
    asg = replay_to_size(plan, tv, Fraction(2), sm)
    path = str(tmp_path / "groups.json")
    write_assignment_json(asg, tv.partition.block_keys, path)
    obj = json.loads(Path(path).read_text())
    assert set(obj) == {"b0", "b1"}
    for key, groups in obj.items():
        members = sorted(t for g in groups for t in g)
        assert members == [0, 1, 2, 3]


def test_plan_jsonl_round_trip(tmp_path):
    tv = synthetic_tv(np.random.default_rng(15), [8, 8], num_tasks=4)
    plan = compute_merge_plan(tv, seed=1)
    path = str(tmp_path / "plan.jsonl")
    write_plan_jsonl(plan, path)
    back = read_plan_jsonl(path, num_tasks=4, num_blocks=2)
    assert plan_signature(back) == plan_signature(plan)
    assert [e.seq for e in back.events] == list(range(len(plan.events)))


def _plan_lines(tmp_path, m=4, blocks=3):
    tv = synthetic_tv(np.random.default_rng(18), [8] * blocks, num_tasks=m)
    path = str(tmp_path / "plan.jsonl")
    write_plan_jsonl(compute_merge_plan(tv), path)
    with open(path, encoding="utf-8") as fh:
        return tv, path, [json.loads(line) for line in fh]


def _write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(o) + "\n" for o in objs)


@pytest.mark.parametrize(
    "line,field,value",
    [
        (0, "left", 5), (0, "block", None), (0, "block", 1000000), (0, "right", [99]),
        (0, "seq", "0"), (0, "seq", 7), (0, "score", "high"), (0, "left", []),
        (0, "right", [3, 1]), (0, "left", [0, 0]), (0, "block", -1), (0, "left", [True]),
    ],
)
def test_malformed_plan_lines_raise(tmp_path, line, field, value):
    _, path, objs = _plan_lines(tmp_path)
    objs[line][field] = value
    _write_lines(path, objs)
    with pytest.raises(MalformedPlan):
        read_plan_jsonl(path, num_tasks=4, num_blocks=3)


def test_plan_event_must_join_whole_groups(tmp_path):
    _, path, objs = _plan_lines(tmp_path)
    last = [o for o in objs if o["block"] == 0][-1]  # joins all four tasks
    if len(last["left"]) > 1:
        last["left"] = last["left"][:1]
    else:
        last["right"] = last["right"][:1]
    _write_lines(path, objs)
    with pytest.raises(MalformedPlan, match="whole groups"):
        read_plan_jsonl(path, num_tasks=4, num_blocks=3)


def test_malformed_plan_structure_raises(tmp_path):
    _, path, objs = _plan_lines(tmp_path)
    _write_lines(path, objs[:-1])  # one merge short of B * (M - 1)
    with pytest.raises(MalformedPlan, match="expected"):
        read_plan_jsonl(path, num_tasks=4, num_blocks=3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    with pytest.raises(MalformedPlan, match="object"):
        read_plan_jsonl(path)
    with open(path, "wb") as fh:
        fh.write(b"\xff{\n")
    with pytest.raises(MalformedPlan):
        read_plan_jsonl(path)


def test_replay_re_merge_is_malformed_plan():
    tv = synthetic_tv(np.random.default_rng(19), [8], num_tasks=3)
    plan = compute_merge_plan(tv)
    twice = replace(plan, events=plan.events[:1] * 2)
    with pytest.raises(MalformedPlan, match="re-merges"):
        replay_to_size(twice, tv, Fraction(0), SizeModel.from_partition(tv.partition))


@pytest.mark.parametrize(
    "events",
    [
        [(0, (0,), (2,)), (0, (1,), (2,))],  # names part of the group (0, 2)
        [(0, (1,), (0,))],  # min(left) > min(right)
        [(0, (1,), (2,)), (0, (0,), (2, 1))],  # unsorted members of a whole group
        [(0, (0,), (1,)), (0, (0,), (1,))],  # re-merges a group
        [(0, (0,), (3,))],  # task out of range
        [(0, (-1,), (0,))],  # negative task
        [(1, (0,), (1,))],  # block out of range
        [(-1, (0,), (1,))],  # negative block
        [(0, (), (1,))],  # no members
    ],
)
def test_replay_rejects_malformed_in_memory_plan(events):
    tv = synthetic_tv(np.random.default_rng(19), [8], num_tasks=3)
    plan = MergePlan(events=tuple(MergeEvent(block_id=b, left=left, right=right, score=0.0, seq=i)
                                  for i, (b, left, right) in enumerate(events)),
                     num_tasks=3, num_blocks=1)
    with pytest.raises(MalformedPlan):
        replay_to_size(plan, tv, Fraction(0), SizeModel.from_partition(tv.partition))


def _json_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_PLAN_JUNK = [None, True, -1, 0, 1, 2, 3, 4, 10**12, 0.5, "", "x", [], [0], [1], [0, 1], [1, 0],
              [[1]], {}, {"0": 0}]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_plan_fails_typed_or_replays(tmp_path_factory, data):
    """Mutate one position of one event, or drop, repeat or swap lines: the
    read either raises MalformedPlan or gives a plan that replays to the
    fully merged state."""
    tv, path, objs = _plan_lines(tmp_path_factory.mktemp("plan"))
    i = data.draw(st.integers(0, len(objs) - 1))
    action = data.draw(st.sampled_from(["set", "delete", "drop", "repeat", "swap"]))
    if action in ("set", "delete"):
        where = data.draw(st.sampled_from(list(_json_paths(objs[i]))))
        junk = data.draw(st.sampled_from(_PLAN_JUNK))
        if not where:
            objs[i] = junk
        else:
            parent = objs[i]
            for key in where[:-1]:
                parent = parent[key]
            if action == "delete":
                del parent[where[-1]]
            else:
                parent[where[-1]] = junk
    elif action == "drop":
        del objs[i]
    elif action == "repeat":
        objs.append(objs[i])
    else:
        j = data.draw(st.integers(0, len(objs) - 1))
        objs[i]["seq"], objs[j]["seq"] = objs[j]["seq"], objs[i]["seq"]
    _write_lines(path, objs)
    try:
        plan = read_plan_jsonl(path, num_tasks=4, num_blocks=3)
    except MalformedPlan:
        return
    asg = replay_to_size(plan, tv, Fraction(0), SizeModel.from_partition(tv.partition))
    assert asg.block_groups == [((0, 1, 2, 3),)] * 3
