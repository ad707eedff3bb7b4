"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blockmerge import (
    Checkpoint,
    MergerConfig,
    SizeModel,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    kmeans_baseline,
    merge_average,
    merge_consensus,
    merge_emr,
    merge_pcb,
    merge_ta,
    merge_ties,
    partition,
    prepare_task_vectors,
    reconstruct_task,
    replay_to_size,
    verify_artifact,
    write_archive,
)
from blockmerge.cli import main as cli_main
from blockmerge.scheduler import GroupAssignment
from blockmerge.similarity import pairwise_all

from helpers import plan_signature, synthetic_tv, toy_model
from oracles import (
    average_oracle,
    consensus_oracle,
    emr_oracle,
    naive_greedy_order,
    pcb_oracle,
    ta_oracle,
    ties_oracle,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_size_formula_reproduction():
    with criterion(1, "mask-family minimum sizes 2+M/32 reproduced exactly"):
        start = time.perf_counter()
        cases = [
            ("emr", 11, Fraction(2) + Fraction(11, 32)),
            ("emr", 7, Fraction(2) + Fraction(7, 32)),
            ("consensus", 30, Fraction(2) + Fraction(30, 32)),
        ]
        rng = np.random.default_rng(100)
        for algorithm, m, expected in cases:
            tv = synthetic_tv(rng, [64, 32, 128], num_tasks=m)
            cfg = MergerConfig.for_algorithm(algorithm, keep_ratio=1.0)
            tv = prepare_task_vectors(tv, cfg)
            sm = SizeModel.from_partition(tv.partition, cfg)
            plan = compute_merge_plan(tv)
            asg = replay_to_size(plan, tv, Fraction(0), sm)
            assert asg.size == expected
            assert sm.size_of(asg.block_groups) == expected
            pre = Checkpoint(
                tensors={
                    b.tensor_names[0]: rng.standard_normal(b.dim).astype(np.float32)
                    for b in tv.partition.blocks
                }
            )
            art = build_artifact(asg, tv, pre, cfg)
            assert art.size_report.units == expected
        assert float(cases[0][2]) == 2.34375
        assert float(cases[1][2]) == 2.21875
        assert float(cases[2][2]) == 2.9375
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"size fixtures took {elapsed:.2f}s"


def test_criterion_2_greedy_oracle_equivalence():
    with criterion(2, "chain+heap plan equals naive greedy oracle on 20 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(200)
        checked = 0
        for i in range(20):
            b = int(rng.integers(1, 11))
            m = int(rng.integers(2, 9))
            dims = [int(d) for d in rng.integers(2, 65, size=b)]
            tv = synthetic_tv(rng, dims, num_tasks=m)
            matrices = pairwise_all(tv)
            for strategy in ("min", "max", "avg"):
                fast = compute_merge_plan(tv, strategy=strategy, matrices=matrices)
                slow = naive_greedy_order(tv, strategy=strategy, matrices=matrices)
                assert plan_signature(fast) == plan_signature(slow), (
                    f"instance {i} strategy {strategy}"
                )
                checked += 1
        assert checked == 60
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"


def test_criterion_3_extreme_size_exactness(tmp_path):
    with criterion(3, "size M is bit-exact; size 1 TA/average equals whole-vector merging"):
        start = time.perf_counter()
        rng = np.random.default_rng(300)
        pre, tasks = toy_model(rng, num_tasks=5, layers=2, width=6)
        part = partition(pre, default_transformer_rules(), exclude=["head.*"])
        tv = compute_task_vectors(pre, tasks, part)
        input_paths = []
        for k, ck in enumerate(tasks):
            p = str(tmp_path / f"in{k}.st")
            write_archive(ck, p)
            input_paths.append(p)

        plan = compute_merge_plan(tv)
        for algorithm in ("ta", "average"):
            cfg = MergerConfig.for_algorithm(algorithm)
            sm = SizeModel.from_partition(part, cfg)

            full = replay_to_size(plan, tv, Fraction(5), sm)
            art = build_artifact(full, tv, pre, cfg, finetuned=tasks)
            for k in range(5):
                out = str(tmp_path / f"out{algorithm}{k}.st")
                write_archive(reconstruct_task(art, k), out)
                assert Path(out).read_bytes() == Path(input_paths[k]).read_bytes()

            one = replay_to_size(plan, tv, Fraction(1), sm)
            art1 = build_artifact(one, tv, pre, cfg, finetuned=tasks)
            rebuilt = reconstruct_task(art1, 0)
            lam = np.float32(1.5) if algorithm == "ta" else np.float32(1.0)
            for name in part.tensor_to_block:
                acc = np.zeros(pre.tensors[name].shape, dtype=np.float64)
                for ft in tasks:
                    acc += ft.tensors[name].astype(np.float32) - pre.tensors[name]
                reference = pre.tensors[name] + lam * (acc / len(tasks)).astype(np.float32)
                np.testing.assert_allclose(
                    rebuilt.tensors[name], reference, rtol=1e-6, atol=0.0
                )
                np.testing.assert_array_equal(rebuilt.tensors[name], reference)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"extreme-size fixtures took {elapsed:.2f}s"


def test_criterion_4_averaging_sse_monotone():
    with criterion(4, "average-merge reconstruction SSE non-decreasing over all 40 events"):
        rng = np.random.default_rng(400)
        m, b = 6, 8
        names = [f"t{i}" for i in range(b)]
        pre = Checkpoint(tensors={n: rng.normal(size=16).astype(np.float32) for n in names})
        tasks = [
            Checkpoint(
                tensors={
                    n: (pre.tensors[n] + rng.normal(scale=0.3, size=16).astype(np.float32))
                    for n in names
                }
            )
            for _ in range(m)
        ]
        part = partition(pre, rules=[])
        tv = compute_task_vectors(pre, tasks, part)
        assert part.num_blocks == b
        plan = compute_merge_plan(tv)
        assert len(plan.events) == b * (m - 1) == 40
        cfg = MergerConfig.for_algorithm("average")
        sm = SizeModel.from_partition(part, cfg)
        last = -1.0
        violations = 0
        for k in range(len(plan.events) + 1):
            sub = plan.__class__(
                events=plan.events[:k],
                num_tasks=plan.num_tasks, num_blocks=plan.num_blocks,
                block_keys=plan.block_keys,
            )
            asg = replay_to_size(sub, tv, Fraction(0), sm)
            art = build_artifact(asg, tv, pre, cfg, finetuned=tasks)
            sse = verify_artifact(art, tasks).total_sse
            if sse < last:
                violations += 1
            last = sse
        assert violations == 0
        assert last > 0.0  # the full merge is not free


def test_criterion_5_merger_oracles():
    with criterion(5, "all six mergers match scalar-loop oracles on 100+ random groups"):
        rng = np.random.default_rng(500)
        groups = 0
        while groups < 100:
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 65))
            vecs = [rng.normal(size=d).astype(np.float32) for _ in range(n)]
            np.testing.assert_allclose(
                merge_average(vecs).unified, average_oracle(vecs), rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                merge_ta(vecs, 1.5).unified, ta_oracle(vecs, 1.5), rtol=1e-6, atol=1e-7
            )
            np.testing.assert_allclose(
                merge_ties(vecs, 1.0).unified, ties_oracle(vecs, 1.0), rtol=1e-6, atol=1e-8
            )
            keep = float(rng.choice([0.25, 0.5, 1.0]))
            np.testing.assert_allclose(
                merge_pcb(vecs, keep_ratio=keep, lam=1.0).unified,
                pcb_oracle(vecs, keep, 1.0, 1.0, 1.0),
                rtol=1e-6,
                atol=1e-8,
            )
            u, masks, gammas = emr_oracle(vecs)
            out = merge_emr(vecs)
            np.testing.assert_allclose(out.unified, u, rtol=1e-6, atol=1e-8)
            np.testing.assert_array_equal(out.masks, np.array(masks, dtype=bool))
            np.testing.assert_allclose(out.rescalers, gammas, rtol=1e-6, atol=1e-8)
            cu, cmasks = consensus_oracle(vecs, 0.6)
            cout = merge_consensus(vecs, 0.6)
            np.testing.assert_allclose(cout.unified, cu, rtol=1e-6, atol=1e-8)
            np.testing.assert_array_equal(cout.masks, np.array(cmasks, dtype=bool))
            groups += 1

        # one-member emr groups reconstruct their member exactly
        for _ in range(10):
            v = rng.normal(size=int(rng.integers(1, 65))).astype(np.float32)
            out = merge_emr([v])
            np.testing.assert_array_equal(out.rescalers[0] * out.unified * out.masks[0], v)
        # threshold-0 consensus masks are all ones
        for _ in range(10):
            vecs = [rng.normal(size=16).astype(np.float32) for _ in range(3)]
            assert merge_consensus(vecs, threshold=0.0).masks.all()


def test_criterion_6_fractional_size_coverage():
    with criterion(6, "dense sizes step down by d_b/sum(d) and hit 2.25 within one step"):
        rng = np.random.default_rng(600)
        dims = [40, 24, 16, 48]
        tv = synthetic_tv(rng, dims, num_tasks=8)
        sm = SizeModel.from_partition(tv.partition)
        plan = compute_merge_plan(tv)
        total = sum(dims)
        sizes = [Fraction(8)]
        for ev in plan.events:
            sizes.append(sizes[-1] - Fraction(dims[ev.block_id], total))
        asg_all = replay_to_size(plan, tv, Fraction(0), sm)
        assert asg_all.size == sizes[-1] == Fraction(1)
        # the achievable set descends from M to 1 in per-event steps
        assert sorted(set(sizes), reverse=True) == sizes
        target = Fraction(9, 4)
        asg = replay_to_size(plan, tv, target, sm)
        max_step = Fraction(max(dims), total)
        assert target - max_step < asg.size <= target


@pytest.mark.slow
def test_criterion_7_performance_budget():
    with criterion(
        7,
        "M=30, B=150, d=6400 plan + 10-size sweep < 60 s; "
        "stage 1 scales ~M^2 (M=256 vs 512, B=16, d=1024)",
    ):
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:  # pragma: no cover
            from contextlib import nullcontext

            def threadpool_limits(_):
                return nullcontext()

        rng = np.random.default_rng(700)
        b, d, m = 150, 6400, 30
        dims = [d] * b

        with threadpool_limits(1):
            tv = synthetic_tv(rng, dims, num_tasks=m)
            pre = Checkpoint(
                tensors={f"b{i}.w": rng.standard_normal(d).astype(np.float32) for i in range(b)}
            )
            start = time.perf_counter()
            matrices = pairwise_all(tv)
            stage1 = time.perf_counter() - start
            plan = compute_merge_plan(tv, matrices=matrices)
            cfg = MergerConfig.for_algorithm("ta")
            sm = SizeModel.from_partition(tv.partition, cfg)
            targets = [Fraction(x) for x in (1, 2, 3, 5, 8, 11, 15, 19, 24, 30)]
            for target in targets:
                asg = replay_to_size(plan, tv, target, sm)
                build_artifact(asg, tv, pre, cfg)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"plan + sweep took {elapsed:.1f}s"

            # M-scaling of stage 1 where the O(M^2 d) Gram product dominates
            # the O(M d) widening; rounds alternate between the two sizes so
            # a drift in machine speed reaches both, and each keeps its best
            small, large = 256, 512
            sets = {mm: synthetic_tv(rng, [1024] * 16, num_tasks=mm) for mm in (small, large)}
            best = {mm: float("inf") for mm in sets}
            for _ in range(5):
                for mm, tv_m in sets.items():
                    t0 = time.perf_counter()
                    pairwise_all(tv_m)
                    best[mm] = min(best[mm], time.perf_counter() - t0)
            ratio = best[large] / max(best[small], 1e-9)
            assert 2.0 <= ratio <= 8.0, (
                f"stage-1 scaling ratio {ratio:.2f} "
                f"(M={large}: {best[large]:.4f}s, M={small}: {best[small]:.4f}s)"
            )
        print(f"    perf: plan+sweep {elapsed:.1f}s, stage1 {stage1:.2f}s, M-scaling x{ratio:.2f}")


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for f in sorted(filenames):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config+seed produce byte-identical plans and artifacts"):
        rng = np.random.default_rng(800)
        pre, tasks = toy_model(rng, num_tasks=3, layers=2, width=4)
        pre_path = str(tmp_path / "pre.st")
        write_archive(pre, pre_path)
        ft_paths = []
        for k, ck in enumerate(tasks):
            p = str(tmp_path / f"t{k}.st")
            write_archive(ck, p)
            ft_paths.append(p)
        import json

        rules_path = str(tmp_path / "rules.json")
        with open(rules_path, "w") as fh:
            json.dump(
                {
                    "rules": [
                        {"pattern": "blocks.{L}.attn.*", "block_key": "L{L}.attn"},
                        {"pattern": "blocks.{L}.mlp.*", "block_key": "L{L}.mlp"},
                        {"pattern": "blocks.{L}.ln1.*", "block_key": "L{L}.ln1"},
                        {"pattern": "blocks.{L}.ln2.*", "block_key": "L{L}.ln2"},
                    ],
                    "exclude": ["head.*"],
                },
                fh,
            )
        trees = []
        for run in ("a", "b"):
            plan_dir = str(tmp_path / f"plan_{run}")
            out_dir = str(tmp_path / f"out_{run}")
            args = ["--pretrained", pre_path]
            for p in ft_paths:
                args += ["--finetuned", p]
            args += ["--rules", rules_path, "--algorithm", "consensus",
                     "--order", "random", "--seed", "11"]
            assert cli_main(["plan"] + args + ["--out", plan_dir]) == 0
            assert cli_main(
                ["merge"] + args + [
                    "--plan", os.path.join(plan_dir, "plan.jsonl"),
                    "--sizes", "2.5,3", "--out", out_dir,
                ]
            ) == 0
            trees.append((_tree_bytes(plan_dir), _tree_bytes(out_dir)))
        assert trees[0] == trees[1]


def test_criterion_9_kmeans_baseline_contract():
    with criterion(9, "fixed-K baseline yields exactly K groups per block and size K"):
        rng = np.random.default_rng(900)
        tv = synthetic_tv(rng, [40, 24, 64], num_tasks=6)
        sm = SizeModel.from_partition(tv.partition)
        for k in (1, 2, 3, 4, 6):
            asg = kmeans_baseline(tv, k=k, seed=2, sm=sm)
            assert all(len(groups) == k for groups in asg.block_groups)
            assert asg.size == Fraction(k)


def test_criterion_10_inplace_restoration():
    with criterion(10, "pretrained buffers bit-identical after reconstruct+restore"):
        rng = np.random.default_rng(1000)

        def run_fixture(algorithm, num_tasks, pair_doubling, hand_groups=None):
            pre, tasks = toy_model(rng, num_tasks, layers=2, width=4)
            part = partition(pre, default_transformer_rules(), exclude=["head.*"])
            if pair_doubling:
                for k in range(1, num_tasks, 2):
                    for name in part.tensor_to_block:
                        delta = tasks[k - 1].tensors[name] - pre.tensors[name]
                        tasks[k].tensors[name] = pre.tensors[name] + 2.0 * delta
            tv = compute_task_vectors(pre, tasks, part)
            cfg = MergerConfig.for_algorithm(algorithm, keep_ratio=1.0)
            tv = prepare_task_vectors(tv, cfg)
            sm = SizeModel.from_partition(part, cfg)
            if hand_groups is None:
                plan = compute_merge_plan(tv)
                asg = replay_to_size(plan, tv, Fraction(0), sm)
            else:
                asg = GroupAssignment(
                    block_groups=[hand_groups] * part.num_blocks,
                    applied_events=0,
                    size=Fraction(0),
                )
                asg.size = sm.size_of(asg.block_groups)
            art = build_artifact(asg, tv, pre, cfg, finetuned=tasks)
            assert art.pretrained_blocks, "fixture must contain masked groups"
            before = {b: buf.tobytes() for b, buf in art.pretrained_blocks.items()}
            for _ in range(2):
                for k in range(num_tasks):
                    reconstruct_task(art, k)
            after = {b: buf.tobytes() for b, buf in art.pretrained_blocks.items()}
            assert before == after, f"{algorithm} fixture drifted"

        # emr: doubled pairs make every rescaler an exact power of two
        run_fixture("emr", 2, pair_doubling=True)
        run_fixture("emr", 4, pair_doubling=True, hand_groups=((0, 1), (2, 3)))
        # consensus: no rescalers; two-member groups keep disjoint means on grid
        run_fixture("consensus", 2, pair_doubling=False)
        run_fixture("consensus", 4, pair_doubling=False, hand_groups=((0, 1), (2, 3)))
