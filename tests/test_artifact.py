"""Artifact build, reconstruction, verification and manifest round trips."""

import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmerge import (
    ConfigMismatch,
    MalformedArtifact,
    MergerConfig,
    SizeModel,
    UnknownTask,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    export_manifest,
    export_sweep,
    load_artifact,
    merge_group,
    partition,
    prepare_task_vectors,
    read_archive,
    reconstruct_task,
    replay_to_size,
    replay_to_sizes,
    verify_artifact,
    write_archive,
)
import blockmerge.artifact as artifact_mod
from blockmerge.artifact import MANIFEST_VERSION
from blockmerge.cli import main
from blockmerge.scheduler import GroupAssignment
from blockmerge.task_space import flatten_block
from blockmerge.tensor_store import Checkpoint

from helpers import buffer_offset, buffer_owner, toy_model


def _pipeline(rng, num_tasks, algorithm, target, layers=2, width=4, **cfg_overrides):
    pre, tasks = toy_model(rng, num_tasks, layers=layers, width=width)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm(algorithm, **cfg_overrides)
    tv = prepare_task_vectors(tv, cfg)
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(part, cfg)
    asg = replay_to_size(plan, tv, Fraction(target), sm)
    art = build_artifact(asg, tv, cfg)
    return pre, tasks, part, tv, asg, art


def test_zero_merge_artifact_is_passthrough():
    rng = np.random.default_rng(0)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, "ta", target=3)
    assert art.size_report.units == Fraction(3)
    for k, original in enumerate(tasks):
        rebuilt = reconstruct_task(art, k)
        assert rebuilt.same_tensors(original)


def test_full_ta_merge_equals_whole_vector_reference():
    rng = np.random.default_rng(1)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 4, "ta", target=1)
    assert art.size_report.units == Fraction(1)
    lam = np.float32(1.5)
    rebuilt = reconstruct_task(art, 0)
    for name in part.tensor_to_block:
        acc = np.zeros(pre.tensors[name].shape, dtype=np.float64)
        for ft in tasks:  # ascending task order, float64 accumulator
            acc += ft.tensors[name].astype(np.float32) - pre.tensors[name]
        want = pre.tensors[name] + lam * (acc / len(tasks)).astype(np.float32)
        np.testing.assert_array_equal(rebuilt.tensors[name], want)


def test_full_average_merge_shared_by_all_tasks():
    rng = np.random.default_rng(2)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, "average", target=1)
    a = reconstruct_task(art, 0)
    b = reconstruct_task(art, 2)
    for name in part.tensor_to_block:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    assert not a.tensors["head.w"].tobytes() == b.tensors["head.w"].tobytes() or (
        tasks[0].tensors["head.w"].tobytes() == tasks[2].tensors["head.w"].tobytes()
    )


def test_emr_masked_reconstruction_matches_formula():
    rng = np.random.default_rng(3)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 4, "emr", target=0)
    for block in part.blocks:
        b = block.block_id
        gid = art.routing[1][b]
        group = art.groups[gid]
        assert group.payload == "masked"
        idx = group.members.index(1)
        mask = np.unpackbits(group.masks[idx], count=block.dim).astype(bool)
        want = (
            flatten_block(pre, block)
            + group.gammas[idx] * (np.concatenate(group.rows) * mask)
        )
        got = flatten_block(reconstruct_task(art, 1), block)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)


def test_masked_singleton_group_is_dense_and_exact():
    rng = np.random.default_rng(4)
    # stop early enough that some groups stay singletons
    pre, tasks, part, tv, asg, art = _pipeline(rng, 4, "emr", target=3)
    singleton_blocks = [
        b for b in range(part.num_blocks)
        if any(len(g) == 1 for g in asg.block_groups[b])
    ]
    assert singleton_blocks, "fixture should retain singleton groups"
    recon = {k: reconstruct_task(art, k) for k in range(4)}
    for b in singleton_blocks:
        for g in asg.block_groups[b]:
            if len(g) == 1:
                k = g[0]
                block = part.blocks[b]
                np.testing.assert_array_equal(
                    flatten_block(recon[k], block), flatten_block(tasks[k], block)
                )


def test_inplace_restore_bit_exact_power_of_two_gammas():
    rng = np.random.default_rng(5)
    pre, tasks = toy_model(rng, 2, layers=2, width=4)
    # second task's deltas are exactly twice the first's: gammas become
    # exact powers of two and masked products land on the value grid
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    for name in part.tensor_to_block:
        delta = tasks[0].tensors[name] - pre.tensors[name]
        tasks[1].tensors[name] = pre.tensors[name] + 2.0 * delta
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("emr")
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(part, cfg)
    asg = replay_to_size(plan, tv, Fraction(0), sm)
    art = build_artifact(asg, tv, cfg)
    before = {b: buf.tobytes() for b, buf in art.pretrained_blocks.items()}
    for k in (0, 1, 0, 1):
        reconstruct_task(art, k)
    after = {b: buf.tobytes() for b, buf in art.pretrained_blocks.items()}
    assert before == after


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_pretrained_blocks_are_the_sets_read_only_arrays(dtype):
    # an artifact shares the set's pretrained arrays, so neither can write
    # into the other; a float16 model's are the set's own widened copies
    pre, tasks = toy_model(np.random.default_rng(18), 3, layers=1, width=4, dtype=dtype)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm("emr")
    tv = compute_task_vectors(pre, tasks, part)
    assert all(len(block.tensor_names) == 1 for block in part.blocks)
    for block in part.blocks:
        base = tv.pretrained_block(block.block_id)
        assert base is tv.pretrained_block(block.block_id)
        assert base.tobytes() == flatten_block(pre, block).tobytes()
        assert not base.flags.writeable
    asg = replay_to_size(compute_merge_plan(tv), tv, Fraction(0), SizeModel.from_partition(part, cfg))
    art = build_artifact(asg, tv, cfg)
    assert art.pretrained_blocks.keys() == set(range(part.num_blocks))
    for b, arr in art.pretrained_blocks.items():
        assert arr is tv.pretrained_block(b)
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_repeat_reconstruction_bit_identical_non_dyadic_rescalers():
    # off-grid weights: pretrained + masked product rounds in float32, so
    # any write to the shared pretrained buffer would show up in later calls
    rng = np.random.default_rng(15)
    names = [f"layer{i}.w" for i in range(3)]
    pre = Checkpoint(tensors={n: rng.normal(size=64).astype(np.float32) for n in names})
    tasks = [
        Checkpoint(tensors={n: pre.tensors[n] + rng.normal(scale=0.1, size=64).astype(np.float32)
                            for n in names})
        for _ in range(4)
    ]
    part = partition(pre, rules=[])
    cfg = MergerConfig.for_algorithm("emr")
    tv = compute_task_vectors(pre, tasks, part)
    sm = SizeModel.from_partition(part, cfg)
    asg = replay_to_size(compute_merge_plan(tv), tv, Fraction(0), sm)
    art = build_artifact(asg, tv, cfg)
    gammas = np.concatenate([g.gammas for g in art.groups if g.payload == "masked"])
    assert (np.frexp(gammas)[0] != 0.5).any(), "fixture needs non-power-of-two rescalers"
    first = {k: reconstruct_task(art, k) for k in range(4)}
    for k in [0, 3, 1, 2, 1, 0, 3, 2] * 25:
        assert reconstruct_task(art, k).same_tensors(first[k]), f"task {k} drifted"


def test_reuse_shares_payloads_and_matches_fresh_build(tmp_path, monkeypatch):
    # a sweep builds a smaller size from the larger size's payloads where
    # their groups agree, and writes what a fresh build of each size writes
    rng = np.random.default_rng(16)
    pre, tasks = toy_model(rng, 4, layers=2, width=4)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("emr")
    sm = SizeModel.from_partition(part, cfg)
    plan = compute_merge_plan(tv)
    asgs = replay_to_sizes(plan, tv, [Fraction(3), Fraction(0)], sm)
    calls = []

    def counting(cfg, tv, b, members):
        calls.append((b, tuple(sorted(members))))
        return merge_group(cfg, tv, b, members)

    monkeypatch.setattr(artifact_mod, "merge_group", counting)
    dirs = [str(tmp_path / "large"), str(tmp_path / "small")]
    large, small = export_sweep(asgs, dirs, tv, cfg)
    monkeypatch.undo()

    keys = [{(b, g) for b, groups in enumerate(a.block_groups) for g in groups} for a in asgs]
    shared = keys[0] & keys[1]
    assert shared, "fixture should keep some groups from the larger size"
    assert small.reused == len(shared)
    # a shared group is never merged again
    assert len(calls) == len(set(calls)) == large.merged + small.merged
    assert set(calls) == {key for key in keys[0] | keys[1] if len(key[1]) > 1}

    for asg, got in zip(asgs, dirs):
        fresh = build_artifact(asg, tv, cfg)
        want = str(tmp_path / "fresh" / os.path.basename(got))
        export_manifest(fresh, want)
        for name in ("tensors.safetensors", "manifest.json"):
            with open(os.path.join(got, name), "rb") as fa, open(os.path.join(want, name), "rb") as fb:
                assert fa.read() == fb.read(), (got, name)
        loaded = load_artifact(got)
        assert [g.group_id for g in loaded.groups] == list(range(len(fresh.groups)))
        assert loaded.routing == fresh.routing
        assert loaded.pretrained_blocks.keys() == fresh.pretrained_blocks.keys()


def test_config_mismatch_on_trim_state():
    rng = np.random.default_rng(6)
    pre, tasks = toy_model(rng, 3)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("ties")  # expects trim at 0.1
    plan = compute_merge_plan(tv)
    asg = replay_to_size(plan, tv, Fraction(1), SizeModel.from_partition(part, cfg))
    with pytest.raises(ConfigMismatch):
        build_artifact(asg, tv, cfg)


def test_unknown_task():
    rng = np.random.default_rng(7)
    *_, art = _pipeline(rng, 3, "average", target=1)
    with pytest.raises(UnknownTask):
        reconstruct_task(art, 99)


def test_verify_zero_merge_all_exact():
    rng = np.random.default_rng(8)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, "average", target=3)
    report = verify_artifact(art, tasks)
    assert all(l2 == 0.0 for _, _, l2 in report.rows)
    assert report.exact_blocks == 3 * part.num_blocks


def test_verify_full_average_sse_matches_direct_oracle():
    rng = np.random.default_rng(9)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 4, "average", target=1)
    report = verify_artifact(art, tasks)
    want = 0.0
    for b, block in enumerate(part.blocks):
        x = tv.rows(b).astype(np.float64)
        mean = x.mean(axis=0)
        want += float(((x - mean) ** 2).sum())
    assert report.total_sse == pytest.approx(want, rel=1e-5)


def test_storage_identity_masked_family_without_merges():
    rng = np.random.default_rng(10)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, "emr", target=3)
    assert art.size_report.pretrained_bytes == 0
    dense_sm = SizeModel.from_partition(part)
    assert art.size_report.units == dense_sm.size_of(asg.block_groups)


def _group_facts(art):
    return [(g.group_id, g.block_id, g.members, g.payload) for g in art.groups]


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    cases = [(a, 2) for a in ("average", "ta", "ties", "pcb", "emr", "consensus")]
    for algorithm, target in cases + [("emr", 0), ("consensus", 0)]:
        pre, tasks, part, tv, asg, art = _pipeline(rng, 3, algorithm, target=target)
        out = str(tmp_path / f"{algorithm}_{target}")
        export_manifest(art, out)
        back = load_artifact(out)
        assert back.num_tasks == art.num_tasks
        assert back.routing == art.routing
        assert _group_facts(back) == _group_facts(art)
        assert back.size_report == art.size_report
        for k in range(3):
            a = reconstruct_task(art, k)
            b = reconstruct_task(back, k)
            assert a.same_tensors(b)


def test_manifest_completeness():
    rng = np.random.default_rng(12)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 4, "consensus", target=2)
    referenced = set()
    for task in range(4):
        for b in range(part.num_blocks):
            gid = art.routing[task][b]
            assert gid >= 0
            assert task in art.groups[gid].members
            referenced.add(gid)
    assert referenced == {g.group_id for g in art.groups}


def test_size_report_matches_scheduler_size_of():
    rng = np.random.default_rng(13)
    for algorithm in ("average", "ta", "ties", "pcb", "emr", "consensus"):
        pre, tasks, part, tv, asg, art = _pipeline(rng, 4, algorithm, target=2)
        sm = SizeModel.from_partition(part, art.config)
        assert art.size_report.units == sm.size_of(asg.block_groups) == asg.size


def test_reconstruction_preserves_interleaved_tensor_order(tmp_path):
    rng = np.random.default_rng(15)
    from blockmerge import Checkpoint
    from helpers import grid_values as gv

    names = ["enc.w", "clf.head", "dec.w"]  # head sits between mergeable tensors
    pre = Checkpoint(tensors={n: gv(rng, (4,)) for n in names})
    tasks = [
        Checkpoint(tensors={n: (pre.tensors[n] + gv(rng, (4,), -0.5, 0.5)) for n in names})
        for _ in range(2)
    ]
    part = partition(pre, [], exclude=["clf.*"])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("average")
    plan = compute_merge_plan(tv)
    asg = replay_to_size(plan, tv, Fraction(2), SizeModel.from_partition(part, cfg))
    art = build_artifact(asg, tv, cfg)
    rebuilt = reconstruct_task(art, 1)
    assert rebuilt.names == names
    assert rebuilt.same_tensors(tasks[1])
    out = str(tmp_path / "order")
    export_manifest(art, out)
    assert reconstruct_task(load_artifact(out), 1).names == names


def test_float16_pipeline_and_mask_floor():
    rng = np.random.default_rng(17)
    from blockmerge import Checkpoint

    names = [f"m{i}.w" for i in range(4)]
    pre = Checkpoint(tensors={n: rng.normal(size=32).astype(np.float16) for n in names})
    tasks = []
    for _ in range(3):
        tensors = {
            n: (pre.tensors[n].astype(np.float32)
                + rng.normal(scale=0.05, size=32).astype(np.float32)).astype(np.float16)
            for n in names
        }
        tasks.append(Checkpoint(tensors=tensors))
    part = partition(pre, [])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("emr")
    plan = compute_merge_plan(tv)
    sm = SizeModel.from_partition(part, cfg)
    asg = replay_to_size(plan, tv, Fraction(0), sm)
    art = build_artifact(asg, tv, cfg)
    # half the bytes per element doubles the relative mask cost: 2 + M/16
    assert art.size_report.units == Fraction(2) + Fraction(3, 16)
    ckpt = reconstruct_task(art, 0)
    assert all(ckpt.tensors[n].dtype == np.float16 for n in names)
    err = max(
        float(np.abs(ckpt.tensors[n].astype(np.float64)
                     - tasks[0].tensors[n].astype(np.float64)).max())
        for n in names
    )
    assert err < 0.5  # merged, not exact, but in range


def test_hand_built_assignment_accepted():
    rng = np.random.default_rng(14)
    pre, tasks = toy_model(rng, 4, layers=1, width=4)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, tasks, part)
    cfg = MergerConfig.for_algorithm("consensus")
    tv = prepare_task_vectors(tv, cfg)
    groups = tuple([((0, 1), (2, 3))] * part.num_blocks)
    sm = SizeModel.from_partition(part, cfg)
    asg = GroupAssignment(block_groups=list(groups), applied_events=0, size=Fraction(0))
    asg.size = sm.size_of(asg.block_groups)
    art = build_artifact(asg, tv, cfg)
    assert {g.members for g in art.groups} == {(0, 1), (2, 3)}


def _off_grid_model(rng, num_tasks, width=6):
    """Normal-distributed float32 weights: pre + (ft - pre) rounds in float32."""
    names = ["embed.w"] + [f"blocks.{i}.{p}.w" for i in range(2) for p in ("attn", "mlp")] + ["head.w"]
    shape = {n: ((width, width) if ("attn" in n or "mlp" in n) else (width,)) for n in names}
    pre = Checkpoint(tensors={n: rng.normal(size=shape[n]).astype(np.float32) for n in names})
    tasks = [
        Checkpoint(tensors={n: (pre.tensors[n] + rng.normal(scale=0.3, size=shape[n])).astype(np.float32)
                            for n in names})
        for _ in range(num_tasks)
    ]
    return pre, tasks


@pytest.mark.parametrize("algorithm", ["ta", "emr", "pcb"])
def test_size_m_round_trip_is_byte_exact_off_grid(tmp_path, algorithm):
    rng = np.random.default_rng(30)
    pre, tasks = _off_grid_model(rng, 3)
    paths = [tmp_path / f"in{k}.st" for k in range(4)]
    for path, ck in zip(paths, [pre] + tasks):
        write_archive(ck, str(path))
    pre, tasks = read_archive(str(paths[0])), [read_archive(str(p)) for p in paths[1:]]
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
    sm = SizeModel.from_partition(part, cfg)
    asg = replay_to_size(compute_merge_plan(tv), tv, Fraction(3), sm)
    art = build_artifact(asg, tv, cfg)
    # the fixture must be one where pre + (ft - pre) != ft somewhere
    assert any((flatten_block(pre, b) + tv.rows(b.block_id)[k]
                != flatten_block(tasks[k], b)).any() for k in range(3) for b in part.blocks)
    export_manifest(art, str(tmp_path / "art"))
    back = load_artifact(str(tmp_path / "art"))
    for k in range(3):
        out = tmp_path / f"out{k}.st"
        write_archive(reconstruct_task(back, k), str(out))
        assert out.read_bytes() == paths[k + 1].read_bytes(), f"task {k}"


def _artifact_arrays(art):
    arrays = [a for g in art.groups for a in (*g.rows, g.masks, g.gammas) if a is not None]
    arrays += list(art.pretrained_blocks.values())
    arrays += [a for head in art.heads for a in head.values()]
    return arrays


@pytest.mark.parametrize("algorithm,target", [("ta", 3), ("ta", 2), ("emr", 2.5), ("emr", 0)])
def test_reconstruct_outputs_never_alias_artifact_or_inputs(tmp_path, algorithm, target):
    rng = np.random.default_rng(31)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, algorithm, target=target)
    export_manifest(art, str(tmp_path / "art"))
    back = load_artifact(str(tmp_path / "art"))
    assert ("masked" in {g.payload for g in art.groups}) == (algorithm == "emr")
    inputs = [a for ck in tasks + [pre] for a in ck.tensors.values()]
    for source in (art, back):
        held = _artifact_arrays(source) + inputs
        for k in range(3):
            rebuilt = reconstruct_task(source, k)
            for name, out in rebuilt.tensors.items():
                assert not any(np.shares_memory(out, a) for a in held), (name, k)
            # float32 block tensors are slices of one fresh buffer per call
            assert len({id(buffer_owner(rebuilt.tensors[n])) for n in part.tensor_to_block}) == 1


def _multi_tensor_model(rng, num_tasks, width):
    """The default_transformer_rules layout: attn and mlp blocks of several
    tensors, layer norms and the embedding blocks of one."""
    shapes = {"embed.w": (3, width)}
    for i in range(2):
        shapes.update({f"blocks.{i}.attn.{p}": (width, width) for p in "qkvo"})
        shapes.update({f"blocks.{i}.mlp.fc1": (width, 2 * width), f"blocks.{i}.mlp.fc2": (2 * width, width),
                       f"blocks.{i}.ln1.w": (width,), f"blocks.{i}.ln2.w": (width,)})
    shapes["head.w"] = (2, width)
    pre = Checkpoint(tensors={n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()})
    tasks = [Checkpoint(tensors={n: (a + rng.normal(scale=0.3, size=a.shape)).astype(np.float32)
                                 for n, a in pre.tensors.items()}) for _ in range(num_tasks)]
    return pre, tasks


# mask rows of odd byte length (an embedding block of 3 * width entries packs
# into 3 * width / 8 bytes) leave later entries at offsets that are not
# multiples of 4; width 5 gives more of them than width 8
@pytest.mark.parametrize("algorithm,target,width", [("emr", 2.5, 5), ("emr", 2.5, 8), ("ties", 2, 5)])
def test_loaded_float32_payloads_are_views_of_the_archive(tmp_path, monkeypatch, algorithm, target,
                                                         width):
    rng = np.random.default_rng(32)
    pre, tasks = _multi_tensor_model(rng, 3, width)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    assert max(len(b.tensor_names) for b in part.blocks) > 1
    assert min(len(b.tensor_names) for b in part.blocks) == 1
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
    sm = SizeModel.from_partition(part, cfg)
    art = build_artifact(replay_to_size(compute_merge_plan(tv), tv, Fraction(target), sm), tv, cfg)
    kinds = {"emr": {"dense", "masked"}, "ties": {"dense"}}[algorithm]
    assert {g.payload for g in art.groups} == kinds
    export_manifest(art, str(tmp_path / "art"))
    back, archive = _load_keeping_archive(monkeypatch, str(tmp_path / "art"))
    rows = [row for g in back.groups for row in g.rows]
    flats = rows + list(back.pretrained_blocks.values())
    masks = [g.masks for g in back.groups if g.payload == "masked"]
    assert bool(masks) == ("masked" in kinds)
    # every float32 payload row, pretrained block and mask row is a view of
    # the archive's one mapping: nothing is unpacked or copied at load, and
    # a view is aligned exactly when its file offset is
    assert all(f.base is not None for f in flats + masks)
    assert all(buffer_owner(f) is archive.layout.data for f in flats + masks)
    # a group's rows are its rows of the block's stacked entries: its
    # position in the block for the payload, its members' for the masks
    begin = dict(zip(archive.layout.names, archive.layout.offsets.tolist()))
    for block in back.partition.blocks:
        groups = [g for g in back.groups if g.block_id == block.block_id]
        mask_row = 0
        for i, g in enumerate(groups):
            assert [r.shape for r in g.rows] == [(math.prod(shape),) for shape in block.shapes]
            for name, row in zip(block.tensor_names, g.rows):
                assert buffer_offset(row) == begin[f"g.{name}"] + i * row.nbytes
            if g.payload == "masked":
                assert buffer_offset(g.masks) == begin[f"mask.{block.key}"] + mask_row * g.masks.shape[1]
                mask_row += len(g.members)
        if len(block.tensor_names) == 1:  # one flat view of the block
            assert all(len(g.rows) == 1 and g.rows[0].size == block.dim for g in groups)
    assert all(f.flags.aligned == (buffer_offset(f) % f.itemsize == 0) for f in flats + masks)
    assert all(f.flags.aligned for f in flats) == (algorithm != "emr")  # masks skew later blocks
    assert all(h.base is None for head in back.heads for h in head.values())  # heads copied
    for k in range(3):
        assert reconstruct_task(back, k).same_tensors(reconstruct_task(art, k))


def test_a_float16_entry_is_widened_once_per_block(tmp_path, monkeypatch):
    pre, tasks = toy_model(np.random.default_rng(35), 5, layers=1, width=4, dtype=np.float16)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm("emr")
    tv = compute_task_vectors(pre, tasks, part)
    groups = [((0, 1), (2, 3), (4,))] * part.num_blocks
    asg = GroupAssignment(groups, 0, SizeModel.from_partition(part, cfg).size_of(groups))
    art = build_artifact(asg, tv, cfg)
    export_manifest(art, str(tmp_path / "art"))
    back, archive = _load_keeping_archive(monkeypatch, str(tmp_path / "art"))
    for block in back.partition.blocks:
        groups = [g for g in back.groups if g.block_id == block.block_id]
        assert [g.payload for g in groups] == ["masked", "masked", "dense"]
        for t in range(len(block.tensor_names)):
            # one float32 copy of the stacked entry holds every group's row
            owners = {id(buffer_owner(g.rows[t])) for g in groups}
            assert len(owners) == 1
            assert all(g.rows[t].dtype == np.float32 for g in groups)
            assert buffer_owner(groups[0].rows[t]) is not archive.layout.data
        # rescalers are one copy per block; mask rows stay views
        masked = groups[:2]
        assert len({id(buffer_owner(g.gammas)) for g in masked}) == 1
        assert buffer_owner(masked[0].gammas) is not archive.layout.data
        assert all(buffer_owner(g.masks) is archive.layout.data for g in masked)
    for k in range(5):
        assert reconstruct_task(back, k).same_tensors(reconstruct_task(art, k))


def _load_keeping_archive(monkeypatch, out_dir):
    """``load_artifact(out_dir)`` and the archive checkpoint it read."""
    real, seen = artifact_mod.read_archive, []
    monkeypatch.setattr(artifact_mod, "read_archive", lambda path: seen.append(real(path)) or seen[-1])
    back = load_artifact(out_dir)
    (archive,) = seen
    return back, archive


@pytest.mark.parametrize("algorithm", ["ta", "emr"])
def test_a_float32_block_with_an_empty_tensor_inside_loads_without_a_copy(tmp_path, monkeypatch,
                                                                          algorithm):
    # the empty tensor has no place in memory, but each group still has a
    # row of it: an empty view of the archive between its neighbours' rows;
    # under emr the block's pretrained copy is one view of its span
    rng = np.random.default_rng(34)
    width = 6
    shapes = {"embed.w": (3, width), "blocks.0.attn.q": (width, width), "blocks.0.attn.k": (0, width),
              "blocks.0.attn.v": (width, width), "head.w": (2, width)}
    pre = Checkpoint({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()})
    tasks = [Checkpoint({n: (a + rng.normal(scale=0.3, size=a.shape)).astype(np.float32)
                         for n, a in pre.tensors.items()}) for _ in range(3)]
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    (attn,) = [b for b in part.blocks if b.key == "L0.attn"]
    assert attn.tensor_names == ["blocks.0.attn.q", "blocks.0.attn.k", "blocks.0.attn.v"]
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = compute_task_vectors(pre, tasks, part)
    groups = [((0, 1), (2,))] * part.num_blocks
    art = build_artifact(GroupAssignment(groups, 0, SizeModel.from_partition(part, cfg).size_of(groups)),
                         tv, cfg)
    export_manifest(art, str(tmp_path / "art"))
    back, archive = _load_keeping_archive(monkeypatch, str(tmp_path / "art"))
    payloads = [g.rows for g in back.groups if g.block_id == attn.block_id]
    assert len(payloads) > 1
    assert all([r.size for r in rows] == [width * width, 0, width * width] for rows in payloads)
    assert all(r.base is not None and buffer_owner(r) is archive.layout.data
               for rows in payloads for r in rows)
    if algorithm == "emr":
        base = back.pretrained_blocks[attn.block_id]
        assert buffer_owner(base) is archive.layout.data and base.dtype == np.float32
        assert buffer_offset(base) == dict(zip(archive.layout.names,
                                               archive.layout.offsets.tolist()))["pre.blocks.0.attn.q"]
        np.testing.assert_array_equal(base, flatten_block(pre, attn))
    else:
        assert not back.pretrained_blocks
    for k in range(3):
        assert reconstruct_task(back, k).same_tensors(reconstruct_task(art, k))


@pytest.fixture(scope="module")
def exported_emr(tmp_path_factory):
    rng = np.random.default_rng(33)
    *_, art = _pipeline(rng, 3, "emr", target=2.5)
    out = tmp_path_factory.mktemp("art")
    export_manifest(art, str(out))
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return str(out), json.load(fh)


def _json_paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_JUNK = [None, True, -1, 0, 1, 2, 10**12, 0.5, "", "x", "1/0", "L0.attn", [], [0], [[1]], {}, {"0": 0}]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifest_fails_typed_or_reconstructs(tmp_path_factory, exported_emr, data):
    src, manifest = exported_emr
    manifest = json.loads(json.dumps(manifest))
    path = data.draw(st.sampled_from(list(_json_paths(manifest))))
    delete = bool(path) and data.draw(st.booleans())
    junk = data.draw(st.sampled_from(_JUNK))
    if not path:
        manifest = junk
    else:
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    out = tmp_path_factory.mktemp("mut")
    shutil.copy(os.path.join(src, "tensors.safetensors"), out)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    try:
        art = load_artifact(str(out))
    except MalformedArtifact:
        return
    for k in range(art.num_tasks):
        reconstruct_task(art, k)


def test_manifest_not_json_is_malformed(tmp_path, exported_emr):
    src, _ = exported_emr
    shutil.copy(os.path.join(src, "tensors.safetensors"), tmp_path)
    (tmp_path / "manifest.json").write_bytes(b"\xff{")
    with pytest.raises(MalformedArtifact):
        load_artifact(str(tmp_path))


def test_emr_artifact_missing_a_rescaler_is_malformed(tmp_path, exported_emr):
    # emr stores one rescaler entry per block with masked groups; without it
    # they would rebuild as pretrained + unified * mask, other bytes than
    # exported
    src, manifest = exported_emr
    archive = read_archive(os.path.join(src, "tensors.safetensors"))
    gamma = next(name for name in archive.tensors if name.startswith("gamma."))
    assert gamma[len("gamma."):] in manifest["groups"]
    del archive.tensors[gamma]
    write_archive(archive, str(tmp_path / "tensors.safetensors"))
    shutil.copy(os.path.join(src, "manifest.json"), tmp_path)
    with pytest.raises(MalformedArtifact):
        load_artifact(str(tmp_path))


@pytest.fixture(scope="module")
def exported_f16(tmp_path_factory):
    pre, tasks = toy_model(np.random.default_rng(38), 3, layers=1, width=4, dtype=np.float16)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm("emr")
    groups = [((0, 1), (2,))] * part.num_blocks
    asg = GroupAssignment(groups, 0, SizeModel.from_partition(part, cfg).size_of(groups))
    out = tmp_path_factory.mktemp("f16")
    export_manifest(build_artifact(asg, compute_task_vectors(pre, tasks, part), cfg), str(out))
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return str(out), json.load(fh)


def _drop_a_head(manifest, tensors):
    assert manifest["excluded"]["1"] == ["head.w"]
    manifest["excluded"]["1"] = []


def _add_an_entry(manifest, tensors):
    tensors["extra"] = np.zeros(2, np.float32)


def _swap_two_entries(manifest, tensors):
    items = list(tensors.items())
    items[1], items[2] = items[2], items[1]
    tensors.clear()
    tensors.update(items)


def _widen_a_float16_entry(manifest, tensors):
    name = next(n for n in tensors if n.startswith("g."))
    assert tensors[name].dtype == np.float16
    tensors[name] = tensors[name].astype(np.float32)


@pytest.mark.parametrize("source,edit", [
    ("exported_emr", _drop_a_head), ("exported_emr", _add_an_entry),
    ("exported_emr", _swap_two_entries), ("exported_f16", _widen_a_float16_entry),
], ids=["head-not-excluded", "extra-entry", "entries-swapped", "f32-entry-for-f16-block"])
def test_an_archive_that_disagrees_with_its_manifest_is_malformed(tmp_path, capsys, request, source,
                                                                 edit):
    src, manifest = request.getfixturevalue(source)
    manifest = json.loads(json.dumps(manifest))
    tensors = dict(read_archive(os.path.join(src, "tensors.safetensors")).tensors)
    edit(manifest, tensors)
    write_archive(Checkpoint(tensors), str(tmp_path / "tensors.safetensors"))
    with open(tmp_path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(MalformedArtifact, match="archive entries disagree with the manifest"):
        load_artifact(str(tmp_path))
    assert main(["reconstruct", "--artifact", str(tmp_path), "--task", "0",
                 "--out", str(tmp_path / "task0.st")]) == 3
    err = capsys.readouterr().err
    assert "archive entries disagree with the manifest" in err and "Traceback" not in err
    assert not (tmp_path / "task0.st").exists()


def _with_manifest(tmp_path, src, manifest) -> str:
    shutil.copy(os.path.join(src, "tensors.safetensors"), tmp_path)
    with open(tmp_path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return str(tmp_path)


@pytest.mark.parametrize("swap", [True, 1.0, "1", -1, 0, None], ids=repr)
def test_member_lists_hold_json_ints_of_every_task_once(tmp_path, exported_emr, swap):
    # task 1 of one block replaced: true and 1.0 equal 1 in Python, so only
    # their type tells them apart
    src, manifest = exported_emr
    edited = json.loads(json.dumps(manifest))
    key = min(edited["groups"])
    group = next(g for g in edited["groups"][key] if 1 in g)
    group[group.index(1)] = swap
    with pytest.raises(MalformedArtifact, match=f"block {key!r} groups must hold every task"):
        load_artifact(_with_manifest(tmp_path, src, edited))


def test_written_size_report_is_derived_not_read(tmp_path, exported_emr):
    src, manifest = exported_emr
    edited = json.loads(json.dumps(manifest))
    edited["size_report"] = {"units": "1/0", "dense_bytes": -1}
    back = load_artifact(_with_manifest(tmp_path, src, edited))
    assert back.size_report == load_artifact(src).size_report
    assert back.size_report.as_dict() == manifest["size_report"]


def test_block_nbytes_disagreeing_with_shapes_is_malformed(tmp_path, exported_emr):
    src, manifest = exported_emr
    edited = json.loads(json.dumps(manifest))
    edited["blocks"][0]["nbytes"] += 2
    with pytest.raises(MalformedArtifact):
        load_artifact(_with_manifest(tmp_path, src, edited))


@pytest.mark.parametrize("algorithm", ["emr", "consensus"])
def test_export_writes_one_packed_mask_entry_per_masked_block(tmp_path, algorithm):
    rng = np.random.default_rng(34)
    pre, tasks, part, tv, asg, art = _pipeline(rng, 3, algorithm, target=0, width=5)
    export_manifest(art, str(tmp_path))
    archive = read_archive(str(tmp_path / "tensors.safetensors"))
    masked = [g for g in art.groups if g.payload == "masked"]
    assert masked
    assert sorted(n for n in archive.tensors if n.startswith("mask.")) == sorted(
        {f"mask.{part.blocks[g.block_id].key}" for g in masked})
    for block in part.blocks:
        groups = [g for g in masked if g.block_id == block.block_id]
        want = np.concatenate([merge_group(art.config, tv, g.block_id, g.members).masks
                               for g in groups])
        packed = archive.tensors[f"mask.{block.key}"]
        assert packed.dtype == np.uint8 and packed.shape == (len(want), (block.dim + 7) // 8)
        np.testing.assert_array_equal(np.unpackbits(packed, axis=1, count=block.dim).astype(bool), want)
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["version"] == MANIFEST_VERSION == 4


@pytest.mark.parametrize("algorithm", ["emr", "consensus", "ta"])
def test_archive_entries_do_not_grow_with_the_group_count(tmp_path, algorithm):
    # pre + sum over blocks of (tensors + mask + gamma) + heads, at every size
    rng = np.random.default_rng(36)
    pre, tasks = _multi_tensor_model(rng, 4, 4)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
    sizes = [Fraction(4), Fraction(3), Fraction(2), Fraction(0)]
    asgs = replay_to_sizes(compute_merge_plan(tv), tv, sizes, SizeModel.from_partition(part, cfg))
    dirs = [str(tmp_path / f"size_{i}") for i in range(len(sizes))]
    export_sweep(asgs, dirs, tv, cfg)
    tensors = sum(len(b.tensor_names) for b in part.blocks)
    heads = 4 * len(part.excluded)
    assert heads
    counts = []
    for asg, out in zip(asgs, dirs):
        masked = [b for b, groups in zip(part.blocks, asg.block_groups)
                  if cfg.masked and any(len(g) > 1 for g in groups)]
        pre_entries = sum(len(b.tensor_names) for b in masked)
        per_block = len(masked) * (1 + cfg.has_rescalers)
        names = read_archive(os.path.join(out, "tensors.safetensors")).names
        assert len(names) == pre_entries + tensors + per_block + heads
        assert sum(n.startswith("g.") for n in names) == tensors
        counts.append(len(names))
        back = load_artifact(out)
        assert len(back.groups) == sum(map(len, asg.block_groups))
    assert len({sum(map(len, a.block_groups)) for a in asgs}) >= 3  # group counts differ
    if not cfg.masked:
        assert len(set(counts)) == 1


@pytest.mark.parametrize("field,value", [("keep_ratio", 0), ("keep_ratio", -1), ("keep_ratio", 1.5),
                                         ("lam", float("nan")), ("lam", float("inf"))])
def test_a_pcb_manifest_with_an_out_of_range_setting_is_malformed(tmp_path, field, value):
    rng = np.random.default_rng(37)
    *_, art = _pipeline(rng, 3, "pcb", target=2)
    src = str(tmp_path / "src")
    export_manifest(art, src)
    with open(os.path.join(src, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"][field] = value
    with pytest.raises(MalformedArtifact, match=field):
        load_artifact(_with_manifest(tmp_path, src, manifest))
