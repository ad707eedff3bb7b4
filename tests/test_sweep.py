"""The streamed size sweep (``export_sweep`` and ``blockmerge merge``)
against the per-size path it replaced, byte for byte; its merge counts; its
crash safety; its input checks; and the compact JSON it writes."""

import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest

import blockmerge.artifact as artifact_mod
import blockmerge.cli as cli_mod
from blockmerge import (
    Checkpoint,
    ConfigMismatch,
    MergerConfig,
    PartitionRule,
    SizeModel,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    export_manifest,
    export_sweep,
    partition,
    prepare_task_vectors,
    read_archive,
    replay_to_sizes,
    write_archive,
    write_assignment_json,
)
from blockmerge.cli import _build_config, _load_pipeline, build_parser, main
from blockmerge.mergers import ALGORITHMS

from helpers import toy_model
from oracles import export_manifest_reference, sweep_reference

M = 4
# layer 0 is one block of four tensors of two shapes; layer 1 is split per module
RULES = [PartitionRule("blocks.0.*", "L0")] + default_transformer_rules()
FILES = ("tensors.safetensors", "manifest.json", "groups.json")


def _setup(algorithm, dtype, heads, seed=31, mapped_in=None):
    """The toy family's set; with ``mapped_in``, a directory, the
    checkpoints are written there and mapped back (read_archive)."""
    pre, tasks = toy_model(np.random.default_rng(seed), M, layers=2, width=4, dtype=dtype,
                           with_head=heads)
    if mapped_in is not None:
        os.makedirs(mapped_in)
        paths = [os.path.join(mapped_in, f"in{k}.st") for k in range(M + 1)]
        for path, ck in zip(paths, [pre] + tasks):
            write_archive(ck, path)
        pre, *tasks = map(read_archive, paths)
    part = partition(pre, RULES, exclude=["head.*"])
    cfg = MergerConfig.for_algorithm(algorithm)
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
    return pre, tasks, part, cfg, tv


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _assert_same_files(got_dirs, want_dirs, names=FILES[:2]):
    for got, want in zip(got_dirs, want_dirs, strict=True):
        for name in names:
            assert _read(os.path.join(got, name)) == _read(os.path.join(want, name)), (got, name)


def _sweep_both(tmp_path, part, cfg, tv, sizes):
    assignments = replay_to_sizes(compute_merge_plan(tv), tv, [Fraction(s) for s in sizes],
                                  SizeModel.from_partition(part, cfg))
    got = [str(tmp_path / "stream" / f"{i}") for i in range(len(sizes))]
    want = [str(tmp_path / "ref" / f"{i}") for i in range(len(sizes))]
    written = export_sweep(assignments, got, tv, cfg, fingerprint="fp")
    sweep_reference(assignments, want, tv, cfg, fingerprint="fp")
    return assignments, got, want, written


@pytest.mark.parametrize("inputs", ["heads", "no_heads", "mapped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sweep_matches_the_per_size_reference_bytes(tmp_path, algorithm, dtype, inputs):
    # fractional and below-floor sizes, largest first as merge passes them;
    # ties/consensus run on trimmed task vectors, the rest untrimmed. Mapped
    # inputs have heads too; the sweep releases their pages block by block
    pre, tasks, part, cfg, tv = _setup(
        algorithm, dtype, heads=inputs != "no_heads",
        mapped_in=str(tmp_path / "inputs") if inputs == "mapped" else None)
    sizes = [M, 2.75, 2, 1.25, 1, 0.5]
    assignments, got, want, written = _sweep_both(tmp_path, part, cfg, tv, sizes)
    _assert_same_files(got, want)
    assert [w.units for w in written] == [a.size for a in assignments]
    # export_manifest writes the in-memory artifact as the reference does too
    for i, asg in enumerate(assignments):
        art = build_artifact(asg, tv, cfg)
        export_manifest(art, str(tmp_path / "one" / f"{i}"))
        export_manifest_reference(art, str(tmp_path / "oneref" / f"{i}"))
    _assert_same_files([str(tmp_path / "one" / f"{i}") for i in range(len(sizes))],
                       [str(tmp_path / "oneref" / f"{i}") for i in range(len(sizes))])


@pytest.mark.parametrize("sizes", [
    [M],  # size M only
    [3, 3, 1],  # duplicates share an assignment
    [0.5, 0, 0.25],  # all below the floor: one fully merged state three times
    [1, 2.5, M],  # smallest first: nothing to reuse, same bytes
])
@pytest.mark.parametrize("algorithm", ["emr", "ties"])
def test_sweep_size_lists(tmp_path, algorithm, sizes):
    pre, tasks, part, cfg, tv = _setup(algorithm, np.float32, heads=True)
    assignments, got, want, written = _sweep_both(tmp_path, part, cfg, tv, sizes)
    _assert_same_files(got, want)
    repeats = 0
    for prev, cur, done in zip(assignments, assignments[1:], written[1:]):
        if cur.block_groups == prev.block_groups:  # a repeated state merges nothing again
            repeats += 1
            assert (done.merged, done.reused) == (0, sum(map(len, cur.block_groups)))
    assert repeats == {3: 1, 0.5: 2}.get(sizes[0], 0)


def _cli_workspace(tmp_path, dtype=np.float32):
    pre, tasks = toy_model(np.random.default_rng(41), M, layers=2, width=4, dtype=dtype)
    argv = ["--pretrained", str(tmp_path / "pre.st")]
    write_archive(pre, str(tmp_path / "pre.st"))
    for k, ck in enumerate(tasks):
        write_archive(ck, str(tmp_path / f"t{k}.st"))
        argv += ["--finetuned", str(tmp_path / f"t{k}.st")]
    rules = {"rules": [{"pattern": r.pattern, "block_key": r.block_key} for r in RULES],
             "exclude": ["head.*"]}
    with open(tmp_path / "rules.json", "w") as fh:
        json.dump(rules, fh)
    return argv + ["--rules", str(tmp_path / "rules.json")]


SWEEP = "4,2.5,2,1.5,1,0.5"


@pytest.mark.parametrize("algorithm,dtype", [("emr", np.float32), ("consensus", np.float16),
                                             ("ta", np.float32)])
def test_merge_command_matches_reference_and_counts_each_merge_once(tmp_path, monkeypatch, capsys,
                                                                    algorithm, dtype):
    base = _cli_workspace(tmp_path, dtype) + ["--algorithm", algorithm]
    calls = []
    real = artifact_mod.merge_group

    def counting(cfg, tv, b, members):
        calls.append((b, tuple(sorted(members))))
        return real(cfg, tv, b, members)

    monkeypatch.setattr(artifact_mod, "merge_group", counting)
    out = tmp_path / "out"
    assert main(["merge", *base, "--sizes", SWEEP, "--out", str(out)]) == 0
    printed = [int(n) for n in re.findall(r"groups merged (\d+)", capsys.readouterr().out)]
    monkeypatch.undo()

    # the reference: the same pipeline, then one artifact per size
    argv = ["merge", *base, "--sizes", SWEEP, "--out", str(out)]
    config = _build_config(build_parser().parse_args(argv))
    tv = _load_pipeline(config)
    targets = sorted(set(config.sizes), reverse=True)
    assignments = replay_to_sizes(compute_merge_plan(tv), tv, targets,
                                  SizeModel.from_partition(tv.partition, config.merger))
    with open(out / "size_4" / "manifest.json") as fh:
        fingerprint = json.load(fh)["fingerprint"]
    want = [str(tmp_path / "ref" / str(t)) for t in targets]
    sweep_reference(assignments, want, tv, config.merger, fingerprint=fingerprint)
    got = [str(out / f"size_{t}") for t in ("4", "2.5", "2", "1.5", "1", "0.5")]
    assert sorted(os.listdir(out)) == sorted(os.path.basename(d) for d in got)
    _assert_same_files(got, want, FILES)
    for d in got:
        assert sorted(os.listdir(d)) == sorted(FILES)

    distinct = {(b, g) for a in assignments for b, groups in enumerate(a.block_groups)
                for g in groups if len(g) > 1}
    assert len(calls) == sum(printed) == len(distinct)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("fail_at", [1, 7])
def test_a_failed_sweep_leaves_no_archive_or_manifest(tmp_path, monkeypatch, capsys, fail_at):
    base = _cli_workspace(tmp_path) + ["--algorithm", "emr"]
    real = artifact_mod.merge_group
    calls = []

    def failing(cfg, tv, b, members):
        calls.append(b)
        if len(calls) == fail_at:
            raise OSError("disk went away")
        return real(cfg, tv, b, members)

    monkeypatch.setattr(artifact_mod, "merge_group", failing)
    out = tmp_path / "out"
    assert main(["merge", *base, "--sizes", SWEEP, "--out", str(out)]) == 3
    assert "disk went away" in capsys.readouterr().err
    assert len(calls) == fail_at
    for entry in os.listdir(out):
        assert os.listdir(out / entry) == [], entry  # not even a partial archive


def test_a_failed_sweep_keeps_the_artifacts_it_would_replace(tmp_path, monkeypatch):
    base = _cli_workspace(tmp_path) + ["--algorithm", "emr"]
    out = tmp_path / "out"
    argv = ["merge", *base, "--sizes", SWEEP, "--out", str(out)]
    assert main(argv) == 0
    before = {(d, f): _read(out / d / f) for d in os.listdir(out) for f in FILES}

    def failing(cfg, tv, b, members):
        raise OSError("disk went away")

    monkeypatch.setattr(artifact_mod, "merge_group", failing)
    assert main(argv) == 3
    assert {(d, f): _read(out / d / f) for d in os.listdir(out) for f in FILES} == before
    assert all(sorted(os.listdir(out / d)) == sorted(FILES) for d in os.listdir(out))


def test_a_failed_groups_write_leaves_no_stale_groups_json(tmp_path, monkeypatch):
    out = tmp_path / "out"
    base = _cli_workspace(tmp_path) + ["--algorithm", "ta", "--sizes", "3,2", "--out", str(out)]
    assert main(["merge", *base, "--strategy", "min"]) == 0
    first = _read(out / "size_2" / "groups.json")
    real = cli_mod.write_assignment_json
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:  # size_3's groups are written, size_2's are not
            raise OSError("disk went away")
        return real(*args)

    monkeypatch.setattr(cli_mod, "write_assignment_json", failing)
    assert main(["merge", *base, "--strategy", "max", "--order", "rtl"]) == 3
    groups = {}
    for d in ("size_3", "size_2"):
        with open(out / d / "manifest.json") as fh:
            groups[d] = json.load(fh)["groups"]
        if (out / d / "groups.json").exists():
            assert json.loads(_read(out / d / "groups.json")) == groups[d], d
    assert json.loads(first) != groups["size_2"]  # the first run's file would be stale


def test_export_manifest_over_a_merge_directory_leaves_no_stale_groups_json(tmp_path):
    out = tmp_path / "out"
    argv = ["merge", *_cli_workspace(tmp_path), "--algorithm", "ta", "--sizes", "2", "--out", str(out)]
    assert main(argv) == 0
    assert sorted(os.listdir(out / "size_2")) == sorted(FILES)
    tv = _load_pipeline(_build_config(build_parser().parse_args(argv)))
    cfg = MergerConfig.for_algorithm("ta")
    [asg] = replay_to_sizes(compute_merge_plan(tv), tv, [Fraction(1)],
                            SizeModel.from_partition(tv.partition, cfg))
    export_manifest(build_artifact(asg, tv, cfg), str(out / "size_2"))
    assert sorted(os.listdir(out / "size_2")) == sorted(FILES[:2])
    with open(out / "size_2" / "manifest.json") as fh:
        groups = json.load(fh)["groups"]
    assert groups == {key: [list(g) for g in block]
                      for key, block in zip(tv.partition.block_keys, asg.block_groups)}


@pytest.mark.parametrize("case", ["trim_state", "block_count", "out_dir_count"])
def test_sweep_checks_its_inputs_before_writing(tmp_path, case):
    pre, tasks, part, cfg, tv = _setup("emr", np.float32, heads=True)
    asg = replay_to_sizes(compute_merge_plan(tv), tv, [Fraction(2)], SizeModel.from_partition(part, cfg))
    expected = ValueError
    if case == "trim_state":
        cfg, expected = MergerConfig.for_algorithm("ties"), ConfigMismatch
    elif case == "block_count":
        asg[0].block_groups = asg[0].block_groups[:-1]
    out_dirs = [str(tmp_path / "out" / "a")] * (2 if case == "out_dir_count" else 1)
    with pytest.raises(expected):
        export_sweep(asg, out_dirs, tv, cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("form", ["same", "trailing_slash", "dot_dot", "symlink"])
def test_sweep_rejects_repeated_output_directories(tmp_path, form):
    # two archives streamed to one .partial file would commit one and lose the other
    pre, tasks, part, cfg, tv = _setup("emr", np.float32, heads=True)
    asgs = replay_to_sizes(compute_merge_plan(tv), tv, [Fraction(3), Fraction(2)],
                           SizeModel.from_partition(part, cfg))
    out = tmp_path / "out"
    a = str(out / "a")
    other = {"same": a, "trailing_slash": a + "/", "dot_dot": str(out / "x" / ".." / "a"),
             "symlink": str(tmp_path / "link")}[form]
    if form == "symlink":
        os.makedirs(a)
        os.symlink(a, other)
    with pytest.raises(ValueError, match="output directories repeat"):
        export_sweep(asgs, [a, other], tv, cfg)
    assert os.listdir(a) == [] if form == "symlink" else not out.exists()


# the compact encoding, pinned: sorted keys, no whitespace, one final newline
TOY_MANIFEST = (
    b'{"algorithm":"ta","blocks":[{"dim":3,"dtypes":["F32"],"key":"a.w","nbytes":12,'
    b'"shapes":[[3]],"tensors":["a.w"]},{"dim":2,"dtypes":["F32"],"key":"b.w","nbytes":8,'
    b'"shapes":[[1,2]],"tensors":["b.w"]}],"config":{"consensus_threshold":0.6,'
    b'"keep_ratio":1.0,"lam":1.5},"excluded":{"0":["head.w"],"1":["head.w"],"2":["head.w"]},'
    b'"fingerprint":"fp","format":"blockmerge-artifact","groups":{"a.w":[[0,2],[1]],'
    b'"b.w":[[0,2],[1]]},"name_order":["a.w","b.w","head.w"],"num_tasks":3,"size_report":'
    b'{"dense_bytes":40,"head_bytes":12,"mask_bytes":0,"pretrained_bytes":0,"scalar_bytes":0,'
    b'"unit_bytes":20,"units":"2/1","units_float":2.0},"version":4}\n'
)
TOY_GROUPS = b'{"a.w":[[0,2],[1]],"b.w":[[0,2],[1]]}\n'


def test_manifest_and_groups_json_are_compact(tmp_path):
    pre = Checkpoint({"a.w": np.array([1.0, 2.0, -0.5], np.float32),
                      "b.w": np.array([[0.25, 4.0]], np.float32),
                      "head.w": np.array([3.0], np.float32)})
    tasks = [Checkpoint({n: (a + d).astype(np.float32) for n, a in pre.tensors.items()})
             for d in (0.5, -0.25, 1.0)]
    part = partition(pre, [], exclude=["head.*"])
    cfg = MergerConfig.for_algorithm("ta")
    tv = compute_task_vectors(pre, tasks, part)
    [asg] = replay_to_sizes(compute_merge_plan(tv), tv, [Fraction(2)], SizeModel.from_partition(part, cfg))
    assert asg.block_groups == [((0, 2), (1,)), ((0, 2), (1,))]
    export_sweep([asg], [str(tmp_path / "sweep")], tv, cfg, fingerprint="fp")
    export_manifest(build_artifact(asg, tv, cfg, fingerprint="fp"), str(tmp_path / "one"))
    for d in ("sweep", "one"):
        assert _read(tmp_path / d / "manifest.json") == TOY_MANIFEST
    write_assignment_json(asg, part.block_keys, str(tmp_path / "groups.json"))
    assert _read(tmp_path / "groups.json") == TOY_GROUPS
