"""Command-line surface: pipeline, exit codes, determinism."""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockmerge import Checkpoint, read_archive, write_archive
from blockmerge.cli import RunConfig, _write_similarity_csvs, main, plan_fingerprint
from blockmerge.mergers import MergerConfig, expected_trim_ratio
from blockmerge.similarity import SimilarityMatrix

from helpers import BOOLEAN_ENTRIES, toy_model, write_boolean_header, write_unpadded
from oracles import write_similarity_csvs_reference

RULES = {
    "rules": [
        {"pattern": "blocks.{L}.attn.*", "block_key": "L{L}.attn"},
        {"pattern": "blocks.{L}.mlp.*", "block_key": "L{L}.mlp"},
        {"pattern": "blocks.{L}.ln1.*", "block_key": "L{L}.ln1"},
        {"pattern": "blocks.{L}.ln2.*", "block_key": "L{L}.ln2"},
    ],
    "exclude": ["head.*"],
}


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(21)
    pre, tasks = toy_model(rng, num_tasks=4, layers=2, width=4)
    paths = {"pretrained": str(tmp_path / "pre.safetensors")}
    write_archive(pre, paths["pretrained"])
    paths["finetuned"] = []
    for k, ck in enumerate(tasks):
        p = str(tmp_path / f"task{k}.safetensors")
        write_archive(ck, p)
        paths["finetuned"].append(p)
    rules_path = str(tmp_path / "rules.json")
    with open(rules_path, "w") as fh:
        json.dump(RULES, fh)
    paths["rules"] = rules_path
    paths["tmp"] = tmp_path
    return paths


def _base_args(ws, extra):
    args = ["--pretrained", ws["pretrained"]]
    for p in ws["finetuned"]:
        args += ["--finetuned", p]
    args += ["--rules", ws["rules"]]
    return args + extra


def _run_watched(argv) -> tuple[int, int, list]:
    """``main(argv)``'s exit code, the threads it left alive beyond those
    before it, and the ResourceWarnings (unclosed files) it raised."""
    before = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
        extra = threading.active_count() - before  # counted at once: joined, not exiting
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    return code, extra, leaks


def test_plan_merge_reconstruct_inspect(workspace):
    ws = workspace
    plan_dir = str(ws["tmp"] / "plan")
    assert main(["plan"] + _base_args(ws, ["--algorithm", "ta", "--out", plan_dir])) == 0
    assert os.path.exists(os.path.join(plan_dir, "plan.jsonl"))
    assert os.path.exists(os.path.join(plan_dir, "plan_meta.json"))
    sim_files = os.listdir(os.path.join(plan_dir, "similarity"))
    assert len(sim_files) == 9  # 2 layers x 4 module blocks + embed singleton

    out_dir = str(ws["tmp"] / "merged")
    code = main(
        ["merge"]
        + _base_args(
            ws,
            ["--algorithm", "ta", "--plan", os.path.join(plan_dir, "plan.jsonl"),
             "--sizes", "1,2.5,4", "--out", out_dir],
        )
    )
    assert code == 0
    assert sorted(os.listdir(out_dir)) == ["size_1", "size_2.5", "size_4"]

    recon_path = str(ws["tmp"] / "task1.rebuilt.safetensors")
    assert main(["reconstruct", "--artifact", os.path.join(out_dir, "size_4"),
                 "--task", "1", "--out", recon_path]) == 0
    original = read_archive(ws["finetuned"][1])
    assert read_archive(recon_path).same_tensors(original)

    reports = str(ws["tmp"] / "reports")
    assert main(["inspect", "--input", os.path.join(out_dir, "size_1"), "--out", reports]) == 0
    rows = Path(reports, "clusters_per_block.csv").read_text().strip().splitlines()
    assert all(line.rsplit(",", 1)[1] == "1" for line in rows[1:])
    assert main(["inspect", "--input", os.path.join(out_dir, "size_4"), "--out", reports]) == 0
    rows = Path(reports, "clusters_per_block.csv").read_text().strip().splitlines()
    assert all(line.rsplit(",", 1)[1] == "4" for line in rows[1:])
    assert main(["inspect", "--input", plan_dir, "--out", reports]) == 0
    assert os.path.exists(os.path.join(reports, "selection_timestep.csv"))


def test_inspect_partial_artifact_varies_cluster_counts(workspace):
    ws = workspace
    out_dir = str(ws["tmp"] / "partial")
    assert main(["merge"] + _base_args(ws, ["--algorithm", "ta", "--sizes", "2.5",
                                            "--out", out_dir])) == 0
    reports = str(ws["tmp"] / "reports_partial")
    assert main(["inspect", "--input", os.path.join(out_dir, "size_2.5"),
                 "--out", reports]) == 0
    rows = Path(reports, "clusters_per_block.csv").read_text().strip().splitlines()
    counts = [int(line.rsplit(",", 1)[1]) for line in rows[1:]]
    assert all(1 <= c <= 4 for c in counts)
    assert len(set(counts)) > 1  # unlike fixed-K clustering, counts differ per block


def test_exit_code_alignment(workspace, tmp_path):
    ws = workspace
    bad = str(tmp_path / "bad.safetensors")
    write_archive(Checkpoint(tensors={"something": np.zeros(3, dtype=np.float32)}), bad)
    args = ["plan", "--pretrained", ws["pretrained"], "--finetuned", bad,
            "--rules", ws["rules"], "--out", str(tmp_path / "p")]
    assert main(args) == 2


def test_exit_code_parse(workspace, tmp_path):
    ws = workspace
    bad_rules = str(tmp_path / "bad.json")
    Path(bad_rules).write_text("{not json")
    args = ["plan"] + _base_args(ws, ["--out", str(tmp_path / "p")])
    args[args.index("--rules") + 1] = bad_rules
    assert main(args) == 3
    # usage errors are parse failures too, not alignment failures
    assert main(["plan", "--out", "x"]) == 3
    # so are missing input files
    args = ["plan"] + _base_args(ws, ["--out", str(tmp_path / "p2")])
    args[args.index("--pretrained") + 1] = str(tmp_path / "nope.st")
    assert main(args) == 3


@pytest.mark.parametrize("kind", sorted(BOOLEAN_ENTRIES))
def test_boolean_dims_and_offsets_exit_parse(workspace, tmp_path, capsys, kind):
    bad = str(tmp_path / "bool.st")
    write_boolean_header(bad, kind)
    args = ["plan"] + _base_args(workspace, ["--out", str(tmp_path / "p")])
    args[args.index("--pretrained") + 1] = bad
    assert main(args) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("rules", [
    [],
    {"rules": {"pattern": "blocks.*", "block_key": "b"}},
    {"rules": [{"pattern": 1, "block_key": "b"}]},
    {"exclude": "head.*"},
    {"merger": []},
    {"merger": {"foo": 1}},
    {"merger": {"pcb_intra_temp": 1.0}},
    {"merger": {"lam": "1.5"}},
    {"merger": {"keep_ratio": True}},
    # name patterns that do not compile
    {"rules": [{"pattern": "re:blocks.(", "block_key": "b"}]},
    {"rules": [{"pattern": "blocks.{L}.{L}", "block_key": "b"}]},
    {"exclude": ["re:["]},
])
def test_rules_file_mistakes_are_config_errors(workspace, tmp_path, capsys, rules):
    bad_rules = str(tmp_path / "bad.json")
    with open(bad_rules, "w") as fh:
        json.dump(rules, fh)
    args = ["plan"] + _base_args(workspace, ["--out", str(tmp_path / "p")])
    args[args.index("--rules") + 1] = bad_rules
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("algorithm", ["ties", "consensus"])
def test_a_tiny_keep_ratio_trims_to_one_entry_per_task(workspace, capsys, algorithm):
    # ceil(1e-9 * D) is 1: the trim keeps each task's largest magnitude
    out = workspace["tmp"] / "tiny"
    args = _base_args(workspace, ["--algorithm", algorithm, "--keep-ratio", "1e-9"])
    assert main(["plan", *args, "--out", str(out / "plan")]) == 0, capsys.readouterr().err
    assert main(["merge", *args, "--plan", str(out / "plan" / "plan.jsonl"), "--sizes", "1,4",
                 "--out", str(out / "merge")]) == 0, capsys.readouterr().err


def test_exit_code_fingerprint(workspace):
    ws = workspace
    plan_dir = _planned(ws)
    out_dir = ws["tmp"] / "m"

    def merge(*extra):
        return _run_watched(["merge"] + _base_args(ws, [
            "--algorithm", "ta", *extra, "--plan", os.path.join(plan_dir, "plan.jsonl"),
            "--sizes", "1,2", "--out", str(out_dir)]))

    # a different strategy changes the fingerprint
    assert merge("--strategy", "max") == (4, 0, [])
    # so does one value of one task's input
    task = read_archive(ws["finetuned"][0])
    changed = {name: np.array(arr) for name, arr in task.tensors.items()}
    next(iter(changed.values())).reshape(-1)[0] += 1
    write_archive(Checkpoint(changed), ws["finetuned"][0])
    assert merge() == (4, 0, [])
    assert not out_dir.exists()  # the check comes before any output


def test_exit_code_unknown_task(workspace):
    ws = workspace
    out_dir = str(ws["tmp"] / "merged")
    assert main(["merge"] + _base_args(ws, ["--algorithm", "average", "--sizes", "4",
                                            "--out", out_dir])) == 0
    code = main(["reconstruct", "--artifact", os.path.join(out_dir, "size_4"),
                 "--task", "99", "--out", str(ws["tmp"] / "x.st")])
    assert code == 5


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for f in sorted(filenames):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_end_to_end_determinism(workspace):
    ws = workspace
    trees = []
    for run in ("a", "b"):
        plan_dir = str(ws["tmp"] / f"plan_{run}")
        out_dir = str(ws["tmp"] / f"merged_{run}")
        assert main(["plan"] + _base_args(ws, ["--algorithm", "emr", "--seed", "3",
                                               "--out", plan_dir])) == 0
        assert main(["merge"] + _base_args(
            ws, ["--algorithm", "emr", "--seed", "3",
                 "--plan", os.path.join(plan_dir, "plan.jsonl"),
                 "--sizes", "2.5,3", "--out", out_dir])) == 0
        trees.append((_tree_bytes(plan_dir), _tree_bytes(out_dir)))
    assert trees[0] == trees[1]


def test_sweep_matches_single_target(workspace):
    ws = workspace
    sweep = str(ws["tmp"] / "sweep")
    single = str(ws["tmp"] / "single")
    base = _base_args(ws, [])
    assert main(["merge"] + base + ["--algorithm", "ties", "--sizes", "1,2,3", "--out", sweep]) == 0
    assert main(["merge"] + base + ["--algorithm", "ties", "--sizes", "2", "--out", single]) == 0
    a = _tree_bytes(os.path.join(sweep, "size_2"))
    b = _tree_bytes(os.path.join(single, "size_2"))
    assert a == b
    # stored bytes shrink as the target shrinks (dense family)
    stored = [
        os.path.getsize(os.path.join(sweep, f"size_{t}", "tensors.safetensors"))
        for t in (1, 2, 3)
    ]
    assert stored[0] < stored[1] < stored[2]
    assert os.path.exists(os.path.join(sweep, "size_2", "groups.json"))


def test_merge_with_plan_hashes_inputs_once(workspace, monkeypatch):
    import blockmerge.cli as cli

    ws = workspace
    plan_dir = str(ws["tmp"] / "plan")
    assert main(["plan"] + _base_args(ws, ["--algorithm", "ta", "--out", plan_dir])) == 0
    calls = []
    original = cli.plan_fingerprint

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(cli, "plan_fingerprint", counting)
    assert main(["merge"] + _base_args(
        ws, ["--algorithm", "ta", "--plan", os.path.join(plan_dir, "plan.jsonl"),
             "--sizes", "1,2.5,4", "--out", str(ws["tmp"] / "m")])) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("algorithm", ["emr", "consensus", "ta"])
def test_sweep_equals_single_size_runs_and_merges_each_group_once(
        workspace, monkeypatch, algorithm):
    import blockmerge.artifact as artifact_mod

    ws = workspace
    base = _base_args(ws, ["--algorithm", algorithm])
    merged = []
    original = artifact_mod.merge_group

    def counting(cfg, tv, block_id, members):
        merged.append((block_id, tuple(sorted(members))))
        return original(cfg, tv, block_id, members)

    monkeypatch.setattr(artifact_mod, "merge_group", counting)
    sweep = str(ws["tmp"] / "sweep")
    assert main(["merge"] + base + ["--sizes", "3,1.5,2.5,1,3", "--out", sweep]) == 0
    sweep_merges = list(merged)
    assert sorted(os.listdir(sweep)) == ["size_1", "size_1.5", "size_2.5", "size_3"]

    distinct = set()
    for entry in os.listdir(sweep):
        with open(os.path.join(sweep, entry, "groups.json")) as fh:
            for key, groups in json.load(fh).items():
                distinct.update((key, tuple(g)) for g in groups if len(g) > 1)
    assert len(sweep_merges) == len(set(sweep_merges)) == len(distinct)

    for entry in os.listdir(sweep):
        single = str(ws["tmp"] / f"single_{entry}")
        size = entry[len("size_"):]
        assert main(["merge"] + base + ["--sizes", size, "--out", single]) == 0
        assert _tree_bytes(os.path.join(sweep, entry)) == _tree_bytes(os.path.join(single, entry))


def _task_twice(groups):
    key = min(groups)
    groups[key][0].append(groups[key][-1][-1])
    return groups


def _task_left_out(groups):
    key = min(groups)
    groups[key][-1].pop()
    groups[key] = [g for g in groups[key] if g]
    return groups


@pytest.mark.parametrize("field,value", [
    ("groups", []), ("num_tasks", "4"), ("version", 2), ("version", 1),
    pytest.param("groups", _task_twice, id="groups-task-twice"),
    pytest.param("groups", _task_left_out, id="groups-task-left-out"),
])
def test_malformed_manifest_exits_parse(workspace, field, value):
    ws = workspace
    out_dir = str(ws["tmp"] / "merged")
    assert main(["merge"] + _base_args(ws, ["--algorithm", "emr", "--sizes", "2",
                                            "--out", out_dir])) == 0
    art_dir = os.path.join(out_dir, "size_2")
    manifest_path = os.path.join(art_dir, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest[field] = value(manifest[field]) if callable(value) else value
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    assert main(["reconstruct", "--artifact", art_dir, "--task", "0",
                 "--out", str(ws["tmp"] / "x.st")]) == 3
    assert main(["inspect", "--input", art_dir, "--out", str(ws["tmp"] / "report")]) == 3


def _planned(ws):
    plan_dir = str(ws["tmp"] / "plan")
    assert main(["plan"] + _base_args(ws, ["--algorithm", "ta", "--out", plan_dir])) == 0
    return plan_dir


def _merge_and_inspect(ws, plan_dir):
    merge = main(["merge"] + _base_args(ws, ["--algorithm", "ta", "--sizes", "2",
                                             "--plan", os.path.join(plan_dir, "plan.jsonl"),
                                             "--out", str(ws["tmp"] / "m")]))
    inspect = main(["inspect", "--input", plan_dir, "--out", str(ws["tmp"] / "report")])
    return merge, inspect


@pytest.mark.parametrize("field,value", [("left", 5), ("block", None), ("block", 1000000),
                                         ("right", [99])])
def test_malformed_plan_exits_parse(workspace, field, value):
    plan_dir = _planned(workspace)
    path = os.path.join(plan_dir, "plan.jsonl")
    with open(path) as fh:
        events = [json.loads(line) for line in fh]
    events[0][field] = value
    with open(path, "w") as fh:
        fh.writelines(json.dumps(e) + "\n" for e in events)
    assert _merge_and_inspect(workspace, plan_dir) == (3, 3)


@pytest.mark.parametrize("field,value", [("num_tasks", "4"), ("block_keys", None),
                                         ("strategy", "median"), ("seed", 0.5), (None, [])])
def test_malformed_plan_meta_exits_parse(workspace, field, value):
    plan_dir = _planned(workspace)
    path = os.path.join(plan_dir, "plan_meta.json")
    with open(path) as fh:
        meta = json.load(fh)
    if field is None:
        meta = value
    else:
        meta[field] = value
    with open(path, "w") as fh:
        json.dump(meta, fh)
    assert _merge_and_inspect(workspace, plan_dir) == (3, 3)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 8 tasks x 192^2-element blocks: the similarity products are large
    # enough for OpenBLAS to split them over threads when it may
    pre, tasks = toy_model(np.random.default_rng(23), num_tasks=8, layers=2, width=192)
    write_archive(pre, str(tmp_path / "pre.st"))
    args = ["--pretrained", str(tmp_path / "pre.st"), "--rules", str(tmp_path / "rules.json"),
            "--algorithm", "emr", "--strategy", "unified"]
    for k, ck in enumerate(tasks):
        write_archive(ck, str(tmp_path / f"task{k}.st"))
        args += ["--finetuned", str(tmp_path / f"task{k}.st")]
    (tmp_path / "rules.json").write_text(json.dumps(RULES))
    src = str(Path(__file__).resolve().parent.parent / "src")
    run_cli = "import sys; from blockmerge.cli import main; sys.exit(main(sys.argv[1:]))"
    trees = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        plan_dir, out_dir = tmp_path / f"plan_{threads}", tmp_path / f"merged_{threads}"
        for argv in (["plan", *args, "--out", str(plan_dir)],
                     ["merge", *args, "--plan", str(plan_dir / "plan.jsonl"),
                      "--sizes", "4,6.5", "--out", str(out_dir)]):
            proc = subprocess.run([sys.executable, "-c", run_cli, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
        trees.append((_tree_bytes(plan_dir), _tree_bytes(out_dir)))
    assert sorted(trees[0][1]) == [f"size_{t}/{f}" for t in ("4", "6.5")
                                   for f in ("groups.json", "manifest.json", "tensors.safetensors")]
    assert trees[0] == trees[1]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_plan_fingerprint_is_the_sha256_of_every_input(tmp_path):
    rng = np.random.default_rng(5)
    mapped, skewed, empty, exact = (str(tmp_path / f"{n}.st") for n in ("mapped", "skewed", "empty", "exact"))
    # several reads of the 256 KiB buffer, the last one short
    write_archive(Checkpoint({"w": rng.normal(size=(3, 40_001)).astype(np.float32)}), mapped)
    write_unpadded(Checkpoint({"a": rng.normal(size=5).astype(np.float32)}), skewed)
    write_archive(Checkpoint({"e": np.zeros(0, np.float32)}), empty)
    Path(exact).write_bytes(rng.bytes(2 << 18))  # a whole number of reads
    assert read_archive(mapped).layout is not None
    skewed_ck = read_archive(skewed)  # mapped too, an unaligned view
    assert skewed_ck.layout is not None and not skewed_ck.tensors["a"].flags.aligned
    header = int.from_bytes(Path(empty).read_bytes()[:8], "little")
    assert os.path.getsize(empty) == 8 + header  # no data bytes at all

    cfg = MergerConfig.for_algorithm("ties")
    config = RunConfig(pretrained=mapped, finetuned=[skewed, empty, exact, mapped], rules=[],
                       exclude=[], rules_text='{"rules": []}', merger=cfg, strategy="max",
                       order_policy="random", seed=3, sizes=[], out=str(tmp_path / "unused"))
    want = json.dumps({"pretrained": _sha256(mapped),
                       "finetuned": [_sha256(p) for p in (skewed, empty, exact, mapped)],
                       "rules": '{"rules": []}', "trim_ratio": expected_trim_ratio(cfg),
                       "strategy": "max", "order": "random", "seed": 3}, sort_keys=True)
    assert plan_fingerprint(config) == hashlib.sha256(want.encode()).hexdigest()


def test_plan_and_merge_hash_through_the_module_global_on_a_helper_thread(workspace, monkeypatch):
    import blockmerge.cli as cli

    ws = workspace
    threads = []

    def fake(config):
        threads.append(threading.current_thread())
        return "fp-test"

    monkeypatch.setattr(cli, "plan_fingerprint", fake)
    plan_dir = str(ws["tmp"] / "plan")
    assert main(["plan"] + _base_args(ws, ["--out", plan_dir])) == 0
    assert json.loads(Path(plan_dir, "plan_meta.json").read_text())["fingerprint"] == "fp-test"
    out_dir = ws["tmp"] / "m"
    assert main(["merge"] + _base_args(ws, ["--sizes", "2", "--out", str(out_dir)])) == 0
    assert json.loads((out_dir / "size_2" / "manifest.json").read_text())["fingerprint"] == "fp-test"
    assert main(["merge"] + _base_args(ws, ["--plan", os.path.join(plan_dir, "plan.jsonl"),
                                            "--sizes", "2", "--out", str(out_dir)])) == 0
    assert len(threads) == 3 and threading.main_thread() not in threads


@pytest.mark.parametrize("command", ["plan", "merge"])
@pytest.mark.parametrize("failure,code", [("misaligned", 2), ("missing", 3)])
def test_early_failures_leave_no_thread_or_open_file(workspace, tmp_path, monkeypatch,
                                                    command, failure, code):
    import blockmerge.cli as cli

    original = cli.plan_fingerprint

    def slow(config):  # still hashing when the pipeline fails
        time.sleep(0.1)
        return original(config)

    monkeypatch.setattr(cli, "plan_fingerprint", slow)
    ws = workspace
    bad = str(tmp_path / "bad.safetensors")
    if failure == "misaligned":
        write_archive(Checkpoint(tensors={"something": np.zeros(3, dtype=np.float32)}), bad)
    args = [command] + _base_args(ws, ["--finetuned", bad, "--out", str(tmp_path / "out")])
    if command == "merge":
        args += ["--sizes", "2"]
    assert _run_watched(args) == (code, 0, [])
    assert not os.path.exists(tmp_path / "out")


def test_plan_meta_is_written_last(workspace):
    # a plan run that fails while writing leaves no plan_meta.json, not the
    # previous run's, so merge --plan refuses the directory
    ws = workspace
    plan_dir = _planned(ws)
    sim_dir = os.path.join(plan_dir, "similarity")
    shutil.rmtree(sim_dir)
    Path(sim_dir).write_text("")  # the CSVs cannot be written
    assert main(["plan"] + _base_args(ws, ["--algorithm", "ta", "--out", plan_dir])) == 3
    assert not os.path.exists(os.path.join(plan_dir, "plan_meta.json"))
    merge, _ = _merge_and_inspect(ws, plan_dir)
    assert merge == 3


# the workspace has 4 fine-tuned inputs, so a target lies in (0, 4]
@pytest.mark.parametrize("sizes,bad", [("1/0", "1/0"), ("abc", "abc"), ("nan", "nan"),
                                       ("2, 1/0", "1/0"), ("-1", "-1"), ("0", "0"), ("2, 0/3", "0/3"),
                                       ("4.5", "4.5"), ("1e400", "1e400"), ("4, 9/2", "9/2")])
def test_bad_sizes_are_config_errors(workspace, capsys, sizes, bad):
    out = workspace["tmp"] / "m"
    args = ["merge"] + _base_args(workspace, ["--sizes", sizes, "--out", str(out)])
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "config error" in err and repr(bad) in err and "Traceback" not in err
    assert not out.exists()


def test_similarity_csvs_match_the_csv_writer_reference(tmp_path):
    rng = np.random.default_rng(8)
    specials = np.array([0.5, np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, -3e-39,
                         np.finfo(np.float32).max, 1 / 3], np.float32)
    matrices = []
    for b, m in enumerate((1, 2, 5, len(specials))):
        values = rng.normal(size=(m, m)).astype(np.float32)
        if m == len(specials):
            values[0] = values[:, 0] = specials
        np.fill_diagonal(values, 1.0)
        matrices.append(SimilarityMatrix(block_id=b, values=values))
    keys = ["embed", "L0.attn/w", "ln 1:ä", "head"]
    got, want = tmp_path / "got", tmp_path / "want"
    _write_similarity_csvs(matrices, keys, str(got))
    write_similarity_csvs_reference(matrices, keys, str(want))
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    for name in os.listdir(want):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    # the specials are in the files compared: row and column 0 of the last block
    rows = (got / "block_0003_head.csv").read_bytes().split(b"\r\n")
    assert rows[1] == (b"0,1.0,nan,inf,-inf,-0.0,0.0,1.401298464324817e-45,-3.000000645916e-39,"
                       b"3.4028234663852886e+38,0.3333333432674408")
    assert [r.split(b",")[1] for r in rows[2:6]] == [b"nan", b"inf", b"-inf", b"-0.0"]
