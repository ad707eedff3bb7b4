"""Command-line pipeline: plan, merge, reconstruct, inspect.

Exit codes: 2 alignment failure, 3 config/input parse failure (a malformed
plan or artifact included), 4 plan/config fingerprint mismatch, 5 unknown
task.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import artifact as artifact_mod
from .errors import BlockMergeError, MalformedPlan, UnknownTask
from .mergers import (
    ALGORITHMS,
    CONFIG_NUMBERS,
    MergerConfig,
    expected_trim_ratio,
    prepare_task_vectors,
)
from .scheduler import (
    ORDER_POLICIES,
    MergePlan,
    SizeModel,
    compute_merge_plan,
    read_plan_jsonl,
    replay_to_size,  # noqa: F401  (a call site perfbench/spans.py patches by name)
    replay_to_sizes,
    write_assignment_json,
    write_plan_jsonl,
)
from .similarity import STRATEGIES, pairwise_all
from .task_space import PartitionRule, compute_task_vectors, partition
from .tensor_store import read_archive, validate_aligned, write_archive

EXIT_ALIGNMENT = 2
EXIT_PARSE = 3
EXIT_FINGERPRINT = 4
EXIT_UNKNOWN_TASK = 5

_ORDER_NAMES = {
    "greedy": "greedy",
    "ltr": "left_to_right",
    "rtl": "right_to_left",
    "random": "random",
}

PLAN_FILE = "plan.jsonl"
PLAN_META_FILE = "plan_meta.json"


@dataclass
class RunConfig:
    pretrained: str
    finetuned: list[str]
    rules: list[PartitionRule]
    exclude: list[str]
    rules_text: str  # the rules file as read ("" without one), fingerprinted
    merger: MergerConfig
    strategy: str
    order_policy: str
    seed: int
    sizes: list[Fraction]
    out: str


def _parse_rules_file(path: str | None) -> tuple[str, list[PartitionRule], list[str], dict]:
    """Rules JSON: {"rules": [{"pattern", "block_key"}], "exclude": [...],
    "merger": {"algorithm", <MergerConfig number fields>}}; every section
    optional. Returns the text as read and the parsed sections; raises
    ValueError when a section has the wrong shape."""
    if path is None:
        return "", [], [], {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a rules file is a JSON object")
    rules, exclude, merger = obj.get("rules", []), obj.get("exclude", []), obj.get("merger", {})
    if not (isinstance(rules, list) and all(
            isinstance(r, dict) and isinstance(r.get("pattern"), str)
            and isinstance(r.get("block_key"), str) for r in rules)):
        raise ValueError(f"{path}: rules must be a list of {{pattern, block_key}} strings")
    if not (isinstance(exclude, list) and all(isinstance(p, str) for p in exclude)):
        raise ValueError(f"{path}: exclude must be a list of name patterns")
    if not isinstance(merger, dict) or set(merger) - {"algorithm", *CONFIG_NUMBERS}:
        raise ValueError(f"{path}: merger takes only algorithm and {', '.join(CONFIG_NUMBERS)}")
    for f in CONFIG_NUMBERS:
        if f in merger and type(merger[f]) not in (int, float):
            raise ValueError(f"{path}: merger {f} must be a number, got {merger[f]!r}")
    rules = [PartitionRule(r["pattern"], r["block_key"]) for r in rules]
    return text, rules, exclude, merger


def _build_config(args) -> RunConfig:
    rules_text, rules, exclude, merger_section = _parse_rules_file(args.rules)
    overrides = dict(merger_section)
    overrides.pop("algorithm", None)
    algorithm = args.algorithm or merger_section.get("algorithm", "ta")
    if args.lam is not None:
        overrides["lam"] = args.lam
    if args.keep_ratio is not None:
        overrides["keep_ratio"] = args.keep_ratio
    if args.threshold is not None:
        overrides["consensus_threshold"] = args.threshold
    cfg = MergerConfig.for_algorithm(algorithm, **overrides)
    sizes = []
    for tok in (args.sizes or "").split(","):
        tok = tok.strip()
        if tok:
            try:
                size = Fraction(tok)
            except (ValueError, ZeroDivisionError):  # "abc", "nan", "1/0"
                raise ValueError(f"--sizes: {tok!r} is not a finite fraction or decimal") from None
            if not 0 < size <= len(args.finetuned):
                raise ValueError(f"--sizes: {tok!r} is not above 0 and at most "
                                 f"{len(args.finetuned)}, the number of --finetuned inputs")
            sizes.append(size)
    return RunConfig(
        pretrained=args.pretrained,
        finetuned=list(args.finetuned),
        rules=rules,
        exclude=exclude,
        rules_text=rules_text,
        merger=cfg,
        strategy=args.strategy,
        order_policy=_ORDER_NAMES[args.order],
        seed=args.seed,
        sizes=sizes,
        out=args.out,
    )


def _file_sha(path: str) -> str:
    # into one reused buffer: a new bytes object per read raised the peak
    # RSS. The helper thread takes the GIL twice per read, and a busy main
    # thread hands it over only every switch interval, so reads stay large.
    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    with open(path, "rb", buffering=0) as fh, memoryview(buf) as view:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def plan_fingerprint(config: RunConfig) -> str:
    """Everything the plan depends on: input bytes, rules, trim state,
    strategy, order, seed. The merge coefficient is deliberately excluded;
    it does not affect the schedule. ``plan`` and ``merge`` run it beside
    the pipeline (``_fingerprint_beside``): file reads and hashlib release
    the GIL."""
    payload = json.dumps(
        {
            "pretrained": _file_sha(config.pretrained),
            "finetuned": [_file_sha(p) for p in config.finetuned],
            "rules": config.rules_text,
            "trim_ratio": expected_trim_ratio(config.merger),
            "strategy": config.strategy,
            "order": config.order_policy,
            "seed": config.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@contextlib.contextmanager
def _fingerprint_beside(config: RunConfig):
    """Hash ``plan_fingerprint(config)`` on one helper thread while the
    block runs; yields its future, and on leaving waits for the thread, so
    none outlives the command, whether it succeeds or fails."""
    # imported here, not at the top: reconstruct and inspect start no
    # thread, and the import alone raised their peak RSS by 0.3 MB
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit(plan_fingerprint, config)


def _load_pipeline(config: RunConfig):
    """Read and check the inputs and build their (trimmed) task-vector set,
    the one handle on them from here on."""
    pretrained = read_archive(config.pretrained)
    finetuned = [read_archive(p) for p in config.finetuned]
    report = validate_aligned(pretrained, finetuned, config.exclude)
    if not report.ok:
        for name, kind in report.mismatches[:20]:
            print(f"alignment mismatch: {name} ({kind})", file=sys.stderr)
        raise SystemExit(EXIT_ALIGNMENT)
    part = partition(pretrained, config.rules, config.exclude)
    tv = compute_task_vectors(pretrained, finetuned, part)
    return prepare_task_vectors(tv, config.merger)


def _safe_key(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", key)


def _write_similarity_csvs(matrices, block_keys, out_dir: str) -> None:
    """One CSV per block: a ``task,0,1,...`` header, then row ``i`` as
    ``i`` and the ``repr`` of each float, ``\\r\\n`` line ends (what
    ``csv.writer`` writes for these fields, none of which needs quoting).
    Each file is formatted from one ``tolist`` and written at once."""
    os.makedirs(out_dir, exist_ok=True)
    for mx, key in zip(matrices, block_keys):
        path = os.path.join(out_dir, f"block_{mx.block_id:04d}_{_safe_key(key)}.csv")
        lines = [",".join(["task", *map(str, range(mx.num_tasks))])]
        lines += [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(mx.values.tolist())]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("\r\n".join(lines) + "\r\n")


def cmd_plan(args) -> int:
    """Write ``plan.jsonl``, the similarity CSVs and, last, ``plan_meta.json``.

    The input fingerprint is hashed on a helper thread while the pipeline
    runs and joined for the metadata. A stale ``plan_meta.json`` is removed
    before anything else is written, so the metadata marks a complete plan
    directory: ``merge --plan`` refuses a plan without it (exit 3)."""
    config = _build_config(args)
    with _fingerprint_beside(config) as hashing:
        tv = _load_pipeline(config)
        matrices = pairwise_all(tv)
        zero_blocks = [(mx.block_id, mx.zero_tasks) for mx in matrices if mx.zero_tasks]
        for block_id, tasks in zero_blocks:
            print(f"note: block {block_id} has all-zero task vectors for tasks {list(tasks)}; "
                  "their similarity is 0 by convention", file=sys.stderr)
        plan = compute_merge_plan(
            tv, strategy=config.strategy, order_policy=config.order_policy,
            seed=config.seed, matrices=matrices,
        )
        os.makedirs(config.out, exist_ok=True)
        meta_path = os.path.join(config.out, PLAN_META_FILE)
        try:
            os.unlink(meta_path)
        except FileNotFoundError:
            pass
        write_plan_jsonl(plan, os.path.join(config.out, PLAN_FILE))
        _write_similarity_csvs(matrices, tv.partition.block_keys,
                               os.path.join(config.out, "similarity"))
        fingerprint = hashing.result()
    meta = {
        "fingerprint": fingerprint,
        "strategy": config.strategy,
        "order": config.order_policy,
        "seed": config.seed,
        "num_tasks": plan.num_tasks,
        "num_blocks": plan.num_blocks,
        "block_keys": list(plan.block_keys),
        "algorithm": config.merger.algorithm,
        "trim_ratio": expected_trim_ratio(config.merger),
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"plan: {len(plan.events)} events over {plan.num_blocks} blocks -> {config.out}")
    return 0


_PLAN_META_TYPES = {
    "fingerprint": str, "strategy": str, "order": str, "seed": int,
    "num_tasks": int, "num_blocks": int, "block_keys": list,
}


def _read_plan(plan_path: str, fingerprint: str | None = None) -> MergePlan:
    """Read a plan checked against the ``plan_meta.json`` next to it, which
    must be well-typed (``MalformedPlan`` otherwise). Given a fingerprint,
    the metadata must exist and match it (exit 4 otherwise); without one, a
    plan with no metadata is read on its own."""
    meta_path = os.path.join(os.path.dirname(plan_path) or ".", PLAN_META_FILE)
    if fingerprint is None and not os.path.exists(meta_path):
        return read_plan_jsonl(plan_path)
    with open(meta_path, "rb") as fh:
        try:
            meta = json.loads(fh.read())
        except ValueError as exc:  # not JSON or not UTF-8
            raise MalformedPlan(f"{meta_path}: not JSON ({exc})") from None
    typed = isinstance(meta, dict) and all(
        type(meta.get(f)) is kind for f, kind in _PLAN_META_TYPES.items())
    if not (typed and meta["strategy"] in STRATEGIES and meta["order"] in ORDER_POLICIES
            and meta["num_tasks"] >= 1 and len(meta["block_keys"]) == meta["num_blocks"]
            and all(type(k) is str for k in meta["block_keys"])):
        raise MalformedPlan(f"{meta_path}: needs {', '.join(_PLAN_META_TYPES)}, well-typed, "
                            "a known strategy and order, and num_blocks block keys")
    if fingerprint is not None and meta["fingerprint"] != fingerprint:
        print("plan fingerprint does not match the current inputs/config", file=sys.stderr)
        raise SystemExit(EXIT_FINGERPRINT)
    return read_plan_jsonl(
        plan_path,
        num_tasks=meta["num_tasks"],
        num_blocks=meta["num_blocks"],
        block_keys=tuple(meta["block_keys"]),
    )


def _size_dir_token(size: Fraction) -> str:
    if size.denominator == 1:
        return str(size.numerator)
    as_float = float(size)
    if Fraction(str(as_float)) == size:
        return str(as_float)
    return f"{size.numerator}_{size.denominator}"


def cmd_merge(args) -> int:
    """Replay the plan once for every distinct size, then stream the whole
    sweep to disk in one block-major pass (``artifact.export_sweep``): every
    size's archive header first, then block by block each size's payloads,
    largest size first, so each group a smaller size shares with the larger
    one reuses its payload instead of merging. No size is held in memory as
    a whole. Archives become ``tensors.safetensors`` only once all are
    complete; ``manifest.json`` and ``groups.json`` follow. The sweep reads
    every input through the task-vector set.

    Mapped inputs are given back as the stages finish with them: the global
    trim (ties and consensus; pcb's keep ratio is a drop inside each merged
    group, not a trim) releases each task's whole input after its pass,
    the similarity pass of a merge without ``--plan`` and the sweep each
    block's pages once every size has that block. Each release is a
    watermark from the start of every input file up to the end of the
    block, so the input pages held at once are a few blocks of all tasks,
    not the inputs (``TaskVectorSet.release``).

    The input fingerprint is hashed on a helper thread beside reading (and
    trimming) the inputs. It is joined to check ``--plan`` against its
    ``plan_meta.json`` (exit 4 on a mismatch, before any output exists) or,
    without ``--plan``, after planning and replay, to go into the
    manifests."""
    config = _build_config(args)
    if not config.sizes:
        print("--sizes is required for merge", file=sys.stderr)
        return EXIT_PARSE
    with _fingerprint_beside(config) as hashing:
        tv = _load_pipeline(config)
        if args.plan:
            plan = _read_plan(args.plan, hashing.result())
        else:
            plan = compute_merge_plan(tv, strategy=config.strategy,
                                      order_policy=config.order_policy, seed=config.seed)
        sm = SizeModel.from_partition(tv.partition, config.merger)
        targets = sorted(set(config.sizes), reverse=True)
        assignments = replay_to_sizes(plan, tv, targets, sm)
        del plan  # the sweep reads the assignments only
        fingerprint = hashing.result()
    out_dirs = [os.path.join(config.out, f"size_{_size_dir_token(t)}") for t in targets]
    written = artifact_mod.export_sweep(assignments, out_dirs, tv, config.merger,
                                        fingerprint=fingerprint)
    for target, assignment, out_dir, done in zip(targets, assignments, out_dirs, written):
        write_assignment_json(assignment, tv.partition.block_keys,
                              os.path.join(out_dir, artifact_mod.GROUPS_NAME))
        achieved = done.units
        print(
            f"target {float(target):g}: achieved {float(achieved):.6g} "
            f"({achieved.numerator}/{achieved.denominator}) after "
            f"{assignment.applied_events} events, groups merged {done.merged}, "
            f"reused {done.reused} -> {out_dir}"
        )
    return 0


def cmd_reconstruct(args) -> int:
    try:
        art = artifact_mod.load_artifact(args.artifact)
    except (OSError, BlockMergeError) as exc:
        print(f"cannot load artifact from {args.artifact}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        ckpt = artifact_mod.reconstruct_task(art, args.task)
    except UnknownTask as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN_TASK
    write_archive(ckpt, args.out)
    print(f"task {args.task} -> {args.out}")
    return 0


def _inspect_plan(plan_path: str, out_dir: str) -> int:
    plan = _read_plan(plan_path)
    keys = plan.block_keys or [str(b) for b in range(plan.num_blocks)]
    seqs: dict[int, list[int]] = {}
    for ev in plan.events:
        seqs.setdefault(ev.block_id, []).append(ev.seq)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selection_timestep.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "block_key", "events", "avg_selection_timestep"])
        for b in range(plan.num_blocks):
            ss = seqs.get(b, [])
            avg = sum(ss) / len(ss) if ss else ""
            writer.writerow([b, keys[b] if b < len(keys) else str(b), len(ss), avg])
    print(f"selection timesteps -> {path}")
    return 0


def _inspect_artifact(art_dir: str, out_dir: str) -> int:
    art = artifact_mod.load_artifact(art_dir)
    os.makedirs(out_dir, exist_ok=True)
    clusters: dict[int, int] = {}
    for g in art.groups:
        clusters[g.block_id] = clusters.get(g.block_id, 0) + 1
    path = os.path.join(out_dir, "clusters_per_block.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "block_key", "clusters"])
        for block in art.partition.blocks:
            writer.writerow([block.block_id, block.key, clusters.get(block.block_id, 0)])
    rep = art.size_report
    lines = [
        ("dense bytes", rep.dense_bytes),
        ("mask bytes", rep.mask_bytes),
        ("pretrained bytes", rep.pretrained_bytes),
        ("scalar bytes (not counted)", rep.scalar_bytes),
        ("head bytes (not counted)", rep.head_bytes),
        ("unit bytes", rep.unit_bytes),
    ]
    width = max(len(label) for label, _ in lines)
    print(f"artifact {art_dir}: algorithm={art.config.algorithm} tasks={art.num_tasks}")
    for label, value in lines:
        print(f"  {label:<{width}} {value}")
    print(f"  size: {float(rep.units):.6g} model units ({rep.units.numerator}/{rep.units.denominator})")
    sizes_path = os.path.join(out_dir, "size_breakdown.csv")
    with open(sizes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["field", "value"])
        for key, value in rep.as_dict().items():
            writer.writerow([key, value])
    print(f"cluster counts -> {path}")
    return 0


def cmd_inspect(args) -> int:
    target = args.input
    try:
        if os.path.isdir(target):
            if os.path.exists(os.path.join(target, artifact_mod.MANIFEST_NAME)):
                return _inspect_artifact(target, args.out)
            if os.path.exists(os.path.join(target, PLAN_FILE)):
                return _inspect_plan(os.path.join(target, PLAN_FILE), args.out)
            print(f"{target}: no manifest or plan found", file=sys.stderr)
            return EXIT_PARSE
        if target.endswith(".jsonl"):
            return _inspect_plan(target, args.out)
        print(f"{target}: expected an artifact directory or plan JSONL", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, json.JSONDecodeError, KeyError, BlockMergeError) as exc:
        print(f"cannot inspect {target}: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _add_pipeline_flags(p: argparse.ArgumentParser, need_sizes: bool) -> None:
    p.add_argument("--pretrained", required=True, help="pretrained checkpoint archive")
    p.add_argument("--finetuned", action="append", required=True,
                   help="fine-tuned checkpoint archive; repeat per task (task id = position)")
    p.add_argument("--rules", default=None, help="partition rules JSON")
    p.add_argument("--algorithm", default=None, choices=ALGORITHMS,
                   help="merging algorithm (default ta, or the rules file's merger section)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="merge coefficient (ta default 1.5, ties/pcb 1.0)")
    p.add_argument("--keep-ratio", type=float, default=None,
                   help="keep ratio: of the global trim for ties/consensus, "
                        "of the drop inside each merged group for pcb")
    p.add_argument("--threshold", type=float, default=None,
                   help="consensus mask extraction threshold (default 0.6)")
    p.add_argument("--strategy", default="min", choices=STRATEGIES)
    p.add_argument("--order", default="greedy", choices=sorted(_ORDER_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="" if not need_sizes else None,
                   required=need_sizes,
                   help='comma-separated target sizes in model units, e.g. "1,1.5,2.25"')
    p.add_argument("--out", required=True, help="output directory")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; keep 2 reserved for alignment
    failures and report usage problems as parse failures instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blockmerge",
                     description="flexible-size data-free model merging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="precompute similarities and the global merge order")
    _add_pipeline_flags(p, need_sizes=False)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("merge", help="replay a plan to one or more target sizes")
    _add_pipeline_flags(p, need_sizes=True)
    p.add_argument("--plan", default=None, help="plan JSONL from `blockmerge plan` (optional)")
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("reconstruct", help="write one task's checkpoint from an artifact")
    p.add_argument("--artifact", required=True, help="artifact directory")
    p.add_argument("--task", type=int, required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("inspect", help="report cluster counts, merge order and sizes")
    p.add_argument("--input", required=True, help="artifact directory or plan JSONL")
    p.add_argument("--out", required=True, help="directory for CSV reports")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except (json.JSONDecodeError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BlockMergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
