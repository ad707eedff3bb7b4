"""Span recording around blockmerge's public functions, from outside the package.

``install(tracer)`` rebinds the names the package looks up at call time.
``cli.py`` binds names at import with ``from .x import y``, so each name is
patched in the module that *calls* it: wrapping
``blockmerge.tensor_store.read_archive`` alone would record nothing.
Spans stay in memory; the worker writes them out when its command ends.
"""

from __future__ import annotations

import functools
import os
import resource
import time


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except (OSError, TypeError):
        return 0.0


def _dir_mb(path) -> float:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) / 1e6
    except OSError:
        return 0.0


def _fingerprint_mb(args, kwargs, result) -> dict:
    config = args[0] if args else kwargs["config"]
    return {"mb": sum(_file_mb(p) for p in [config.pretrained, *config.finetuned])}


def _merge_group_key(args, kwargs, result) -> dict:
    _, _, block_id, members = args[:4]
    return {"key": [int(block_id), sorted(int(m) for m in members)]}


def _masked_blocks(args, kwargs, result) -> dict:
    art, task = args[0], args[1]
    routing = art.routing[task]
    masked = sum(1 for gid in routing if art.groups[gid].payload == "masked")
    return {"masked_blocks": masked, "blocks": len(routing)}


# span name -> (layer, counters(args, kwargs, result) -> dict)
COUNTERS = {
    "read_archive": ("tensor_store", lambda a, k, r: {"mb": _file_mb(a[0])}),
    "write_archive": ("tensor_store", lambda a, k, r: {"mb": _file_mb(a[1])}),
    "validate_aligned": ("tensor_store", None),
    "partition": ("task_space", None),
    "compute_task_vectors": ("task_space", lambda a, k, r: {
        "mb": sum(v.size for v in r.block_vectors) * 4 / 1e6}),
    "prepare_task_vectors": ("mergers", None),
    "ties_trim": ("mergers", None),
    "merge_group": ("mergers", _merge_group_key),
    "pairwise_all": ("similarity", None),
    "compute_merge_plan": ("scheduler", None),
    "block_merge_sequence": ("scheduler", None),
    "global_merge_order": ("scheduler", lambda a, k, r: {"events": len(r.events)}),
    "replay_to_size": ("scheduler", lambda a, k, r: {"events": r.applied_events}),
    "write_plan_jsonl": ("scheduler", None),
    "read_plan_jsonl": ("scheduler", None),
    "write_assignment_json": ("scheduler", None),
    "build_artifact": ("artifact", None),
    "export_manifest": ("artifact", lambda a, k, r: {"mb": _dir_mb(a[1])}),
    "load_artifact": ("artifact", None),
    "reconstruct_task": ("artifact", _masked_blocks),
    "plan_fingerprint": ("cli", _fingerprint_mb),
}

# (module, attribute): every place the package looks a traced name up
PATCH_SITES = [
    ("cli", "read_archive"), ("cli", "validate_aligned"), ("cli", "partition"),
    ("cli", "compute_task_vectors"), ("cli", "prepare_task_vectors"), ("cli", "pairwise_all"),
    ("cli", "compute_merge_plan"), ("cli", "write_plan_jsonl"), ("cli", "read_plan_jsonl"),
    ("cli", "replay_to_size"), ("cli", "write_assignment_json"), ("cli", "write_archive"),
    ("cli", "plan_fingerprint"),
    ("task_space", "validate_aligned"),
    ("mergers", "ties_trim"),
    ("scheduler", "pairwise_all"), ("scheduler", "block_merge_sequence"),
    ("scheduler", "global_merge_order"),
    ("artifact", "merge_group"), ("artifact", "write_archive"), ("artifact", "read_archive"),
    ("artifact", "build_artifact"), ("artifact", "export_manifest"),
    ("artifact", "load_artifact"), ("artifact", "reconstruct_task"),
]


class Tracer:
    """In-memory span log for one process: name, layer, start, end, parent
    span, run id, peak RSS at entry and exit, and per-call counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        layer, counters = COUNTERS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "layer": layer, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "rss0": maxrss_mb(), "t0": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                span["rss1"] = maxrss_mb()
                self._stack.pop()
            if counters is not None:
                span["c"] = counters(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace every traced name at its call sites with a recording wrapper.
    A function reachable under several names gets one wrapper per site."""
    import importlib

    for mod_name, attr in PATCH_SITES:
        module = importlib.import_module(f"blockmerge.{mod_name}")
        setattr(module, attr, tracer.wrap(attr, getattr(module, attr)))


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced processes of one repetition.

    Each process is a worker result: ``spans``, ``wall`` and ``op``. Totals
    count a span only when no span of the same name encloses it, so a
    function that recurses through a second patch site is not counted twice.
    """
    m: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    merge_keys: list[tuple] = []
    for proc in processes:
        spans = proc["spans"]
        own = self_times(spans)

        def outermost(s):
            p = s["parent"]
            while p is not None:
                if spans[p]["name"] == s["name"]:
                    return False
                p = spans[p]["parent"]
            return True

        top_level = 0.0
        for i, s in enumerate(spans):
            dur = s["t1"] - s["t0"]
            c = s.get("c", {})
            if s["parent"] is None:
                top_level += dur
            parent_layer = spans[s["parent"]]["layer"] if s["parent"] is not None else None
            if parent_layer != s["layer"]:
                m[f"{s['layer']}.rss_rise_mb"] += s["rss1"] - s["rss0"]
            if not outermost(s):
                continue
            n = s["name"]
            if n == "read_archive":
                m["tensor_store.read_s"] += dur
                m["tensor_store.read_mb"] += c["mb"]
            elif n == "write_archive":
                m["tensor_store.write_s"] += dur
                m["tensor_store.write_mb"] += c["mb"]
            elif n == "compute_task_vectors":
                m["task_space.task_vectors_s"] += dur
                m["task_space.task_vector_mb"] += c["mb"]
            elif n == "ties_trim":
                m["mergers.trim_s"] += dur
            elif n == "merge_group":
                m["mergers.merge_group_s"] += dur
                m["mergers.merge_group_calls"] += 1
                merge_keys.append((s["run"], c["key"][0], tuple(c["key"][1])))
            elif n == "pairwise_all":
                m["similarity.pairwise_s"] += dur
            elif n == "block_merge_sequence":
                m["scheduler.sequence_s"] += dur
                m["scheduler.sequence_calls"] += 1
            elif n == "global_merge_order":
                m["scheduler.global_order_s"] += dur
                m["scheduler.events"] += c["events"]
            elif n == "replay_to_size":
                m["scheduler.replay_s"] += dur
                m["scheduler.replay_events"] += c["events"]
            elif n in ("write_plan_jsonl", "read_plan_jsonl", "write_assignment_json"):
                m["scheduler.plan_io_s"] += dur
            elif n == "build_artifact":
                m["artifact.build_self_s"] += own[i]
            elif n == "export_manifest":
                m["artifact.export_self_s"] += own[i]
                m["artifact.export_mb"] += c["mb"]
            elif n == "load_artifact":
                m["artifact.load_s"] += dur
            elif n == "reconstruct_task":
                m["artifact.reconstruct_calls"] += 1
                m["_masked_blocks"] = m.get("_masked_blocks", 0) + c["masked_blocks"]
                m["_blocks"] = m.get("_blocks", 0) + c["blocks"]
            elif n == "plan_fingerprint":
                m["cli.fingerprint_s"] += dur
                m["cli.fingerprint_calls"] += 1
                m["cli.fingerprint_mb"] += c["mb"]
        if proc["op"] == "cli":
            m["cli.self_s"] += proc["wall"] - top_level
    distinct = len(set(merge_keys))
    m["mergers.merge_group_distinct"] = distinct
    calls = m["mergers.merge_group_calls"]
    m["mergers.merge_repeat_share"] = 1.0 - distinct / calls if calls else 0.0
    blocks = m.pop("_blocks", 0)
    masked = m.pop("_masked_blocks", 0)
    m["artifact.masked_block_share"] = masked / blocks if blocks else 0.0
    return m


LAYERS = ("tensor_store", "task_space", "similarity", "scheduler", "mergers", "artifact", "cli")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "tensor_store.read_s": "s",
    "tensor_store.read_mb": "MB",
    "tensor_store.write_s": "s",
    "tensor_store.write_mb": "MB",
    "task_space.task_vectors_s": "s",
    "task_space.task_vector_mb": "MB",
    "mergers.trim_s": "s",
    "mergers.merge_group_s": "s",
    "mergers.merge_group_calls": "count",
    "mergers.merge_group_distinct": "count",
    "mergers.merge_repeat_share": "ratio",
    "similarity.pairwise_s": "s",
    "scheduler.sequence_s": "s",
    "scheduler.sequence_calls": "count",
    "scheduler.global_order_s": "s",
    "scheduler.events": "count",
    "scheduler.replay_s": "s",
    "scheduler.replay_events": "count",
    "scheduler.plan_io_s": "s",
    "artifact.build_self_s": "s",
    "artifact.export_self_s": "s",
    "artifact.export_mb": "MB",
    "artifact.load_s": "s",
    "artifact.reconstruct_calls": "count",
    "artifact.masked_block_share": "ratio",
    "cli.fingerprint_s": "s",
    "cli.fingerprint_calls": "count",
    "cli.fingerprint_mb": "MB",
    "cli.self_s": "s",
    **{f"{layer}.rss_rise_mb": "MB" for layer in LAYERS},
}
