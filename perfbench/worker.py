"""One benchmark operation in a fresh process: ``python3 worker.py REQUEST RESULT``.

REQUEST is a JSON file naming the operation; RESULT receives a JSON object
with the wall time of the timed call (interpreter start and imports are
outside it), the process's peak RSS and, when traced, its spans.

Operations:
  setup        the input prelude of `plan`/`merge` through public calls
  cli          ``blockmerge.cli.main(argv)``
  reconstruct  ``load_artifact`` of every artifact, then ``reconstruct_task``
               calls in a seeded shuffled order, checking each output
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(1, HERE)

import blockmerge  # noqa: E402
import blockmerge.artifact  # noqa: E402
import blockmerge.cli  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402

if not os.path.abspath(blockmerge.__file__).startswith(SRC + os.sep):
    sys.exit(f"blockmerge imported from {blockmerge.__file__}, not from {SRC}")


def op_setup(req: dict) -> dict:
    rules = [blockmerge.PartitionRule(r["pattern"], r["block_key"]) for r in req["rules"]["rules"]]
    exclude = req["rules"]["exclude"]
    cfg = blockmerge.MergerConfig.for_algorithm(req["algorithm"])
    t0 = time.perf_counter()
    pre = blockmerge.read_archive(req["pretrained"])
    fts = [blockmerge.read_archive(p) for p in req["finetuned"]]
    report = blockmerge.validate_aligned(pre, fts, exclude)
    part = blockmerge.partition(pre, rules, exclude)
    tv = blockmerge.compute_task_vectors(pre, fts, part)
    tv = blockmerge.prepare_task_vectors(tv, cfg)
    wall = time.perf_counter() - t0
    return {"wall": wall, "rc": 0 if report.ok else 1}


def op_cli(req: dict) -> dict:
    t0 = time.perf_counter()
    rc = blockmerge.cli.main(req["argv"])
    return {"wall": time.perf_counter() - t0, "rc": rc}


def _digest(ckpt) -> list:
    """Per-tensor CRC-32 of name, dtype, shape and bytes: cheap enough to run
    after every call on 64 MB outputs, and any changed bit changes it."""
    return [(name, str(arr.dtype), arr.shape, zlib.crc32(memoryview(arr).cast("B")))
            for name, arr in ckpt.tensors.items()]


def op_reconstruct(req: dict) -> dict:
    """Every artifact is loaded once, then calls cycle through every
    (artifact, task) pair, reshuffled each cycle with the request's seed. A
    call fails when it raises (``errors``) or when its output differs from
    the first reconstruction of the same pair (``drifted``). On an artifact
    of size M, each task's first reconstruction is also compared with the
    original fine-tuned archive (one check per task)."""
    artifact_mod = blockmerge.artifact
    arts, load_walls = [], []
    t_all = time.perf_counter()
    for a in req["artifacts"]:
        t0 = time.perf_counter()
        arts.append(artifact_mod.load_artifact(a["dir"]))
        load_walls.append(time.perf_counter() - t0)
    pairs = [(i, k) for i, art in enumerate(arts) for k in range(art.num_tasks)]
    rng = random.Random(req["seed"])
    first: dict[tuple[int, int], list] = {}
    latencies, errors, drifted = [], [], []
    exact_checks = exact_failed = 0
    for _ in range(req["cycles"]):
        order = pairs[:]
        rng.shuffle(order)
        for i, k in order:
            t0 = time.perf_counter()
            try:
                ckpt = artifact_mod.reconstruct_task(arts[i], k)
            except Exception as exc:  # counted as a failed operation, run continues
                latencies.append((time.perf_counter() - t0) * 1e3)
                errors.append(f"artifact {i} task {k}: {type(exc).__name__}: {exc}")
                continue
            latencies.append((time.perf_counter() - t0) * 1e3)
            d = _digest(ckpt)
            if (i, k) not in first:
                first[(i, k)] = d
                if req["artifacts"][i]["size_is_m"]:
                    exact_checks += 1
                    want = checks.read_tensors(req["finetuned"][k])
                    if not checks.same_tensors(ckpt.tensors, want):
                        exact_failed += 1
            elif first[(i, k)] != d:
                drifted.append(f"artifact {i} task {k}: repeat differs from first reconstruction")
            del ckpt
    return {
        "wall": time.perf_counter() - t_all,
        "rc": 0,
        "load_walls": load_walls,
        "latencies_ms": latencies,
        "errors": errors,
        "drifted": drifted,
        "exact_checks": exact_checks,
        "exact_failed": exact_failed,
    }


OPS = {"setup": op_setup, "cli": op_cli, "reconstruct": op_reconstruct}


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    tracer = None
    if req.get("trace"):
        tracer = spans.Tracer(req["run"])
        spans.install(tracer)
    result = OPS[req["op"]](req)
    result.update(op=req["op"], run=req["run"], maxrss_mb=spans.maxrss_mb())
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
