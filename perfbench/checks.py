"""Output checks, written against the file formats rather than the package,
so a defect in the package cannot also hide in its own checker."""

from __future__ import annotations

import json
import os
import struct
from fractions import Fraction

import numpy as np


def check_plan(plan_path: str, num_blocks: int, num_tasks: int) -> list[str]:
    """The plan has B*(M-1) events and, per block, forms a valid merge tree:
    every event joins two whole current groups, and each block ends fully
    merged. Returns the problems found (empty when the plan is valid)."""
    problems = []
    with open(plan_path, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    want = num_blocks * (num_tasks - 1)
    if len(events) != want:
        problems.append(f"plan has {len(events)} events, expected {want}")
    if [e["seq"] for e in events] != list(range(len(events))):
        problems.append("plan seq numbers are not 0..n-1 in file order")
    groups = [{k: frozenset([k]) for k in range(num_tasks)} for _ in range(num_blocks)]
    for e in events:
        b = e["block"]
        if not 0 <= b < num_blocks:
            problems.append(f"event {e['seq']}: block {b} out of range")
            continue
        left, right = frozenset(e["left"]), frozenset(e["right"])
        owner = groups[b]
        if not left or not right or left & right:
            problems.append(f"event {e['seq']}: groups are empty or overlap")
        elif owner.get(min(left)) != left or owner.get(min(right)) != right:
            problems.append(f"event {e['seq']}: block {b} merges groups that are not current")
        else:
            union = left | right
            for k in union:
                owner[k] = union
    for b, owner in enumerate(groups):
        if len(set(owner.values())) != 1:
            problems.append(f"block {b} is not fully merged at the end of the plan")
    return problems


def recomputed_units(manifest: dict, groups: dict) -> Fraction:
    """Deployed size from ``manifest.json`` block bytes and ``groups.json``:
    one dense block per group; mask families add one bit per parameter per
    member of a merged group, and the pretrained block once per block that
    has one. Rescalers are not counted."""
    masked = manifest["algorithm"] in ("emr", "consensus")
    unit = sum(b["nbytes"] for b in manifest["blocks"])
    counted = 0
    for block in manifest["blocks"]:
        block_groups = groups[block["key"]]
        counted += block["nbytes"] * len(block_groups)
        merged = [g for g in block_groups if len(g) > 1]
        if masked and merged:
            counted += block["nbytes"] + sum(len(g) for g in merged) * ((block["dim"] + 7) // 8)
    return Fraction(counted, unit)


def check_artifact(art_dir: str, target: Fraction, num_tasks: int) -> list[tuple[bool, str]]:
    """Two checks per artifact, each one operation: the reported size is at
    most the target (or the fully merged state when the target is below the
    floor), and it equals the size recomputed from the files."""
    with open(os.path.join(art_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(art_dir, "groups.json"), encoding="utf-8") as fh:
        groups = json.load(fh)
    num, den = manifest["size_report"]["units"].split("/")
    units = Fraction(int(num), int(den))
    fully_merged = all(
        len(groups[b["key"]]) == 1 and sorted(groups[b["key"]][0]) == list(range(num_tasks))
        for b in manifest["blocks"]
    )
    bound_ok = units <= target or fully_merged
    recomputed = recomputed_units(manifest, groups)
    return [
        (bound_ok, f"{art_dir}: size {units} above target {target}, not fully merged"),
        (recomputed == units, f"{art_dir}: size {units} but files give {recomputed}"),
    ]


_DTYPES = {"F32": "<f4", "F16": "<f2", "U8": "u1"}


def read_tensors(path: str) -> dict[str, np.ndarray]:
    """Minimal reader for the archive format, used only to compare outputs."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + hlen])
    header.pop("__metadata__", None)
    base = 8 + hlen
    out = {}
    for name, e in header.items():
        b, end = e["data_offsets"]
        dtype = np.dtype(_DTYPES[e["dtype"]])
        out[name] = np.frombuffer(blob, dtype=dtype, count=(end - b) // dtype.itemsize,
                                  offset=base + b).reshape(e["shape"])
    return out


def same_tensors(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> bool:
    """Same names, dtypes, shapes and bytes."""
    if sorted(got) != sorted(want):
        return False
    return all(
        got[n].dtype == want[n].dtype and got[n].shape == want[n].shape
        and np.array_equal(got[n].view(np.uint8), want[n].view(np.uint8))
        for n in want
    )
