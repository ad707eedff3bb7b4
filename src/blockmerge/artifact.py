"""Materialized merged artifacts: storage, reconstruction, verification.

Dense groups store deployment-ready block weights (pretrained + unified
task vector; an untrimmed singleton stores its fine-tuned block as is);
masked groups store the unified task vector, the members' masks as packed
bits (one row of ceil(d/8) bytes per member, in member order, the only form
a mask is kept in) and, for emr, one rescaling scalar per member, alongside
one shared copy of the pretrained block.

A loaded artifact keeps its float32 payloads, masks and pretrained blocks as
views into the archive's read buffer. Reconstruction only reads those buffers
and always returns fresh arrays: each call writes every block into one new
float32 buffer (masked blocks rebuilt as pretrained + masked product, dense
payloads copied) and narrows float16 tensors from it. So an output never
aliases the artifact, and reconstruction never depends on what was
reconstructed before.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ConfigMismatch, MalformedArtifact, UnknownTask
from .mergers import ALGORITHMS, MergerConfig, expected_trim_ratio, merge_group
from .scheduler import GroupAssignment, SizeModel
from .task_space import Block, BlockPartition, TaskVectorSet, flatten_block
from .tensor_store import DTYPES, Checkpoint, joined_view, read_archive, write_archive

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.safetensors"
MANIFEST_VERSION = 2


@dataclass
class StoredGroup:
    group_id: int
    block_id: int
    members: tuple[int, ...]
    payload: str  # "dense" | "masked"
    dense: np.ndarray | None = None  # flat float32 final block weights
    unified: np.ndarray | None = None  # flat float32 unified task vector
    masks: np.ndarray | None = None  # (len(members), ceil(d/8)) uint8 packed bits, member order
    gammas: np.ndarray | None = None  # (len(members),) float32


@dataclass
class SizeReport:
    dense_bytes: int
    mask_bytes: int
    pretrained_bytes: int
    scalar_bytes: int
    head_bytes: int
    unit_bytes: int
    units: Fraction

    def as_dict(self) -> dict:
        return {
            "dense_bytes": self.dense_bytes,
            "mask_bytes": self.mask_bytes,
            "pretrained_bytes": self.pretrained_bytes,
            "scalar_bytes": self.scalar_bytes,
            "head_bytes": self.head_bytes,
            "unit_bytes": self.unit_bytes,
            "units": f"{self.units.numerator}/{self.units.denominator}",
            "units_float": float(self.units),
        }


@dataclass
class MergedArtifact:
    partition: BlockPartition
    config: MergerConfig
    num_tasks: int
    groups: list[StoredGroup]
    routing: list[list[int]]  # routing[task][block_id] -> group_id
    pretrained_blocks: dict[int, np.ndarray]  # only blocks holding masked groups
    heads: list[dict[str, np.ndarray]]  # per task, tensors outside every block
    size_report: SizeReport
    fingerprint: str = ""


@dataclass
class ReconstructionReport:
    rows: list[tuple[int, str, float]]  # (task, block_key, l2)
    per_task_total: dict[int, float]
    exact_blocks: int

    @property
    def total_sse(self) -> float:
        return float(sum(l2 * l2 for _, _, l2 in self.rows))


def _block_slices(block: Block):
    offset = 0
    out = []
    for name, shape, code in zip(block.tensor_names, block.shapes, block.dtypes):
        n = int(np.prod(shape)) if shape else 1
        out.append((name, offset, n, shape, code))
        offset += n
    return out


def build_artifact(
    assignment: GroupAssignment,
    tv: TaskVectorSet,
    pretrained: Checkpoint,
    cfg: MergerConfig,
    finetuned: list[Checkpoint] | None = None,
    fingerprint: str = "",
    reuse: Mapping[tuple[int, tuple[int, ...]], StoredGroup] | None = None,
) -> MergedArtifact:
    """Merge every multi-member group of the assignment under ``cfg`` and
    assemble the stored payloads.

    ``reuse`` maps ``(block_id, members)`` to payloads already built for the
    same inputs and ``cfg`` (e.g. the previous size of a sweep); a group
    found there shares its arrays under a new group id instead of being
    merged again.

    ``finetuned`` supplies the per-task tensors outside the partition (task
    heads); it is required whenever such tensors exist. With ``finetuned``
    and untrimmed task vectors, a singleton group stores the fine-tuned
    block itself (a view when the block is one float32 tensor): in float32,
    ``pre + (ft - pre)`` is not always ``ft``, and size M must give back the
    inputs bit for bit. Without ``finetuned`` a singleton stores
    ``pre + vector``, so size M is then only exact on data where that sum
    rounds back to the input. Trimmed vectors keep ``pre + trimmed vector``,
    which is what ties/consensus define. Raises
    ConfigMismatch when the task vectors' trim state disagrees with the
    algorithm (ties/consensus need the up-front global trim).
    """
    part = tv.partition
    if tv.trim_ratio != expected_trim_ratio(cfg):
        raise ConfigMismatch(
            f"task vectors trimmed at {tv.trim_ratio!r} but {cfg.algorithm} expects "
            f"{expected_trim_ratio(cfg)!r}"
        )
    if len(assignment.block_groups) != part.num_blocks:
        raise ValueError("assignment and partition disagree on block count")

    m = tv.num_tasks
    if finetuned is not None and len(finetuned) != m:
        raise ValueError(f"expected {m} fine-tuned checkpoints, got {len(finetuned)}")
    exact_singletons = finetuned is not None and tv.trim_ratio is None
    groups: list[StoredGroup] = []
    routing = [[-1] * part.num_blocks for _ in range(m)]
    pretrained_blocks: dict[int, np.ndarray] = {}

    for block in part.blocks:
        b = block.block_id
        base = flatten_block(pretrained, block)
        block_groups = assignment.block_groups[b]
        for members in block_groups:
            gid = len(groups)
            known = reuse.get((b, tuple(sorted(members)))) if reuse else None
            if known is not None:
                payload = replace(known, group_id=gid)
            elif len(members) == 1:
                k = members[0]
                dense = (flatten_block(finetuned[k], block) if exact_singletons
                         else base + tv.block_vectors[b][k])
                payload = StoredGroup(gid, b, members, "dense", dense=dense)
            else:
                out = merge_group(cfg, tv, b, members)
                if cfg.masked:
                    payload = StoredGroup(
                        gid, b, tuple(sorted(members)), "masked", unified=out.unified,
                        masks=np.packbits(out.masks, axis=1), gammas=out.rescalers,
                    )
                else:
                    payload = StoredGroup(gid, b, tuple(sorted(members)), "dense",
                                          dense=base + out.unified)
            groups.append(payload)
            for k in members:
                routing[k][b] = gid
        if cfg.masked and any(len(g) > 1 for g in block_groups):
            pretrained_blocks[b] = base

    heads: list[dict[str, np.ndarray]] = [{} for _ in range(m)]
    if finetuned is not None:
        for k, ckpt in enumerate(finetuned):
            heads[k] = {
                name: arr for name, arr in ckpt.tensors.items() if name not in part.tensor_to_block
            }
    elif part.excluded:
        raise ValueError("partition excludes tensors; pass the fine-tuned checkpoints for them")

    sm = SizeModel.from_partition(part, cfg)
    stored = sm.stored_bytes(assignment.block_groups)
    head_bytes = sum(arr.nbytes for h in heads for arr in h.values())
    report = SizeReport(
        dense_bytes=stored["dense"],
        mask_bytes=stored["mask"],
        pretrained_bytes=stored["pretrained"],
        scalar_bytes=stored["scalar"],
        head_bytes=head_bytes,
        unit_bytes=sm.unit_bytes,
        units=sm.size_of(assignment.block_groups),
    )
    return MergedArtifact(
        partition=part,
        config=cfg,
        num_tasks=m,
        groups=groups,
        routing=routing,
        pretrained_blocks=pretrained_blocks,
        heads=heads,
        size_report=report,
        fingerprint=fingerprint or cfg.fingerprint(),
    )


def _task_block(artifact: MergedArtifact, task: int, block_id: int, out: np.ndarray) -> np.ndarray:
    """Write one task's flat float32 block into ``out`` and return it. A
    masked block unpacks the task's mask row and is built in the operand
    order pretrained + gamma * (unified * mask)."""
    group = artifact.groups[artifact.routing[task][block_id]]
    if group.payload == "dense":
        np.copyto(out, group.dense)
        return out
    idx = group.members.index(task)
    # unpacked bits are 0/1 bytes, so they are a valid bool buffer
    mask = np.unpackbits(group.masks[idx], count=out.size).view(bool)
    np.multiply(group.unified, mask, out=out)
    if group.gammas is not None:
        np.multiply(group.gammas[idx], out, out=out)
    return np.add(artifact.pretrained_blocks[block_id], out, out=out)


def reconstruct_task(artifact: MergedArtifact, task: int) -> Checkpoint:
    """Per-task checkpoint: dense payloads copied, masked payloads rebuilt
    against the pretrained buffers, head tensors copied. No output array
    shares memory with the artifact.

    Every block is built into one fresh float32 buffer per call: one
    allocation instead of one per block or tensor, so repeated calls fault
    in far fewer new pages. Float32 tensors are handed out as slices of it;
    float16 tensors are narrowed from their slice into copies.

    Tensor order follows the pretrained archive; heads the pretrained model
    never had are appended at the end.
    """
    if not 0 <= task < artifact.num_tasks:
        raise UnknownTask(f"task {task} not in artifact (0..{artifact.num_tasks - 1})")
    part = artifact.partition
    buffer = np.empty(sum(b.dim for b in part.blocks), np.float32)
    pos = 0
    merged: dict[str, np.ndarray] = {}
    for block in part.blocks:
        flat = _task_block(artifact, task, block.block_id, buffer[pos : pos + block.dim])
        pos += block.dim
        for name, offset, n, shape, code in _block_slices(block):
            merged[name] = flat[offset : offset + n].reshape(shape).astype(DTYPES[code], copy=False)

    heads = artifact.heads[task]
    order = part.name_order or (list(part.tensor_to_block) + list(heads))
    tensors: dict[str, np.ndarray] = {}
    for name in order:
        if name in merged:
            tensors[name] = merged[name]
        elif name in heads:
            tensors[name] = heads[name].copy()
    for name, arr in heads.items():
        if name not in tensors:
            tensors[name] = arr.copy()
    return Checkpoint(tensors=tensors)


def write_reconstruction_csv(report: ReconstructionReport, path: str) -> None:
    """Per-(task, block) distances as CSV rows ``task, block_key, l2, exact``."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "block_key", "l2", "exact"])
        for task, key, l2 in report.rows:
            writer.writerow([task, key, repr(l2), int(l2 == 0.0)])


def verify_artifact(
    artifact: MergedArtifact, originals: list[Checkpoint]
) -> ReconstructionReport:
    """L2 distance between each reconstructed block and the original
    fine-tuned values; exact_blocks counts bit-exact (zero-distance) blocks."""
    part = artifact.partition
    rows: list[tuple[int, str, float]] = []
    per_task: dict[int, float] = {}
    exact = 0
    scratch = np.empty(max((b.dim for b in part.blocks), default=0), np.float32)
    for task in range(artifact.num_tasks):
        sse = 0.0
        for block in part.blocks:
            got = _task_block(artifact, task, block.block_id, scratch[: block.dim]).astype(np.float64)
            want = flatten_block(originals[task], block).astype(np.float64)
            l2 = float(np.linalg.norm(got - want))
            rows.append((task, block.key, l2))
            sse += l2 * l2
            if l2 == 0.0:
                exact += 1
        per_task[task] = sse ** 0.5
    return ReconstructionReport(rows=rows, per_task_total=per_task, exact_blocks=exact)


# ---------------------------------------------------------------------------
# Export / load
# ---------------------------------------------------------------------------

def export_manifest(artifact: MergedArtifact, out_dir: str) -> None:
    """Write ``manifest.json`` plus one archive holding every payload.

    Archive names are deterministic: ``pre.<tensor>`` for pretrained blocks,
    ``g<gid>.<tensor>`` for group payloads, ``mask.g<gid>`` for a masked
    group's packed masks (U8, shape ``(n, ceil(d/8))``, rows in member
    order), ``gamma.g<gid>`` for rescalers and ``head.t<task>.<tensor>`` for
    per-task head tensors. The manifest is ``version`` 2; load_artifact
    rejects version 1 (one mask entry per member) and any other.
    """
    part = artifact.partition
    os.makedirs(out_dir, exist_ok=True)
    tensors: dict[str, np.ndarray] = {}

    pre_names = []
    for b in sorted(artifact.pretrained_blocks):
        block = part.blocks[b]
        flat = artifact.pretrained_blocks[b]
        for name, offset, n, shape, code in _block_slices(block):
            key = f"pre.{name}"
            tensors[key] = flat[offset : offset + n].reshape(shape).astype(DTYPES[code], copy=False)
            pre_names.append(key)

    groups_meta: dict[str, dict] = {}
    for g in artifact.groups:
        block = part.blocks[g.block_id]
        flat = g.dense if g.payload == "dense" else g.unified
        names = []
        for name, offset, n, shape, code in _block_slices(block):
            key = f"g{g.group_id}.{name}"
            tensors[key] = flat[offset : offset + n].reshape(shape).astype(DTYPES[code], copy=False)
            names.append(key)
        if g.payload == "masked":
            key = f"mask.g{g.group_id}"
            tensors[key] = g.masks
            names.append(key)
            if g.gammas is not None:
                key = f"gamma.g{g.group_id}"
                tensors[key] = g.gammas.astype(np.float32, copy=False)
                names.append(key)
        groups_meta[str(g.group_id)] = {
            "members": list(g.members),
            "payload": g.payload,
            "block": block.key,
            "tensors": names,
        }

    excluded_meta: dict[str, list[str]] = {}
    for task, head in enumerate(artifact.heads):
        excluded_meta[str(task)] = list(head)
        for name, arr in head.items():
            tensors[f"head.t{task}.{name}"] = arr

    manifest = {
        "format": "blockmerge-artifact",
        "version": MANIFEST_VERSION,
        "algorithm": artifact.config.algorithm,
        "config": {
            "lam": artifact.config.lam,
            "keep_ratio": artifact.config.keep_ratio,
            "consensus_threshold": artifact.config.consensus_threshold,
            "pcb_intra_temp": artifact.config.pcb_intra_temp,
            "pcb_inter_temp": artifact.config.pcb_inter_temp,
        },
        "fingerprint": artifact.fingerprint,
        "num_tasks": artifact.num_tasks,
        "blocks": [
            {
                "id": b.block_id,
                "key": b.key,
                "tensors": b.tensor_names,
                "shapes": [list(s) for s in b.shapes],
                "dtypes": b.dtypes,
                "dim": b.dim,
                "nbytes": b.nbytes,
            }
            for b in part.blocks
        ],
        "name_order": list(part.name_order),
        "excluded": excluded_meta,
        "tasks": {
            str(task): {part.blocks[b].key: artifact.routing[task][b] for b in range(part.num_blocks)}
            for task in range(artifact.num_tasks)
        },
        "groups": groups_meta,
        "pretrained": pre_names,
        "size_report": artifact.size_report.as_dict(),
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    write_archive(Checkpoint(tensors=tensors), os.path.join(out_dir, TENSORS_NAME))


_CONFIG_FIELDS = ("lam", "keep_ratio", "consensus_threshold", "pcb_intra_temp", "pcb_inter_temp")
_REPORT_FIELDS = ("dense_bytes", "mask_bytes", "pretrained_bytes", "scalar_bytes", "head_bytes",
                  "unit_bytes")


def _need(ok, what: str, *args) -> None:
    # the message is formatted only on failure: this runs per group and tensor
    if not ok:
        raise MalformedArtifact("manifest: " + what.format(*args))


def _check_manifest(manifest) -> None:
    """Raise MalformedArtifact unless ``manifest`` has every field
    load_artifact and reconstruct_task read, with the right types and
    ranges, and routes every (task, block) to a group of that block holding
    the task. The tensors it names are checked as they are loaded."""

    def is_int(x, lo: int = 0) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= lo

    def is_num(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    _need(isinstance(manifest, dict), "not a JSON object")
    version = manifest.get("version")
    _need(is_int(version) and version == MANIFEST_VERSION, "version {!r} is not {}", version,
          MANIFEST_VERSION)
    for section, kind in (("blocks", list), ("groups", dict), ("tasks", dict), ("excluded", dict),
                          ("config", dict), ("size_report", dict), ("name_order", list)):
        _need(isinstance(manifest.get(section, [] if section == "name_order" else None), kind),
              "{!r} must be a JSON {}", section, "array" if kind is list else "object")
    _need(manifest.get("algorithm") in ALGORITHMS, "unknown algorithm {!r}", manifest.get("algorithm"))
    _need(all(is_num(manifest["config"].get(f)) for f in _CONFIG_FIELDS), "config values must be numbers")
    _need(isinstance(manifest.get("fingerprint"), str), "fingerprint must be a string")
    m = manifest.get("num_tasks")
    _need(is_int(m, 1), "num_tasks must be an integer >= 1, got {!r}", m)
    _need(all(isinstance(n, str) for n in manifest.get("name_order", [])), "name_order must list names")
    rep = manifest["size_report"]
    _need(all(is_int(rep.get(f)) for f in _REPORT_FIELDS), "size_report byte counts must be integers")
    units = rep.get("units")
    try:
        units_ok = isinstance(units, str) and Fraction(units) >= 0
    except (ValueError, ZeroDivisionError):
        units_ok = False
    _need(units_ok, "size_report units {!r} is not a fraction string", units)

    blocks = manifest["blocks"]
    for i, spec in enumerate(blocks):
        _need(isinstance(spec, dict) and is_int(spec.get("id")) and spec["id"] == i
              and isinstance(spec.get("key"), str),
              "block {} must be an object with id {} and a string key", i, i)
        names, shapes, codes = spec.get("tensors"), spec.get("shapes"), spec.get("dtypes")
        _need(isinstance(names, list) and isinstance(shapes, list) and isinstance(codes, list)
              and 0 < len(names) == len(shapes) == len(codes)
              and all(isinstance(n, str) for n in names)
              and all(isinstance(sh, list) and all(is_int(d) for d in sh) for sh in shapes)
              and all(c in ("F32", "F16") for c in codes),
              "block {} needs parallel tensors/shapes/dtypes lists", i)
        _need(is_int(spec.get("dim")) and spec["dim"] == sum(math.prod(sh) for sh in shapes)
              and is_int(spec.get("nbytes")),
              "block {} dim/nbytes disagree with its shapes", i)
    key_to_block = {spec["key"]: i for i, spec in enumerate(blocks)}
    _need(len(key_to_block) == len(blocks), "block keys must be unique")
    order = set(manifest.get("name_order", []))
    _need(not order or all(n in order for spec in blocks for n in spec["tensors"]),
          "name_order must list every block tensor")

    groups = manifest["groups"]
    _need(set(groups) == {str(g) for g in range(len(groups))}, "group ids must be 0..G-1")
    for gid, meta in groups.items():
        _need(isinstance(meta, dict) and isinstance(meta.get("block"), str) and meta["block"] in key_to_block
              and meta.get("payload") in ("dense", "masked"),
              "group {} needs a known block and a dense/masked payload", gid)
        members = meta.get("members")
        _need(isinstance(members, list) and members and all(is_int(t) and t < m for t in members)
              and len(set(members)) == len(members),
              "group {} members must be distinct task ids below {}", gid, m)

    routes = manifest["tasks"]
    _need(len(routes) == m and set(routes) == {str(t) for t in range(m)},
          "tasks must map every task id 0..M-1")
    for task, mapping in routes.items():
        _need(isinstance(mapping, dict) and set(mapping) == set(key_to_block),
              "task {} must route every block", task)
        for key, gid in mapping.items():
            meta = groups.get(str(gid)) if is_int(gid) else None
            _need(meta is not None and meta["block"] == key and int(task) in meta["members"],
                  "task {} block {!r} routed to group {!r}, which does not hold it", task, key, gid)

    for task, names in manifest["excluded"].items():
        _need(task in routes and isinstance(names, list) and all(isinstance(n, str) for n in names),
              "excluded entry {!r} must list head names of a known task", task)


def load_artifact(out_dir: str) -> MergedArtifact:
    """Inverse of export_manifest.

    The manifest is checked against its schema first, and each tensor it
    names against the archive as it is loaded (MalformedArtifact); an emr
    artifact must hold a rescaler entry for every masked group. Float32
    payloads, packed masks and pretrained blocks stay views into the
    archive's read buffer (a block of several tensors as one span of it), so
    a float32 artifact is held once. Head tensors and rescalers are copied,
    so a float16 archive without masked groups is freed once its blocks have
    been widened; with masked groups, the mask views keep its buffer alive.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise MalformedArtifact(f"{path}: not valid JSON: {exc}") from None
    _check_manifest(manifest)
    archive = read_archive(os.path.join(out_dir, TENSORS_NAME))

    def tensor(name: str, shape: tuple[int, ...], kind: str) -> np.ndarray:
        arr = archive.tensors.get(name)
        _need(arr is not None and arr.shape == shape and arr.dtype.kind == kind,
              "archive lacks tensor {!r} of shape {}", name, shape)
        return arr

    blocks = []
    tensor_to_block: dict[str, int] = {}
    for spec in manifest["blocks"]:
        block = Block(
            block_id=spec["id"],
            key=spec["key"],
            tensor_names=list(spec["tensors"]),
            shapes=[tuple(s) for s in spec["shapes"]],
            dtypes=list(spec["dtypes"]),
            dim=spec["dim"],
            nbytes=spec["nbytes"],
        )
        blocks.append(block)
        for n in block.tensor_names:
            tensor_to_block[n] = block.block_id
    part = BlockPartition(
        blocks=blocks,
        tensor_to_block=tensor_to_block,
        excluded=[],
        name_order=list(manifest.get("name_order", [])),
    )

    cfg = MergerConfig(algorithm=manifest["algorithm"],
                       **{f: manifest["config"][f] for f in _CONFIG_FIELDS})

    key_to_block = {b.key: b.block_id for b in blocks}
    m = manifest["num_tasks"]

    def block_flat(prefix: str, block: Block) -> np.ndarray:
        parts = [tensor(f"{prefix}.{n}", shape, "f").astype(np.float32, copy=False).ravel()
                 for n, shape in zip(block.tensor_names, block.shapes)]
        if len(parts) == 1:
            return parts[0]
        # export writes a block's tensors back to back, so float32 ones are
        # one span of the read buffer; anything else is joined into a copy
        joined = joined_view(parts)
        return joined if joined is not None else np.concatenate(parts)

    groups: list[StoredGroup] = [None] * len(manifest["groups"])  # type: ignore[list-item]
    for gid_str, meta in manifest["groups"].items():
        gid = int(gid_str)
        b = key_to_block[meta["block"]]
        block = blocks[b]
        members = tuple(meta["members"])
        flat = block_flat(f"g{gid}", block)
        if meta["payload"] == "dense":
            groups[gid] = StoredGroup(gid, b, members, "dense", dense=flat)
        else:
            masks = tensor(f"mask.g{gid}", (len(members), (block.dim + 7) // 8), "u")
            gammas = (np.array(tensor(f"gamma.g{gid}", (len(members),), "f"), dtype=np.float32)
                      if cfg.has_rescalers else None)
            groups[gid] = StoredGroup(gid, b, members, "masked", unified=flat, masks=masks, gammas=gammas)

    pretrained_blocks = {}
    masked_block_ids = {g.block_id for g in groups if g.payload == "masked"}
    for b in sorted(masked_block_ids):
        pretrained_blocks[b] = block_flat("pre", blocks[b])

    routing = [[-1] * len(blocks) for _ in range(m)]
    for task_str, mapping in manifest["tasks"].items():
        task = int(task_str)
        for key, gid in mapping.items():
            routing[task][key_to_block[key]] = gid

    heads: list[dict[str, np.ndarray]] = [{} for _ in range(m)]
    for task_str, names in manifest["excluded"].items():
        task = int(task_str)
        for name in names:
            key = f"head.t{task}.{name}"
            _need(key in archive.tensors, "archive lacks head tensor {!r}", key)
            heads[task][name] = archive.tensors[key].copy()

    rep = manifest["size_report"]
    report = SizeReport(
        **{f: rep[f] for f in _REPORT_FIELDS},
        units=Fraction(rep["units"]),
    )
    return MergedArtifact(
        partition=part,
        config=cfg,
        num_tasks=m,
        groups=groups,
        routing=routing,
        pretrained_blocks=pretrained_blocks,
        heads=heads,
        size_report=report,
        fingerprint=manifest["fingerprint"],
    )
