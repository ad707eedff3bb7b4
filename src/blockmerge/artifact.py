"""Materialized merged artifacts: storage, reconstruction, verification.

Dense groups store deployment-ready block weights (pretrained + unified
task vector); masked groups store the unified task vector, one bit-packed
mask per member and, for emr, one rescaling scalar per member, alongside
one shared copy of the pretrained block. Per-task weights for masked blocks
are rebuilt on demand into a fresh block (pretrained + masked product); the
artifact's buffers are only read, so reconstruction never depends on what
was reconstructed before.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ConfigMismatch, UnknownTask
from .mergers import MergerConfig, expected_trim_ratio, merge_group
from .scheduler import GroupAssignment, SizeModel
from .task_space import Block, BlockPartition, TaskVectorSet, flatten_block
from .tensor_store import DTYPES, Checkpoint, write_archive, read_archive

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.safetensors"


@dataclass
class StoredGroup:
    group_id: int
    block_id: int
    members: tuple[int, ...]
    payload: str  # "dense" | "masked"
    dense: np.ndarray | None = None  # flat float32 final block weights
    unified: np.ndarray | None = None  # flat float32 unified task vector
    masks: np.ndarray | None = None  # (len(members), d) bool, member order
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

    def group(self, gid: int) -> StoredGroup:
        return self.groups[gid]


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
    heads); it is required whenever such tensors exist. Raises
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
                payload = StoredGroup(gid, b, members, "dense", dense=base + tv.block_vectors[b][k])
            else:
                out = merge_group(cfg, tv, b, members)
                if cfg.masked:
                    payload = StoredGroup(
                        gid, b, tuple(sorted(members)), "masked",
                        unified=out.unified, masks=out.masks, gammas=out.rescalers,
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
        if len(finetuned) != m:
            raise ValueError(f"expected {m} fine-tuned checkpoints, got {len(finetuned)}")
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


def _reconstruct_block_flat(artifact: MergedArtifact, task: int, block_id: int) -> np.ndarray:
    group = artifact.groups[artifact.routing[task][block_id]]
    if group.payload == "dense":
        return group.dense
    idx = group.members.index(task)
    product = group.unified * group.masks[idx]
    if group.gammas is not None:
        product = group.gammas[idx] * product
    return np.add(artifact.pretrained_blocks[block_id], product)


def reconstruct_task(artifact: MergedArtifact, task: int) -> Checkpoint:
    """Per-task checkpoint: dense payloads verbatim, masked payloads rebuilt
    against the pretrained buffers, head tensors copied through.

    Tensor order follows the pretrained archive; heads the pretrained model
    never had are appended at the end.
    """
    if not 0 <= task < artifact.num_tasks:
        raise UnknownTask(f"task {task} not in artifact (0..{artifact.num_tasks - 1})")
    part = artifact.partition
    flats = {b.block_id: _reconstruct_block_flat(artifact, task, b.block_id) for b in part.blocks}
    merged: dict[str, np.ndarray] = {}
    for block in part.blocks:
        for name, offset, n, shape, code in _block_slices(block):
            arr = flats[block.block_id][offset : offset + n].reshape(shape)
            merged[name] = arr.astype(DTYPES[code])

    heads = artifact.heads[task]
    order = part.name_order or (list(part.tensor_to_block) + list(heads))
    tensors: dict[str, np.ndarray] = {}
    for name in order:
        if name in merged:
            tensors[name] = merged[name]
        elif name in heads:
            tensors[name] = heads[name]
    for name, arr in heads.items():
        if name not in tensors:
            tensors[name] = arr
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
    for task in range(artifact.num_tasks):
        sse = 0.0
        for block in part.blocks:
            got = _reconstruct_block_flat(artifact, task, block.block_id).astype(np.float64)
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
    ``g<gid>.<tensor>`` for group payloads, ``mask.g<gid>.t<task>`` for
    bit-packed masks, ``gamma.g<gid>`` for rescalers and
    ``head.t<task>.<tensor>`` for per-task head tensors.
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
            tensors[key] = flat[offset : offset + n].reshape(shape).astype(DTYPES[code])
            pre_names.append(key)

    groups_meta: dict[str, dict] = {}
    for g in artifact.groups:
        block = part.blocks[g.block_id]
        flat = g.dense if g.payload == "dense" else g.unified
        names = []
        for name, offset, n, shape, code in _block_slices(block):
            key = f"g{g.group_id}.{name}"
            tensors[key] = flat[offset : offset + n].reshape(shape).astype(DTYPES[code])
            names.append(key)
        if g.payload == "masked":
            for row, task in enumerate(g.members):
                key = f"mask.g{g.group_id}.t{task}"
                tensors[key] = np.packbits(g.masks[row].astype(np.uint8))
                names.append(key)
            if g.gammas is not None:
                key = f"gamma.g{g.group_id}"
                tensors[key] = g.gammas.astype(np.float32)
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
        "version": 1,
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


def load_artifact(out_dir: str) -> MergedArtifact:
    """Inverse of export_manifest."""
    with open(os.path.join(out_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        manifest = json.load(fh)
    archive = read_archive(os.path.join(out_dir, TENSORS_NAME))

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

    cfg = MergerConfig(algorithm=manifest["algorithm"], **{
        "lam": manifest["config"]["lam"],
        "keep_ratio": manifest["config"]["keep_ratio"],
        "consensus_threshold": manifest["config"]["consensus_threshold"],
        "pcb_intra_temp": manifest["config"]["pcb_intra_temp"],
        "pcb_inter_temp": manifest["config"]["pcb_inter_temp"],
    })

    key_to_block = {b.key: b.block_id for b in blocks}
    m = manifest["num_tasks"]

    def block_flat(prefix: str, block: Block) -> np.ndarray:
        parts = [archive.tensors[f"{prefix}.{n}"].astype(np.float32).ravel() for n in block.tensor_names]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

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
            masks = np.stack(
                [
                    np.unpackbits(archive.tensors[f"mask.g{gid}.t{task}"], count=block.dim).astype(bool)
                    for task in members
                ]
            )
            gname = f"gamma.g{gid}"
            gammas = archive.tensors[gname].astype(np.float32) if gname in archive.tensors else None
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
            heads[task][name] = archive.tensors[f"head.t{task}.{name}"]

    rep = manifest["size_report"]
    num, den = rep["units"].split("/")
    report = SizeReport(
        dense_bytes=rep["dense_bytes"],
        mask_bytes=rep["mask_bytes"],
        pretrained_bytes=rep["pretrained_bytes"],
        scalar_bytes=rep["scalar_bytes"],
        head_bytes=rep["head_bytes"],
        unit_bytes=rep["unit_bytes"],
        units=Fraction(int(num), int(den)),
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
