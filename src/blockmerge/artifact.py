"""Materialized merged artifacts: storage, reconstruction, verification.

Artifacts are built from a TaskVectorSet alone: it holds the pretrained
and fine-tuned checkpoints its rows come from. Dense groups store
deployment-ready block weights (pretrained + unified task vector; an
untrimmed singleton stores its fine-tuned block as is, a trimmed one
pretrained + its trimmed row); masked groups store the unified task vector,
the members' masks as packed bits (one row of ceil(d/8) bytes per member, in
member order, the only form a mask is kept in) and, for emr, one rescaling
scalar per member, alongside one shared copy of the pretrained block. Each
task's tensors outside the partition (its head) are stored as they are.

On disk an artifact is a version 3 manifest, which lists each block's
groups by their members, plus one archive of payloads named by group id;
load_artifact derives routing, payload kinds and sizes from them (see
export_manifest). The archive's layout follows from the groups alone
(_archive_layout), so a size sweep (export_sweep) writes every size's
header first and then its payloads block by block, never holding a whole
size in memory; build_artifact and export_manifest build and write one size
in memory, with the same payloads and bytes.

A loaded artifact keeps its float32 payloads, masks and pretrained blocks as
read-only views of the archive's buffer, a mapping of the file for every
archive written here. Reconstruction only reads those buffers
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigMismatch, MalformedArtifact, UnknownTask
from .mergers import ALGORITHMS, CONFIG_NUMBERS, MergerConfig, expected_trim_ratio, merge_group
from .scheduler import GroupAssignment, SizeModel
from .task_space import Block, BlockPartition, TaskVectorSet, flatten_block
from .tensor_store import (
    DTYPES,
    Checkpoint,
    StreamedArchive,
    dtype_code,
    read_archive,
    tensor_span,
    write_archive,
)

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.safetensors"
GROUPS_NAME = "groups.json"  # written by the CLI's merge next to each manifest
MANIFEST_VERSION = 3


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
    exact_blocks: int

    @property
    def total_sse(self) -> float:
        return float(sum(l2 * l2 for _, _, l2 in self.rows))


def _block_slices(block: Block):
    offset = 0
    out = []
    for name, shape, code in zip(block.tensor_names, block.shapes, block.dtypes):
        n = math.prod(shape)
        out.append((name, offset, n, shape, code))
        offset += n
    return out


def _size_report(part: BlockPartition, cfg: MergerConfig, block_groups,
                 heads: list[dict[str, np.ndarray]]) -> SizeReport:
    """Stored bytes of the grouping (``block_groups[b]`` lists block b's
    member lists) under ``cfg``, plus the head tensors' bytes."""
    sm = SizeModel.from_partition(part, cfg)
    stored = sm.stored_bytes(block_groups)
    return SizeReport(
        dense_bytes=stored["dense"],
        mask_bytes=stored["mask"],
        pretrained_bytes=stored["pretrained"],
        scalar_bytes=stored["scalar"],
        head_bytes=sum(arr.nbytes for h in heads for arr in h.values()),
        unit_bytes=sm.unit_bytes,
        units=sm.size_of(block_groups),
    )


def _block_arrays(block: Block, flat: np.ndarray) -> list[np.ndarray]:
    """A flat float32 block as its tensors in block order, each in its own
    shape and archive dtype (views where nothing is narrowed)."""
    return [flat[offset : offset + n].reshape(shape).astype(DTYPES[code], copy=False)
            for _, offset, n, shape, code in _block_slices(block)]


def _payload_arrays(block: Block, g: StoredGroup) -> list[np.ndarray]:
    """One group's archive entries in archive order: its block tensors,
    then, for a masked group, its packed masks and rescalers."""
    if g.payload == "dense":
        return _block_arrays(block, g.dense)
    arrays = _block_arrays(block, g.unified) + [g.masks]
    if g.gammas is not None:
        arrays.append(g.gammas.astype(np.float32, copy=False))
    return arrays


def _archive_layout(part: BlockPartition, cfg: MergerConfig, block_groups,
                    heads: list[dict[str, np.ndarray]]):
    """The archive of an artifact, from its groups alone: the entries
    ``(name, dtype code, shape)`` in archive order, and the ``(begin, end)``
    data-section range of each span of them, keyed in archive order.

    The spans are ``("pre", b)`` for each block holding a masked group (the
    pretrained block, its tensors named ``pre.<tensor>``), then
    ``("groups", b)`` for every block: its groups in group-id order, each
    ``g<gid>.<tensor>`` then, when masked, ``mask.g<gid>`` (U8, shape
    ``(n, ceil(d/8))``, rows in member order) and, for emr,
    ``gamma.g<gid>`` (F32, ``(n,)``). Group ids run over blocks, then list
    order. Last comes ``("heads", -1)``: ``head.t<task>.<tensor>`` for each
    task's tensors outside the partition.
    """
    entries: list[tuple[str, str, tuple[int, ...]]] = []
    spans: dict[tuple[str, int], tuple[int, int]] = {}
    pos = 0

    def span(key, items) -> None:
        nonlocal pos
        begin = pos
        for name, code, shape in items:
            entries.append((name, code, shape))
            pos += math.prod(shape) * DTYPES[code].itemsize
        spans[key] = (begin, pos)

    def block_entries(prefix: str, block: Block):
        return [(f"{prefix}.{name}", code, shape)
                for name, shape, code in zip(block.tensor_names, block.shapes, block.dtypes)]

    for block, groups in zip(part.blocks, block_groups):
        if cfg.masked and any(len(g) > 1 for g in groups):
            span(("pre", block.block_id), block_entries("pre", block))
    gid = 0
    for block, groups in zip(part.blocks, block_groups):
        items = []
        for members in groups:
            items += block_entries(f"g{gid}", block)
            if cfg.masked and len(members) > 1:
                items.append((f"mask.g{gid}", "U8", (len(members), (block.dim + 7) // 8)))
                if cfg.has_rescalers:
                    items.append((f"gamma.g{gid}", "F32", (len(members),)))
            gid += 1
        span(("groups", block.block_id), items)
    span(("heads", -1), [(f"head.t{task}.{name}", dtype_code(arr), arr.shape)
                         for task, head in enumerate(heads) for name, arr in head.items()])
    return entries, spans


def _checked_heads(tv: TaskVectorSet, cfg: MergerConfig, assignments):
    """Check the inputs of a build before anything is merged or written,
    and return each task's tensors outside the partition (its head), from
    the set's fine-tuned checkpoints.

    Raises ConfigMismatch when the task vectors' trim state disagrees with
    the algorithm (ties/consensus need the up-front global trim), and
    ValueError when an assignment has the wrong block count."""
    part = tv.partition
    if tv.trim_ratio != expected_trim_ratio(cfg):
        raise ConfigMismatch(
            f"task vectors trimmed at {tv.trim_ratio!r} but {cfg.algorithm} expects "
            f"{expected_trim_ratio(cfg)!r}"
        )
    if any(len(a.block_groups) != part.num_blocks for a in assignments):
        raise ValueError("assignment and partition disagree on block count")
    return [{name: arr for name, arr in ckpt.tensors.items() if name not in part.tensor_to_block}
            for ckpt in tv.finetuned]


def _group_payload(gid: int, cfg: MergerConfig, tv: TaskVectorSet, block: Block,
                   base: np.ndarray, members) -> StoredGroup:
    """The stored payload of one group of ``block`` (``base`` is its flat
    pretrained block): a singleton's own block (see build_artifact), or the
    group merged under ``cfg``."""
    b = block.block_id
    if len(members) == 1:
        k = members[0]
        if tv.trim_ratio is None:
            dense = flatten_block(tv.finetuned[k], block)
        else:
            dense = base + tv.rows(b, [k])[0]
        return StoredGroup(gid, b, members, "dense", dense=dense)
    out = merge_group(cfg, tv, b, members)
    members = tuple(sorted(members))
    if cfg.masked:
        return StoredGroup(gid, b, members, "masked", unified=out.unified,
                           masks=np.packbits(out.masks, axis=1), gammas=out.rescalers)
    return StoredGroup(gid, b, members, "dense", dense=base + out.unified)


def build_artifact(
    assignment: GroupAssignment,
    tv: TaskVectorSet,
    cfg: MergerConfig,
    fingerprint: str = "",
) -> MergedArtifact:
    """Merge every multi-member group of the assignment under ``cfg`` and
    assemble the stored payloads of one size in memory (export_sweep writes
    many sizes without holding any).

    Every input comes from ``tv``. Pretrained blocks are
    ``tv.pretrained_block`` (the set's own read-only array for a block of
    one tensor). With untrimmed task vectors, a singleton group stores its
    task's fine-tuned block itself (a view when the block is one float32
    tensor): in float32, ``pre + (ft - pre)`` is not always ``ft``, and size
    M gives back the inputs bit for bit. Trimmed vectors keep
    ``pre + trimmed row``, which is what ties/consensus define. Each task's
    head is its checkpoint's tensors outside the partition. Raises
    ConfigMismatch when the task vectors' trim state disagrees with the
    algorithm (ties/consensus need the up-front global trim).
    """
    heads = _checked_heads(tv, cfg, [assignment])
    part = tv.partition
    groups: list[StoredGroup] = []
    routing = [[-1] * part.num_blocks for _ in range(tv.num_tasks)]
    pretrained_blocks: dict[int, np.ndarray] = {}

    for block in part.blocks:
        b = block.block_id
        base = tv.pretrained_block(b)
        block_groups = assignment.block_groups[b]
        for members in block_groups:
            g = _group_payload(len(groups), cfg, tv, block, base, members)
            groups.append(g)
            for k in members:
                routing[k][b] = g.group_id
        if cfg.masked and any(len(g) > 1 for g in block_groups):
            pretrained_blocks[b] = base

    return MergedArtifact(
        partition=part,
        config=cfg,
        num_tasks=tv.num_tasks,
        groups=groups,
        routing=routing,
        pretrained_blocks=pretrained_blocks,
        heads=heads,
        size_report=_size_report(part, cfg, assignment.block_groups, heads),
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


def verify_artifact(
    artifact: MergedArtifact, originals: list[Checkpoint]
) -> ReconstructionReport:
    """L2 distance between each reconstructed block and the original
    fine-tuned values; exact_blocks counts bit-exact (zero-distance) blocks."""
    part = artifact.partition
    rows: list[tuple[int, str, float]] = []
    exact = 0
    scratch = np.empty(max((b.dim for b in part.blocks), default=0), np.float32)
    for task in range(artifact.num_tasks):
        for block in part.blocks:
            got = _task_block(artifact, task, block.block_id, scratch[: block.dim]).astype(np.float64)
            want = flatten_block(originals[task], block).astype(np.float64)
            l2 = float(np.linalg.norm(got - want))
            rows.append((task, block.key, l2))
            if l2 == 0.0:
                exact += 1
    return ReconstructionReport(rows=rows, exact_blocks=exact)


# ---------------------------------------------------------------------------
# Export / load
# ---------------------------------------------------------------------------

def _manifest(part: BlockPartition, cfg: MergerConfig, num_tasks: int, block_groups,
              heads: list[dict[str, np.ndarray]], size_report: SizeReport, fingerprint: str) -> dict:
    return {
        "format": "blockmerge-artifact",
        "version": MANIFEST_VERSION,
        "algorithm": cfg.algorithm,
        "config": {f: getattr(cfg, f) for f in CONFIG_NUMBERS},
        "fingerprint": fingerprint,
        "num_tasks": num_tasks,
        "blocks": [
            {
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
        "excluded": {str(task): list(head) for task, head in enumerate(heads)},
        "groups": {block.key: [list(g) for g in groups]
                   for block, groups in zip(part.blocks, block_groups)},
        "size_report": size_report.as_dict(),
    }


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _drop_stale(out_dir: str) -> None:
    """Remove an earlier run's manifest and ``groups.json`` from
    ``out_dir``, so neither sits next to the archive about to replace its
    own."""
    for stale in (MANIFEST_NAME, GROUPS_NAME):
        try:
            os.unlink(os.path.join(out_dir, stale))
        except FileNotFoundError:
            pass


def export_manifest(artifact: MergedArtifact, out_dir: str) -> None:
    """Write one archive holding every payload (``tensors.safetensors``),
    then ``manifest.json``. An earlier run's manifest and ``groups.json``
    are removed before the archive is renamed into place.

    The manifest is ``version`` 3 and states each fact once. ``groups`` is
    ``{block_key: [[member ids], ...]}``, the layout of ``groups.json``; a
    group's id is its running index over ``blocks`` order, then list order,
    the numbering build_artifact and load_artifact give ``artifact.groups``.
    Routing, payload kinds, which blocks keep a pretrained copy and the size
    report all follow from the groups and the algorithm, so load_artifact
    derives them. ``size_report`` and each block's ``dim`` and ``nbytes``
    are written for readers of the file; load_artifact recomputes them. The
    JSON is compact, with sorted keys.

    Archive names and order are those of _archive_layout.
    """
    part = artifact.partition
    by_block: list[list[StoredGroup]] = [[] for _ in part.blocks]
    for g in artifact.groups:
        by_block[g.block_id].append(g)
    block_groups = [[g.members for g in groups] for groups in by_block]
    entries, spans = _archive_layout(part, artifact.config, block_groups, artifact.heads)
    arrays: list[np.ndarray] = []
    for kind, b in spans:
        if kind == "pre":
            arrays += _block_arrays(part.blocks[b], artifact.pretrained_blocks[b])
        elif kind == "groups":
            arrays += [a for g in by_block[b] for a in _payload_arrays(part.blocks[b], g)]
        else:
            arrays += [arr for head in artifact.heads for arr in head.values()]
    os.makedirs(out_dir, exist_ok=True)
    tensors = {name: arr for (name, _, _), arr in zip(entries, arrays, strict=True)}
    _drop_stale(out_dir)
    write_archive(Checkpoint(tensors=tensors), os.path.join(out_dir, TENSORS_NAME))
    _write_json(_manifest(part, artifact.config, artifact.num_tasks, block_groups, artifact.heads,
                          artifact.size_report, artifact.fingerprint),
                os.path.join(out_dir, MANIFEST_NAME))


@dataclass
class SweepSize:
    """What export_sweep did for one size."""

    merged: int  # groups merged for this size
    reused: int  # groups whose payload the previous size had built
    units: Fraction  # achieved size, as in the size report


def export_sweep(
    assignments: list[GroupAssignment],
    out_dirs: list[str],
    tv: TaskVectorSet,
    cfg: MergerConfig,
    fingerprint: str = "",
) -> list[SweepSize]:
    """Write the artifact of every assignment into its directory in one
    block-major pass, holding no size's payloads as a whole.

    The files are those build_artifact + export_manifest would write for
    each assignment, byte for byte, and every input comes from ``tv`` as it
    does there. Every archive's layout follows from its
    groups (_archive_layout), so each header is written first, one size at
    a time, and only the layout's spans are kept after it. Then, block
    by block, each size's groups of that block are built in the order the
    assignments are given, each written at its offset as one span, and the
    block is dropped. A group whose members the previous size also grouped
    in this block shares that payload instead of merging again: pass the
    sizes largest first, so every smaller size only coarsens the last.
    Once every size's payloads of a block are written, the mapped inputs'
    pages up to the end of that block are released (``tv.release``); the
    heads written last fault back in.

    Each archive is written as ``tensors.safetensors.partial`` and renamed
    into place once every archive is complete; ``manifest.json`` is written
    after that. A stale manifest and a stale ``groups.json`` are removed
    before the rename, so no earlier run's groups sit next to the new
    archive. On failure the partial files are removed. The inputs are
    checked as build_artifact checks them, before any file is created.
    """
    heads = _checked_heads(tv, cfg, assignments)
    if len(out_dirs) != len(assignments):
        raise ValueError(f"{len(assignments)} assignments but {len(out_dirs)} output directories")
    part = tv.partition
    merged = [0] * len(assignments)
    reused = [0] * len(assignments)
    archives: list[StreamedArchive] = []
    size_spans: list[dict] = []
    try:
        for asg, out_dir in zip(assignments, out_dirs):
            entries, spans = _archive_layout(part, cfg, asg.block_groups, heads)
            os.makedirs(out_dir, exist_ok=True)
            archives.append(StreamedArchive(os.path.join(out_dir, TENSORS_NAME), entries))
            size_spans.append(spans)
            del entries  # only the spans are read once the header is written
        for block in part.blocks:
            b = block.block_id
            base = tv.pretrained_block(b)
            known: dict[tuple[int, ...], StoredGroup] = {}  # the previous size's payloads
            for i, (asg, spans, archive) in enumerate(zip(assignments, size_spans, archives)):
                payloads = {}
                for members in asg.block_groups[b]:
                    g = known.get(members)
                    if g is not None:
                        reused[i] += 1
                    else:
                        # group ids are the layout's; the payload's own is not read
                        g = _group_payload(-1, cfg, tv, block, base, members)
                        merged[i] += len(members) > 1
                    payloads[members] = g
                archive.write(spans["groups", b],
                              [a for g in payloads.values() for a in _payload_arrays(block, g)])
                if ("pre", b) in spans:
                    archive.write(spans["pre", b], _block_arrays(block, base))
                known = payloads
            tv.release(b)
        head_arrays = [arr for head in heads for arr in head.values()]
        for spans, archive in zip(size_spans, archives):
            archive.write(spans["heads", -1], head_arrays)
        for out_dir, archive in zip(out_dirs, archives):
            _drop_stale(out_dir)
            archive.commit()
    except BaseException:
        for archive in archives:
            archive.discard()
        raise

    fingerprint = fingerprint or cfg.fingerprint()
    done = []
    for i, (asg, out_dir) in enumerate(zip(assignments, out_dirs)):
        report = _size_report(part, cfg, asg.block_groups, heads)
        _write_json(_manifest(part, cfg, tv.num_tasks, asg.block_groups, heads, report, fingerprint),
                    os.path.join(out_dir, MANIFEST_NAME))
        done.append(SweepSize(merged[i], reused[i], report.units))
    return done


def _need(ok, what: str, *args) -> None:
    # the message is formatted only on failure: this runs per block and tensor
    if not ok:
        raise MalformedArtifact("manifest: " + what.format(*args))


def _check_manifest(manifest) -> list[Block]:
    """Raise MalformedArtifact unless ``manifest`` has every field
    load_artifact reads, with the right types and ranges, at least one
    block, and member lists that hold every task 0..M-1 exactly once in
    each block. Returns the blocks, with ``dim`` and ``nbytes`` derived from
    their shapes and dtypes (written values must agree). The tensors the
    manifest names are checked as they are loaded."""

    def is_int(x, lo: int = 0) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and x >= lo

    def is_num(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    _need(isinstance(manifest, dict), "not a JSON object")
    version = manifest.get("version")
    _need(is_int(version) and version == MANIFEST_VERSION, "version {!r} is not {}", version,
          MANIFEST_VERSION)
    for section, kind in (("blocks", list), ("groups", dict), ("excluded", dict),
                          ("config", dict), ("name_order", list)):
        _need(isinstance(manifest.get(section, [] if section == "name_order" else None), kind),
              "{!r} must be a JSON {}", section, "array" if kind is list else "object")
    _need(manifest.get("algorithm") in ALGORITHMS, "unknown algorithm {!r}", manifest.get("algorithm"))
    _need(all(is_num(manifest["config"].get(f)) for f in CONFIG_NUMBERS), "config values must be numbers")
    _need(isinstance(manifest.get("fingerprint"), str), "fingerprint must be a string")
    m = manifest.get("num_tasks")
    _need(is_int(m, 1), "num_tasks must be an integer >= 1, got {!r}", m)
    _need(all(isinstance(n, str) for n in manifest.get("name_order", [])), "name_order must list names")

    blocks = []
    for i, spec in enumerate(manifest["blocks"]):
        _need(isinstance(spec, dict) and isinstance(spec.get("key"), str),
              "block {} must be an object with a string key", i)
        names, shapes, codes = spec.get("tensors"), spec.get("shapes"), spec.get("dtypes")
        _need(isinstance(names, list) and isinstance(shapes, list) and isinstance(codes, list)
              and 0 < len(names) == len(shapes) == len(codes)
              and all(isinstance(n, str) for n in names)
              and all(isinstance(sh, list) and all(is_int(d) for d in sh) for sh in shapes)
              and all(c in ("F32", "F16") for c in codes),
              "block {} needs parallel tensors/shapes/dtypes lists", i)
        shapes = [tuple(sh) for sh in shapes]
        dim = sum(math.prod(sh) for sh in shapes)
        nbytes = sum(math.prod(sh) * DTYPES[c].itemsize for sh, c in zip(shapes, codes))
        _need(spec.get("dim", dim) == dim and spec.get("nbytes", nbytes) == nbytes,
              "block {} dim/nbytes disagree with its shapes and dtypes", i)
        blocks.append(Block(i, spec["key"], list(names), shapes, list(codes), dim, nbytes))
    _need(sum(b.nbytes for b in blocks) > 0, "blocks must hold at least one parameter")
    keys = {b.key for b in blocks}
    _need(len(keys) == len(blocks), "block keys must be unique")
    order = set(manifest.get("name_order", []))
    _need(not order or all(n in order for b in blocks for n in b.tensor_names),
          "name_order must list every block tensor")

    groups = manifest["groups"]
    _need(set(groups) == keys, "groups must have one entry per block")
    for key, lists in groups.items():
        # counts first: nothing of size num_tasks is built before they agree
        _need(isinstance(lists, list) and all(isinstance(g, list) and g for g in lists)
              and sum(map(len, lists)) == m
              and all(is_int(t) and t < m for g in lists for t in g)
              and len({t for g in lists for t in g}) == m,
              "block {!r} groups must hold every task 0..{} exactly once", key, m - 1)

    task_ids = {str(t) for t in range(m)}  # m is bounded by the member lists now
    for task, names in manifest["excluded"].items():
        _need(task in task_ids and isinstance(names, list) and all(isinstance(n, str) for n in names),
              "excluded entry {!r} must list head names of a known task", task)
    return blocks


def load_artifact(out_dir: str) -> MergedArtifact:
    """Inverse of export_manifest.

    The manifest is checked against its schema first, and each tensor it
    names against the archive as it is loaded (MalformedArtifact); a
    manifest of any version but 3 is malformed. Everything the manifest does
    not state is derived: the routing from the group members; a group's
    payload is masked iff the algorithm is masked and the group has two or
    more members; each block's ``dim`` and ``nbytes`` from its shapes and
    dtypes; and the size report the way build_artifact computes it (the
    written ``size_report`` is never read). An emr artifact must hold a
    rescaler entry for every masked group.

    Float32 payloads, packed masks and pretrained blocks stay views of the
    archive's buffer (a block of several tensors as one span of it), so a
    float32 artifact is held once. The archives export_manifest and
    export_sweep write are mapped (read_archive), so loading reads the
    header, the heads and the rescalers; a payload's pages are read when a
    reconstruction first touches them. Head tensors and rescalers are
    copied, so a float16 archive without masked groups is freed once its
    blocks have been widened; with masked groups, the mask views keep its
    buffer alive.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise MalformedArtifact(f"{path}: not valid JSON: {exc}") from None
    blocks = _check_manifest(manifest)
    archive = read_archive(os.path.join(out_dir, TENSORS_NAME))
    index = {name: i for i, name in enumerate(archive.layout.names)}  # header positions

    def tensor(name: str, shape: tuple[int, ...], kind: str) -> np.ndarray:
        arr = archive.tensors.get(name)
        _need(arr is not None and arr.shape == shape and arr.dtype.kind == kind,
              "archive lacks tensor {!r} of shape {}", name, shape)
        return arr

    def block_flat(prefix: str, block: Block) -> np.ndarray:
        parts = [tensor(f"{prefix}.{n}", shape, "f").astype(np.float32, copy=False).ravel()
                 for n, shape in zip(block.tensor_names, block.shapes)]
        if len(parts) == 1:
            return parts[0]
        # export writes a block's tensors back to back, so float32 ones are
        # one span of the archive; anything else is joined into a copy
        span = tensor_span(archive, [f"{prefix}.{n}" for n in block.tensor_names], index)
        return span if span is not None and span.dtype == np.float32 else np.concatenate(parts)

    part = BlockPartition(
        blocks=blocks,
        tensor_to_block={n: b.block_id for b in blocks for n in b.tensor_names},
        excluded=[],
        name_order=list(manifest.get("name_order", [])),
    )
    cfg = MergerConfig(algorithm=manifest["algorithm"],
                       **{f: manifest["config"][f] for f in CONFIG_NUMBERS})
    m = manifest["num_tasks"]
    block_groups = [manifest["groups"][b.key] for b in blocks]

    groups: list[StoredGroup] = []
    routing = [[-1] * len(blocks) for _ in range(m)]
    pretrained_blocks = {}
    for block, member_lists in zip(blocks, block_groups):
        b = block.block_id
        for members in map(tuple, member_lists):
            gid = len(groups)
            flat = block_flat(f"g{gid}", block)
            if cfg.masked and len(members) > 1:
                masks = tensor(f"mask.g{gid}", (len(members), (block.dim + 7) // 8), "u")
                gammas = (np.array(tensor(f"gamma.g{gid}", (len(members),), "f"), dtype=np.float32)
                          if cfg.has_rescalers else None)
                groups.append(StoredGroup(gid, b, members, "masked", unified=flat, masks=masks,
                                          gammas=gammas))
                if b not in pretrained_blocks:
                    pretrained_blocks[b] = block_flat("pre", block)
            else:
                groups.append(StoredGroup(gid, b, members, "dense", dense=flat))
            for k in members:
                routing[k][b] = gid

    heads: list[dict[str, np.ndarray]] = [{} for _ in range(m)]
    for task_str, names in manifest["excluded"].items():
        task = int(task_str)
        for name in names:
            key = f"head.t{task}.{name}"
            _need(key in archive.tensors, "archive lacks head tensor {!r}", key)
            heads[task][name] = archive.tensors[key].copy()

    return MergedArtifact(
        partition=part,
        config=cfg,
        num_tasks=m,
        groups=groups,
        routing=routing,
        pretrained_blocks=pretrained_blocks,
        heads=heads,
        size_report=_size_report(part, cfg, block_groups, heads),
        fingerprint=manifest["fingerprint"],
    )
