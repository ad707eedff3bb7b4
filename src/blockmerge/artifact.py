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

A stored group's payload is one flat float32 row per block tensor (a block
of one tensor has one), so a group of a block reads the same whether it was
built in memory or loaded.

On disk an artifact is a version 4 manifest, which lists each block's
groups by their members, plus one archive that stacks each block's groups:
one entry per block tensor, one mask entry and one rescaler entry per
block, so the number of entries does not grow with the number of groups
(_archive_layout). load_artifact derives routing, payload kinds and sizes
from the manifest (see export_manifest). Since the layout follows from the
groups alone, a size sweep (export_sweep) writes every size's header first
and then its payloads block by block, never holding a whole size in memory;
build_artifact and export_manifest build and write one size in memory, with
the same payloads and bytes. Both write a block's groups through one span
builder (_block_span), row views in archive order, without stacking them.

A loaded artifact keeps its float32 payload rows, mask rows and pretrained
blocks as read-only views of the archive's buffer, a mapping of the file
for every archive written here. Reconstruction only reads those buffers
and always returns fresh arrays: each call writes every block into one new
float32 buffer (masked blocks rebuilt as pretrained + masked product, dense
payloads copied) tensor by tensor and narrows float16 tensors from it. So
an output never aliases the artifact, and reconstruction never depends on
what was reconstructed before.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    write_archive,  # noqa: F401  (a call site perfbench/spans.py patches by name)
)

MANIFEST_NAME = "manifest.json"
TENSORS_NAME = "tensors.safetensors"
GROUPS_NAME = "groups.json"  # written by the CLI's merge next to each manifest
MANIFEST_VERSION = 4


@dataclass
class StoredGroup:
    group_id: int
    block_id: int
    members: tuple[int, ...]
    payload: str  # "dense" | "masked"
    # one flat float32 row per block tensor, in block order: the final block
    # weights of a dense group, the unified task vector of a masked one
    rows: tuple[np.ndarray, ...]
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
    """One size's stored payloads. ``size_report`` is not stored: it
    follows from the groups and heads, computed when first read."""

    partition: BlockPartition
    config: MergerConfig
    num_tasks: int
    groups: list[StoredGroup]
    routing: list[list[int]]  # routing[task][block_id] -> group_id
    pretrained_blocks: dict[int, np.ndarray]  # only blocks holding masked groups
    heads: list[dict[str, np.ndarray]]  # per task, tensors outside every block
    fingerprint: str = ""

    @cached_property
    def size_report(self) -> SizeReport:
        block_groups = [[g.members for g in groups] for groups in _by_block(self)]
        return _size_report(self.partition, self.config, block_groups, self.heads)


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


def _by_block(artifact: MergedArtifact) -> list[list[StoredGroup]]:
    """Each block's groups, in group-id order."""
    out: list[list[StoredGroup]] = [[] for _ in artifact.partition.blocks]
    for g in artifact.groups:
        out[g.block_id].append(g)
    return out


def _size_report(part: BlockPartition, cfg: MergerConfig, block_groups,
                 heads: list[dict[str, np.ndarray]]) -> SizeReport:
    """Stored bytes of the grouping (``block_groups[b]`` lists block b's
    member lists) under ``cfg``, plus the head tensors' bytes."""
    sm = SizeModel.from_partition(part, cfg)
    stored = sm.stored_bytes(block_groups)  # one walk over the groups
    return SizeReport(
        dense_bytes=stored["dense"],
        mask_bytes=stored["mask"],
        pretrained_bytes=stored["pretrained"],
        scalar_bytes=stored["scalar"],
        head_bytes=sum(arr.nbytes for h in heads for arr in h.values()),
        unit_bytes=sm.unit_bytes,
        units=sm.units(stored),
    )


def _tensor_rows(block: Block, flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """A flat block as one flat view per tensor, in block order."""
    return tuple(flat[offset : offset + n] for _, offset, n, _, _ in _block_slices(block))


def _archive_rows(block: Block, rows) -> list[np.ndarray]:
    """One row per block tensor, each in its tensor's archive dtype (the
    row itself where nothing is narrowed)."""
    return [row.astype(DTYPES[code], copy=False) for row, code in zip(rows, block.dtypes)]


def _block_span(block: Block, groups: list[StoredGroup]) -> list[np.ndarray]:
    """The arrays of a block's ``("groups", b)`` span, in archive order and
    views where nothing is narrowed: tensor by tensor, that tensor's row of
    every group in group-id order; then the mask rows of every masked group
    and, for emr, their rescalers. Written back to back, they are the
    block's stacked entries, so no writer stacks them."""
    arrays = [row for rows in zip(*(_archive_rows(block, g.rows) for g in groups)) for row in rows]
    masked = [g for g in groups if g.payload == "masked"]
    arrays += [g.masks for g in masked]
    arrays += [g.gammas for g in masked if g.gammas is not None]
    return arrays


def _archive_layout(part: BlockPartition, cfg: MergerConfig, block_groups,
                    heads: list[dict[str, np.ndarray]]):
    """The archive of an artifact, from its groups alone: the entries
    ``(name, dtype code, shape)`` in archive order, and the ``(begin, end)``
    data-section range of each span of them, keyed in archive order.

    The spans are ``("pre", b)`` for each block holding a masked group (the
    pretrained block, its tensors named ``pre.<tensor>``), then
    ``("groups", b)`` for every block (see _block_span): ``g.<tensor>`` for
    each block tensor, shape ``(G_b, *shape)`` with one row per group in
    group-id order; then, when the block holds masked groups,
    ``mask.<block key>`` (U8, shape ``(sum n, ceil(d/8))``: the member rows
    of its masked groups, in group order, then member order) and, for emr,
    ``gamma.<block key>`` (F32, ``(sum n,)``). Group ids run over blocks,
    then list order. Last comes ``("heads", -1)``: ``head.t<task>.<tensor>``
    for each task's tensors outside the partition.
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
    for block, groups in zip(part.blocks, block_groups):
        items = [(f"g.{name}", code, (len(groups), *shape))
                 for name, shape, code in zip(block.tensor_names, block.shapes, block.dtypes)]
        masked_rows = sum(len(g) for g in groups if len(g) > 1) if cfg.masked else 0
        if masked_rows:
            items.append((f"mask.{block.key}", "U8", (masked_rows, (block.dim + 7) // 8)))
            if cfg.has_rescalers:
                items.append((f"gamma.{block.key}", "F32", (masked_rows,)))
        span(("groups", block.block_id), items)
    span(("heads", -1), [(_head_key(task, name), dtype_code(arr), arr.shape)
                         for task, head in enumerate(heads) for name, arr in head.items()])
    return entries, spans


def _head_key(task: int, name: str) -> str:
    return f"head.t{task}.{name}"


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
        return StoredGroup(gid, b, members, "dense", _tensor_rows(block, dense))
    out = merge_group(cfg, tv, b, members)
    members = tuple(sorted(members))
    if cfg.masked:
        return StoredGroup(gid, b, members, "masked", _tensor_rows(block, out.unified),
                           masks=np.packbits(out.masks, axis=1), gammas=out.rescalers)
    return StoredGroup(gid, b, members, "dense", _tensor_rows(block, base + out.unified))


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
        fingerprint=fingerprint or cfg.fingerprint(),
    )


def _task_block(artifact: MergedArtifact, task: int, block_id: int, out: np.ndarray) -> np.ndarray:
    """Write one task's flat float32 block into ``out``, tensor by tensor,
    and return it. A masked block unpacks the task's mask row once and is
    built in the operand order pretrained + gamma * (unified * mask)."""
    group = artifact.groups[artifact.routing[task][block_id]]
    if group.payload == "dense":
        return np.concatenate(group.rows, out=out)
    idx = group.members.index(task)
    # unpacked bits are 0/1 bytes, so they are a valid bool buffer
    mask = np.unpackbits(group.masks[idx], count=out.size).view(bool)
    pos = 0
    for row in group.rows:
        end = pos + row.size
        np.multiply(row, mask[pos:end], out=out[pos:end])
        pos = end
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


def _pre_span(block: Block, base: np.ndarray) -> list[np.ndarray]:
    return _archive_rows(block, _tensor_rows(block, base))


def export_manifest(artifact: MergedArtifact, out_dir: str) -> None:
    """Write one archive holding every payload (``tensors.safetensors``),
    then ``manifest.json``. An earlier run's manifest and ``groups.json``
    are removed before the archive is renamed into place.

    The manifest is ``version`` 4 and states each fact once. ``groups`` is
    ``{block_key: [[member ids], ...]}``, the layout of ``groups.json``; a
    group's id is its running index over ``blocks`` order, then list order,
    the numbering build_artifact and load_artifact give ``artifact.groups``,
    and its position within its block is its row of the block's stacked
    entries. Routing, payload kinds, which blocks keep a pretrained copy and
    the size report all follow from the groups and the algorithm, so
    load_artifact derives them. ``size_report`` and each block's ``dim`` and
    ``nbytes`` are written for readers of the file; load_artifact recomputes
    them. The JSON is compact, with sorted keys.

    Archive names and order are those of _archive_layout. The archive is
    streamed span by span, as export_sweep writes it, from the payload rows
    themselves (_block_span), so no stacked copy is made.
    """
    part = artifact.partition
    by_block = _by_block(artifact)
    block_groups = [[g.members for g in groups] for groups in by_block]
    entries, spans = _archive_layout(part, artifact.config, block_groups, artifact.heads)
    os.makedirs(out_dir, exist_ok=True)
    archive = StreamedArchive(os.path.join(out_dir, TENSORS_NAME), entries)
    try:
        for (kind, b), span in spans.items():
            if kind == "pre":
                archive.write(span, _pre_span(part.blocks[b], artifact.pretrained_blocks[b]))
            elif kind == "groups":
                archive.write(span, _block_span(part.blocks[b], by_block[b]))
            else:
                archive.write(span, [arr for head in artifact.heads for arr in head.values()])
        _drop_stale(out_dir)
        archive.commit()
    except BaseException:
        archive.discard()
        raise
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
    checked as build_artifact checks them, before any file is created, and
    so are ``out_dirs``: ValueError when two of them name one directory.
    """
    heads = _checked_heads(tv, cfg, assignments)
    if len(out_dirs) != len(assignments):
        raise ValueError(f"{len(assignments)} assignments but {len(out_dirs)} output directories")
    if len(set(map(os.path.realpath, out_dirs))) != len(out_dirs):
        raise ValueError(f"output directories repeat: {out_dirs}")
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
                archive.write(spans["groups", b], _block_span(block, list(payloads.values())))
                if ("pre", b) in spans:
                    archive.write(spans["pre", b], _pre_span(block, base))
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
    their shapes and dtypes (written values must agree). load_artifact
    checks the archive against the layout these imply."""

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
        # counts first, so nothing of size num_tasks is built before they agree
        _need(isinstance(lists, list) and set(map(type, lists)) == {list} and all(lists)
              and sum(map(len, lists)) == m
              and set(map(type, flat := [t for g in lists for t in g])) == {int}
              and sorted(flat) == list(range(m)),
              "block {!r} groups must hold every task 0..{} exactly once", key, m - 1)

    task_ids = {str(t) for t in range(m)}  # m is bounded by the member lists now
    for task, names in manifest["excluded"].items():
        _need(task in task_ids and isinstance(names, list) and all(isinstance(n, str) for n in names),
              "excluded entry {!r} must list head names of a known task", task)
    return blocks


def load_artifact(out_dir: str) -> MergedArtifact:
    """Inverse of export_manifest.

    The manifest is checked against its schema first (a config value out
    of its algorithm's range included); a manifest of any version but 4 is
    malformed. Everything it does not state is derived: the routing from
    the group members; a group's payload is masked iff the algorithm is
    masked and the group has two or more members; each block's ``dim`` and
    ``nbytes`` from its shapes and dtypes; and from all of these the
    archive layout (_archive_layout). Then one check: the header must list
    exactly the layout's entries, with the same names, dtypes and shapes,
    in the same order, then the heads ``excluded`` names, task by task (a
    head's dtype and shape are the archive's own); otherwise
    MalformedArtifact. Every read after it takes its entry as it is. The
    written ``size_report`` is never read (see MergedArtifact).

    A group's payload rows are its rows of the block's ``g.<tensor>``
    entries; a masked group's mask rows and rescalers are its members' rows
    of the block's mask and rescaler entries. A block keeps a pretrained
    copy exactly when the layout has a ``("pre", b)`` span, which for a
    float32 block is viewed as float32 in place. Float32 rows, mask rows
    and pretrained blocks stay views of the archive's buffer, so a float32
    artifact is held once. A float16 entry is widened once per block, and
    rescalers are copied once per block. The archives export_manifest and
    export_sweep write are mapped (read_archive), so loading reads the
    header, the heads and the rescalers; a payload's pages are read when a
    reconstruction first touches them. Head tensors are copied, so a
    float16 archive without masked groups is freed once its blocks have
    been widened; with masked groups, the mask views keep its buffer alive.
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
    part = BlockPartition(
        blocks=blocks,
        tensor_to_block={n: b.block_id for b in blocks for n in b.tensor_names},
        excluded=[],
        name_order=list(manifest.get("name_order", [])),
    )
    try:
        cfg = MergerConfig(algorithm=manifest["algorithm"],
                           **{f: manifest["config"][f] for f in CONFIG_NUMBERS})
    except ValueError as exc:
        raise MalformedArtifact(f"manifest: config: {exc}") from None
    m = manifest["num_tasks"]
    block_groups = [[tuple(g) for g in manifest["groups"][b.key]] for b in blocks]
    head_names = [manifest["excluded"].get(str(task), []) for task in range(m)]

    entries, spans = _archive_layout(part, cfg, block_groups, [])
    names = [name for name, _, _ in entries]
    names += [_head_key(task, name) for task, head in enumerate(head_names) for name in head]
    tensors = archive.tensors
    _need(archive.layout.names == tuple(names) and all(
        tensors[name].dtype == DTYPES[code] and tensors[name].shape == shape
        for name, code, shape in entries), "archive entries disagree with the manifest")

    data, start = archive.layout.data, archive.layout.offsets[0]
    groups: list[StoredGroup] = []
    routing = [[-1] * len(blocks) for _ in range(m)]
    pretrained_blocks = {}
    for block, member_lists in zip(blocks, block_groups):
        b = block.block_id
        count = len(member_lists)
        # per tensor, every group's row; a float16 entry is widened here, once
        stacked = [tensors[f"g.{name}"].astype(np.float32, copy=False).reshape(count, math.prod(shape))
                   for name, shape in zip(block.tensor_names, block.shapes)]
        masked = ("pre", b) in spans
        if masked:
            masks = tensors[f"mask.{block.key}"]
            gammas = np.array(tensors[f"gamma.{block.key}"], np.float32) if cfg.has_rescalers else None
            if all(code == "F32" for code in block.dtypes):
                begin, end = spans["pre", b]
                pretrained_blocks[b] = data[start + begin : start + end].view(np.float32)
            else:
                pretrained_blocks[b] = np.concatenate(
                    [tensors[f"pre.{name}"].ravel() for name in block.tensor_names], dtype=np.float32)
        row = 0
        for members, payload in zip(member_lists, zip(*stacked)):
            gid = len(groups)
            if masked and len(members) > 1:
                end = row + len(members)
                groups.append(StoredGroup(gid, b, members, "masked", payload, masks=masks[row:end],
                                          gammas=None if gammas is None else gammas[row:end]))
                row = end
            else:
                groups.append(StoredGroup(gid, b, members, "dense", payload))
            for k in members:
                routing[k][b] = gid

    return MergedArtifact(
        partition=part,
        config=cfg,
        num_tasks=m,
        groups=groups,
        routing=routing,
        pretrained_blocks=pretrained_blocks,
        heads=[{name: tensors[_head_key(task, name)].copy() for name in head}
               for task, head in enumerate(head_names)],
        fingerprint=manifest["fingerprint"],
    )
