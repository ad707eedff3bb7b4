"""Blocking of tensor names and per-block task vectors.

A *block* is an ordered list of tensor names treated as one unit of merging
(an attention module, an MLP, a layer norm, ...). A task vector for block
``b`` of task ``k`` is the flattened float32 difference between the
fine-tuned and pretrained values of the block's tensors, concatenated in
block order, row-major per tensor.

Task vectors are built on demand: a ``TaskVectorSet`` refers to the read
checkpoints and ``rows`` builds one block's rows for the members asked for,
into a new array the caller owns.
No stage holds the whole (M, D) set; a global trim keeps only its survivors.

Mapped inputs are given back as the stages finish with them
(``TaskVectorSet.release``), so the input pages a process holds are bounded
by a few blocks of all tasks, not by the inputs.
"""

from __future__ import annotations

import mmap
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, EmptyPartition
from .naming import compile_name_pattern
from .tensor_store import Checkpoint, dtype_code, release_pages, validate_aligned


@dataclass(frozen=True)
class PartitionRule:
    """First matching rule wins; ``{name}`` captures in ``pattern`` may be
    referenced by the ``block_key`` template."""

    pattern: str
    block_key: str

    def compiled(self) -> re.Pattern:
        return compile_name_pattern(self.pattern)


def default_transformer_rules(prefix: str = "blocks") -> list[PartitionRule]:
    """Per-layer attention / MLP / layer-norm blocks for ``{prefix}.{L}.<part>.*``
    names; everything else falls through to singleton blocks."""
    return [
        PartitionRule(f"{prefix}.{{L}}.attn.*", "L{L}.attn"),
        PartitionRule(f"{prefix}.{{L}}.mlp.*", "L{L}.mlp"),
        PartitionRule(f"{prefix}.{{L}}.ln1.*", "L{L}.ln1"),
        PartitionRule(f"{prefix}.{{L}}.ln2.*", "L{L}.ln2"),
    ]


@dataclass
class Block:
    block_id: int
    key: str
    tensor_names: list[str]
    shapes: list[tuple[int, ...]]
    dtypes: list[str]
    dim: int  # total element count
    nbytes: int  # stored bytes at the archive dtypes


@dataclass
class BlockPartition:
    blocks: list[Block]
    tensor_to_block: dict[str, int]
    excluded: list[str]
    name_order: list[str] = field(default_factory=list)  # archive order, incl. excluded

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_keys(self) -> list[str]:
        return [b.key for b in self.blocks]

    @property
    def block_dims(self) -> list[int]:
        return [b.dim for b in self.blocks]

    @property
    def block_nbytes(self) -> list[int]:
        return [b.nbytes for b in self.blocks]

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


def partition(
    pretrained: Checkpoint,
    rules: list[PartitionRule],
    exclude: list[str] | None = None,
) -> BlockPartition:
    """Group tensor names into blocks.

    Tensors matching an exclude pattern are set aside (carried through
    verbatim per task, never merged). Tensors matching no rule become
    singleton blocks keyed by their own name. Block order follows the first
    occurrence of each block's tensors in the archive.
    """
    exclude_pats = [compile_name_pattern(p) for p in (exclude or [])]
    compiled = [(r.compiled(), r.block_key) for r in rules]

    excluded: list[str] = []
    keyed: dict[str, list[str]] = {}
    for name in pretrained.tensors:
        if any(p.fullmatch(name) for p in exclude_pats):
            excluded.append(name)
            continue
        key = None
        for pat, template in compiled:
            m = pat.fullmatch(name)
            if m:
                try:
                    key = template.format(**m.groupdict())
                except (KeyError, IndexError) as exc:
                    raise ValueError(f"block_key {template!r} references unknown capture: {exc}")
                break
        keyed.setdefault(key if key is not None else name, []).append(name)

    if not keyed:
        raise EmptyPartition("all tensors are excluded; nothing to partition")

    blocks: list[Block] = []
    tensor_to_block: dict[str, int] = {}
    for block_id, (key, names) in enumerate(keyed.items()):
        dim = 0
        nbytes = 0
        shapes = []
        dtypes = []
        for n in names:
            arr = pretrained.tensors[n]
            dim += arr.size
            nbytes += arr.nbytes
            shapes.append(tuple(arr.shape))
            dtypes.append(dtype_code(arr))
            tensor_to_block[n] = block_id
        blocks.append(Block(block_id, key, list(names), shapes, dtypes, dim, nbytes))
    return BlockPartition(
        blocks=blocks,
        tensor_to_block=tensor_to_block,
        excluded=excluded,
        name_order=list(pretrained.tensors),
    )


class TaskVectorSet:
    """The task vectors of ``finetuned`` against ``pretrained`` over a
    partition, built one block at a time from the checkpoints.

    ``rows(b, members)`` returns block ``b``'s (n, d_b) float32 rows, row i
    holding the flattened difference of task ``members[i]``'s tensors
    against the pretrained values. The set holds no (M, d_b) arrays: it
    refers to the checkpoints, and ``rows`` subtracts each tensor straight
    into its slice of a block's rows, widened to float32 before subtracting
    so float16 archives lose nothing in the difference. Float32 pretrained
    tensors are held as views; a float16 one is widened to float32 once,
    on construction; all are read-only, so an artifact that shares one
    (``pretrained_block``) cannot write into the set.
    ``compute_task_vectors`` checks that the checkpoints align before
    building a set. It is the one handle on the inputs: artifacts take
    their pretrained blocks from ``pretrained_block``, and each task's
    fine-tuned blocks and head from ``finetuned``, the checkpoints in task
    order.

    ``trim_ratio`` records a global magnitude trim applied up front (None
    means untrimmed; ``mergers.ties_trim`` sets it). ``keep_largest``
    records that trim on the set itself: per block, a packed keep-mask row
    per task plus the kept values in flat order, from which the trimmed rows
    are rebuilt. A trim that keeps everything stores nothing.

    ``block_vectors`` yields ``rows(b)`` for each block in order; the
    pipeline never reads it.

    ``release(b)`` gives back the pages of the mapped inputs (the
    pretrained and every fine-tuned archive that read_archive mapped) from
    each file's start up to the end of block ``b``'s last tensor, where the
    file's header puts it (``Checkpoint.layout``): a watermark, not block
    ``b``'s own range, so pages that a later fault mapped back in around an
    earlier block go too. The similarity pass (``similarity.pairwise_all``)
    and the streamed sweep (``artifact.export_sweep``) release each block
    once they are done with it, and ``keep_largest`` releases each task's
    whole input after its trim pass and the pretrained input at the end. A released page faults back
    in with the same bytes, so a release that comes too early, as when
    blocks are not in file order, costs a refault, never a byte.
    """

    def __init__(self, partition: BlockPartition, pretrained: Checkpoint,
                 finetuned: list[Checkpoint]):
        self.partition = partition
        self.num_tasks = len(finetuned)
        self.trim_ratio: float | None = None
        # flat float32 pretrained tensors by name, read-only; keeps no
        # reference to the pretrained checkpoint itself
        self._base = {name: pretrained.tensors[name].astype(np.float32, copy=False).ravel()
                      for block in partition.blocks for name in block.tensor_names}
        for base in self._base.values():
            base.flags.writeable = False
        self.finetuned = list(finetuned)
        # set by keep_largest: per block, (M, ceil(d_b / 8)) packed keep masks
        # and each task's kept values
        self._kept: list[tuple[np.ndarray, list[np.ndarray]]] | None = None
        # per input (the pretrained one first, then task k at k + 1): its
        # mapping and, per block, the file offset just past the block's last
        # tensor, or None for an input that read_archive did not map
        self._pages = [_block_ends(ckpt, partition) for ckpt in [pretrained, *self.finetuned]]

    @property
    def block_vectors(self):
        return (self.rows(b) for b in range(self.partition.num_blocks))

    def rows(self, b: int, members=None) -> np.ndarray:
        """Block ``b``'s task vectors of ``members`` (all tasks when None),
        in the order given, as a new C-contiguous (n, d_b) float32 array
        that shares no memory with the set's sources."""
        members = range(self.num_tasks) if members is None else list(members)
        d = self.partition.blocks[b].dim
        if self._kept is None:
            out = np.empty((len(members), d), dtype=np.float32)
            for row, k in zip(out, members):
                self._fill(b, k, row)
            return out
        out = np.zeros((len(members), d), dtype=np.float32)
        packed, values = self._kept[b]
        for row, k in zip(out, members):
            # unpacked bits are 0/1 bytes, so they are a valid bool buffer
            row[np.flatnonzero(np.unpackbits(packed[k], count=d).view(bool))] = values[k]
        return out

    def pretrained_block(self, b: int) -> np.ndarray:
        """Block ``b``'s pretrained values as one flat float32 vector: the
        set's own read-only array for a block of one tensor, a new
        concatenation otherwise."""
        parts = [self._base[name] for name in self.partition.blocks[b].tensor_names]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def release(self, b: int) -> None:
        """Give back every mapped input's pages up to the end of block ``b``."""
        for pages in self._pages:
            if pages is not None:
                release_pages(pages[0], pages[1][b])

    def keep_largest(self, keep: int) -> None:
        """Trim every task to its ``keep`` largest magnitudes across all
        blocks concatenated, ties at the threshold broken by ascending flat
        index; every other entry reads back as +0.0.

        Records, per block, a packed keep-mask row per task plus the kept
        float32 values in flat order, verbatim (so -0.0 and NaN survive as
        they were); ``rows`` rebuilds the trimmed rows from them. That is at
        most M * D / 8 + 4 * keep * M bytes against 4 * M * D for dense rows.
        Beyond them it holds two (D,) float32 scratch rows, which every task
        reuses, and a few block-sized temporaries. Keeping every entry
        records nothing. Each task's mapped input is released after its
        pass, the pretrained one after the last.
        """
        dims = self.partition.block_dims
        total = sum(dims)
        if keep >= total:
            return
        signed = np.empty(total, dtype=np.float32)
        mags = np.empty(total, dtype=np.float32)
        kept = [(np.empty((self.num_tasks, (d + 7) // 8), dtype=np.uint8), []) for d in dims]
        for k in range(self.num_tasks):
            self._keep_task(k, keep, signed, mags, kept)
            self._release_input(k + 1)
        self._release_input(0)
        self._kept = kept

    def _release_input(self, i: int) -> None:
        """Give back all pages of input ``i`` (0 is the pretrained) if mapped."""
        pages = self._pages[i]
        if pages is not None:
            release_pages(pages[0], len(pages[0]))

    def _keep_task(self, k: int, keep: int, signed: np.ndarray, mags: np.ndarray,
                   kept) -> None:
        """Record task ``k``'s ``keep`` largest magnitudes in ``kept``: one
        pass builds its concatenated row into ``signed``, ``mags`` finds the
        threshold."""
        dims = self.partition.block_dims
        offset = 0
        for b, d in enumerate(dims):
            self._fill(b, k, signed[offset : offset + d])
            offset += d
        np.abs(signed, out=mags)
        cut = len(mags) - keep
        mags.partition(cut)
        thresh = mags[cut]
        # everything above the threshold sits behind it; count it a chunk at a time
        chunk = max(dims)
        above = sum(np.count_nonzero(mags[i : i + chunk] > thresh)
                    for i in range(cut + 1, len(mags), chunk))
        short = keep - above
        offset = 0
        for (packed, values), d in zip(kept, dims):
            row = signed[offset : offset + d]
            offset += d
            row_mags = np.abs(row, out=mags[:d])
            mask = row_mags > thresh
            if short > 0:
                ties = np.flatnonzero(row_mags == thresh)[:short]
                mask[ties] = True
                short -= len(ties)
            packed[k] = np.packbits(mask)
            values.append(row[np.flatnonzero(mask)])

    def _fill(self, b: int, k: int, out: np.ndarray) -> None:
        """Write task ``k``'s untrimmed row of block ``b`` into ``out``."""
        tensors = self.finetuned[k].tensors
        offset = 0
        for name in self.partition.blocks[b].tensor_names:
            base = self._base[name]
            end = offset + base.size
            np.subtract(tensors[name].ravel(), base, out=out[offset:end], dtype=np.float32)
            offset = end


def flatten_block(ckpt: Checkpoint, block: Block) -> np.ndarray:
    """Block tensors as one flat float32 vector (block order, row-major): a
    view of a single float32 tensor, a new array otherwise."""
    parts = [ckpt.tensors[n].astype(np.float32, copy=False).ravel() for n in block.tensor_names]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def compute_task_vectors(
    pretrained: Checkpoint,
    finetuned: list[Checkpoint],
    part: BlockPartition,
) -> TaskVectorSet:
    """The task vectors of ``finetuned`` against ``pretrained``, after
    checking that they align on every mergeable tensor."""
    report = validate_aligned(pretrained, finetuned, exclude=None)
    mergeable = set(part.tensor_to_block)
    bad = [m for m in report.mismatches if m[0] in mergeable]
    if bad:
        raise AlignmentError(f"checkpoints not aligned on mergeable tensors: {bad[:5]}", report)
    return TaskVectorSet(part, pretrained, finetuned)


def _block_ends(ckpt: Checkpoint, part: BlockPartition) -> tuple[mmap.mmap, np.ndarray] | None:
    """The archive mapping behind ``ckpt`` and the file offset where each
    block's last tensor ends, from the archive's header, or None when
    read_archive did not build ``ckpt``."""
    layout = ckpt.layout
    if layout is None:
        return None
    end_of = {name: i for i, name in enumerate(layout.names, 1)}  # index into offsets
    return layout.mapping, layout.offsets[[end_of[block.tensor_names[-1]] for block in part.blocks]]
