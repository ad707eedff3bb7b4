"""Blocking of tensor names and per-block task vectors.

A *block* is an ordered list of tensor names treated as one unit of merging
(an attention module, an MLP, a layer norm, ...). A task vector for block
``b`` of task ``k`` is the flattened float32 difference between the
fine-tuned and pretrained values of the block's tensors, concatenated in
block order, row-major per tensor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, EmptyPartition
from .naming import compile_name_pattern
from .tensor_store import Checkpoint, validate_aligned


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
    from .tensor_store import dtype_code

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


@dataclass
class TaskVectorSet:
    """Per-block stacked task vectors.

    ``block_vectors[b]`` is an (M, d_b) float32 array; row k holds the
    flattened difference of task k's tensors against the pretrained values.
    ``trim_ratio`` records a global magnitude trim applied up front (None
    means untrimmed); ``mergers.ties_trim`` applies it in place, to these
    arrays, and returns the same set.
    """

    partition: BlockPartition
    num_tasks: int
    block_vectors: list[np.ndarray]
    trim_ratio: float | None = None


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
    """Differences fine-tuned minus pretrained, widened to float32 before
    subtracting so float16 archives lose nothing in the difference. Each
    tensor is subtracted straight into its slice of the block's rows."""
    report = validate_aligned(pretrained, finetuned, exclude=None)
    mergeable = set(part.tensor_to_block)
    bad = [m for m in report.mismatches if m[0] in mergeable]
    if bad:
        raise AlignmentError(f"checkpoints not aligned on mergeable tensors: {bad[:5]}", report)

    block_vectors = []
    for block in part.blocks:
        rows = np.empty((len(finetuned), block.dim), dtype=np.float32)
        offset = 0
        for name in block.tensor_names:
            base = pretrained.tensors[name].astype(np.float32, copy=False).ravel()
            cols = slice(offset, offset + base.size)
            for k, ckpt in enumerate(finetuned):
                np.subtract(ckpt.tensors[name].ravel(), base, out=rows[k, cols], dtype=np.float32)
            offset += base.size
        block_vectors.append(rows)
    return TaskVectorSet(partition=part, num_tasks=len(finetuned), block_vectors=block_vectors)
