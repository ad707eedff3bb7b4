"""Per-block cosine similarity matrices and group linkage scores.

Linkage strategies map two groups' member-pair similarities to one score:

* ``min``  -- lowest cosine over cross pairs (the default driving merging)
* ``max``  -- highest cosine over cross pairs
* ``avg``  -- unweighted mean over all cross pairs
* ``unified`` -- cosine between the plain averages of each group's members,
  rounded to float32

``pairwise_block_similarity`` also returns the block's float64 Gram matrix,
so the scheduler can score ``unified`` from summed Gram entries;
``group_similarity`` recomputes every score from scratch (``unified`` from
the task vectors) and serves the reference scheduler. Blocks are computed
one after another, each from its rows built for it alone (``tv.rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import LengthMismatch, OverlappingGroups
from .task_space import TaskVectorSet

STRATEGIES = ("min", "max", "avg", "unified")


@dataclass
class SimilarityMatrix:
    """Symmetric M x M float32 cosine matrix for one block, diagonal fixed
    to 1. Tasks whose block vector is exactly zero get similarity 0 to
    everything and are listed in ``zero_tasks``. ``gram`` holds the float64
    dot products of the task vectors (what ``unified`` scheduling reads);
    it is None for matrices built from cosines alone."""

    block_id: int
    values: np.ndarray
    zero_tasks: tuple[int, ...] = ()
    gram: np.ndarray | None = None

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs yield 0."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise LengthMismatch(f"cosine needs equal-length flat vectors, got {u.shape} and {v.shape}")
    u64 = u.astype(np.float64, copy=False)
    v64 = v.astype(np.float64, copy=False)
    nu = float(np.dot(u64, u64)) ** 0.5
    nv = float(np.dot(v64, v64)) ** 0.5
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u64, v64) / (nu * nv), -1.0, 1.0))


def pairwise_block_similarity(tv: TaskVectorSet, block_id: int) -> SimilarityMatrix:
    """All-pairs cosine over the block's task vectors (float64 accumulation,
    result stored float32), plus the M x M float64 Gram matrix rebuilt from
    the float64 cosines and norms."""
    x = tv.rows(block_id).astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    x /= safe[:, None]
    s = x @ x.T
    np.clip(s, -1.0, 1.0, out=s)
    s[zero, :] = 0.0
    s[:, zero] = 0.0
    out = s.astype(np.float32)
    np.fill_diagonal(out, np.float32(1.0))
    return SimilarityMatrix(
        block_id=block_id,
        values=out,
        zero_tasks=tuple(int(i) for i in np.nonzero(zero)[0]),
        gram=np.outer(norms, norms) * s,
    )


def pairwise_all(tv: TaskVectorSet) -> list[SimilarityMatrix]:
    """Every block's matrices, in block order."""
    return [pairwise_block_similarity(tv, b) for b in range(tv.partition.num_blocks)]


def group_mean(tv: TaskVectorSet, block_id: int, members: Iterable[int]) -> np.ndarray:
    """Plain average of member task vectors, accumulated in float64 in
    ascending task order (the canonical representative for ``unified``)."""
    rows = tv.rows(block_id, sorted(members))
    acc = np.zeros(rows.shape[1], dtype=np.float64)
    for row in rows:
        acc += row
    acc /= len(rows)
    return acc


def group_similarity(
    matrix: SimilarityMatrix,
    a: Iterable[int],
    b: Iterable[int],
    strategy: str = "min",
    tv: TaskVectorSet | None = None,
) -> float:
    """Linkage score between two disjoint task groups.

    min/max/avg read only the precomputed matrix; ``unified`` recomputes the
    cosine of the two group averages from ``tv`` and rounds it to float32,
    the grid the other strategies' scores and the plan file use.
    """
    a = sorted(a)
    b = sorted(b)
    if not a or not b:
        raise ValueError("groups must be non-empty")
    if set(a) & set(b):
        raise OverlappingGroups(f"groups overlap: {sorted(set(a) & set(b))}")
    if strategy == "unified":
        if tv is None:
            raise ValueError("unified strategy needs the task vectors")
        means = (group_mean(tv, matrix.block_id, a), group_mean(tv, matrix.block_id, b))
        return float(np.float32(cosine(*means)))
    sub = matrix.values[np.ix_(a, b)]
    if strategy == "min":
        return float(sub.min())
    if strategy == "max":
        return float(sub.max())
    if strategy == "avg":
        return float(np.mean(sub.astype(np.float64)))
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
