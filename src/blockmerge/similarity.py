"""Per-block cosine similarity matrices and the group linkage strategies.

Linkage strategies map two groups' member-pair similarities to one score:

* ``min``  -- lowest cosine over cross pairs (the default driving merging)
* ``max``  -- highest cosine over cross pairs
* ``avg``  -- unweighted mean over all cross pairs
* ``unified`` -- cosine between the plain averages of each group's members,
  rounded to float32

``pairwise_block_similarity`` also returns the block's float64 Gram matrix,
so the scheduler can score ``unified`` from summed Gram entries. Blocks are
computed one after another, each from its rows built for it alone
(``tv.rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Every block's matrices, in block order; each block's input pages are
    released once its matrices are built (``TaskVectorSet.release``)."""
    matrices = []
    for b in range(tv.partition.num_blocks):
        matrices.append(pairwise_block_similarity(tv, b))
        tv.release(b)
    return matrices
