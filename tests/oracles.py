"""Independent scalar-loop reference implementations.

Everything here is written with plain Python floats and explicit loops,
deliberately sharing no code with the package, so the vectorized paths can
be checked against a second route. The one exception is the section of
bitwise references at the end: vectorised kernels kept as they were before
a rewrite that must not change their output bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def cosine_oracle(u, v) -> float:
    dot = nu = nv = 0.0
    for a, b in zip([float(x) for x in u], [float(x) for x in v]):
        dot += a * b
        nu += a * a
        nv += b * b
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (math.sqrt(nu) * math.sqrt(nv))))


def average_oracle(vectors):
    n = len(vectors)
    d = len(vectors[0])
    return [sum(float(v[j]) for v in vectors) / n for j in range(d)]


def ta_oracle(vectors, lam):
    return [lam * x for x in average_oracle(vectors)]


def ties_oracle(vectors, lam):
    d = len(vectors[0])
    out = []
    for j in range(d):
        col = [float(v[j]) for v in vectors]
        eps = 1.0 if sum(col) >= 0.0 else -1.0
        keep = [x for x in col if x * eps > 0.0]
        out.append(lam * (sum(keep) / len(keep)) if keep else 0.0)
    return out


def _top_indices(values, count):
    order = sorted(range(len(values)), key=lambda j: (-values[j], j))
    return set(order[:count])


def ceil_ratio(ratio: float, n: int) -> int:
    frac = Fraction(ratio).limit_denominator(10**6)
    return min(n, max(0, -((-frac.numerator * n) // frac.denominator)))


def pcb_oracle(vectors, keep_ratio, lam, intra_temp, inter_temp):
    n = len(vectors)
    d = len(vectors[0])
    vs = [[float(x) for x in v] for v in vectors]
    if n == 1:
        return [lam * x for x in vs[0]]
    beta = []
    for k in range(n):
        sq = [x * x for x in vs[k]]
        mx = max(sq)
        logits = [intra_temp * n * s / mx if mx > 0 else 0.0 for s in sq]
        shift = max(logits)
        exps = [math.exp(l - shift) for l in logits]
        z = sum(exps)
        intra = [e / z for e in exps]
        inter = []
        for j in range(d):
            acc = 0.0
            for l in range(n):
                acc += 1.0 / (1.0 + math.exp(-(inter_temp * n * vs[k][j] * vs[l][j])))
            inter.append(acc / n)
        beta.append([a * b for a, b in zip(intra, inter)])
    keep = ceil_ratio(keep_ratio, d)
    kept = [_top_indices(beta[k], keep) for k in range(n)]
    out = []
    for j in range(d):
        num = den = 0.0
        for k in range(n):
            if j in kept[k]:
                num += beta[k][j] * vs[k][j]
                den += beta[k][j]
        out.append(lam * num / den if den != 0.0 else 0.0)
    return out


def emr_oracle(vectors):
    n = len(vectors)
    d = len(vectors[0])
    vs = [[float(x) for x in v] for v in vectors]
    unified = []
    for j in range(d):
        col = [vs[k][j] for k in range(n)]
        eps = 1.0 if sum(col) >= 0.0 else -1.0
        agreeing = [abs(x) for x in col if x * eps > 0.0]
        unified.append(eps * max(agreeing) if agreeing else 0.0)
    masks = [[1 if vs[k][j] * unified[j] > 0.0 else 0 for j in range(d)] for k in range(n)]
    gammas = []
    for k in range(n):
        num = sum(abs(x) for x in vs[k])
        den = sum(abs(masks[k][j] * unified[j]) for j in range(d))
        gammas.append(num / den if den != 0.0 else 1.0)
    return unified, masks, gammas


def consensus_oracle(vectors, threshold):
    unified = ties_oracle(vectors, 1.0)
    d = len(unified)
    masks = [
        [1 if abs(float(v[j])) >= threshold * abs(unified[j] - float(v[j])) else 0 for j in range(d)]
        for v in vectors
    ]
    return unified, masks


def size_oracle(block_groups, block_nbytes, block_dims, masked, scalars=False) -> Fraction:
    """From-scratch deployed size in model units (scalar bytes excluded)."""
    unit = sum(block_nbytes)
    total = 0
    for b, groups in enumerate(block_groups):
        bb = block_nbytes[b]
        mb = (block_dims[b] + 7) // 8
        has_multi = False
        for g in groups:
            total += bb
            if masked and len(g) > 1:
                has_multi = True
                total += len(g) * mb
        if masked and has_multi:
            total += bb
    return Fraction(total, unit)


# -- bitwise references -------------------------------------------------------
# The vectorised ties, emr and consensus kernels as they stood before their
# float32 rewrite, and the global trim as it stood before it worked in place,
# copied verbatim except that helpers carry a ``_reference`` suffix and
# results are returned as plain arrays. The rewrites must reproduce their
# unified vectors, masks, rescalers and trimmed task vectors bit for bit.


def _stack_reference(vectors) -> np.ndarray:
    mat = np.asarray([np.asarray(v, dtype=np.float32).ravel() for v in vectors], dtype=np.float32)
    return mat


def _ascending_sum_reference(mat: np.ndarray) -> np.ndarray:
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    for row in mat:
        acc += row
    return acc


def _elected_signs_reference(mat: np.ndarray) -> np.ndarray:
    total = _ascending_sum_reference(mat)
    return np.where(total >= 0.0, 1.0, -1.0)


def merge_ties_reference(vectors, lam: float = 1.0):
    """Returns the unified vector."""
    mat = _stack_reference(vectors)
    eps = _elected_signs_reference(mat)
    agree = (mat * eps[None, :]) > 0.0
    count = agree.sum(axis=0)
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    for row, sel in zip(mat, agree):
        acc += np.where(sel, row.astype(np.float64), 0.0)
    unified = lam * (acc / np.maximum(count, 1))
    return unified.astype(np.float32)


def merge_emr_reference(vectors):
    """Returns (unified, masks, rescalers)."""
    mat = _stack_reference(vectors)
    eps = _elected_signs_reference(mat)
    agree = (mat * eps[None, :]) > 0.0
    amax = np.where(agree, np.abs(mat), np.float32(0.0)).max(axis=0)
    unified = (eps * amax).astype(np.float32)
    masks = (mat * unified[None, :]) > 0.0
    l1 = np.abs(mat).astype(np.float64).sum(axis=1)
    kept = np.abs(np.where(masks, unified[None, :], np.float32(0.0))).astype(np.float64).sum(axis=1)
    gammas = np.where(kept == 0.0, 1.0, l1 / np.where(kept == 0.0, 1.0, kept))
    return unified, masks, gammas.astype(np.float32)


def merge_consensus_reference(vectors, threshold: float = 0.6):
    """Returns (unified, masks)."""
    mat = _stack_reference(vectors)
    unified = merge_ties_reference(mat, lam=1.0)
    masks = np.abs(mat) >= np.float32(threshold) * np.abs(unified[None, :] - mat)
    return unified, masks


def _top_count_mask_reference(mags: np.ndarray, keep: int) -> np.ndarray:
    d = mags.shape[0]
    if keep >= d:
        return np.ones(d, dtype=bool)
    if keep <= 0:
        return np.zeros(d, dtype=bool)
    thresh = np.partition(mags, d - keep)[d - keep]
    mask = mags > thresh
    short = keep - int(mask.sum())
    if short > 0:
        ties = np.nonzero(mags == thresh)[0]
        mask[ties[:short]] = True
    return mask


def ties_trim_reference(block_vectors, keep_ratio: float) -> list[np.ndarray]:
    """Returns new trimmed (M, d_b) arrays; the inputs are left as they are."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if keep_ratio == 1.0:
        return [v.copy() for v in block_vectors]
    dims = [v.shape[1] for v in block_vectors]
    total = sum(dims)
    keep = ceil_ratio(keep_ratio, total)
    trimmed = [np.zeros_like(v) for v in block_vectors]
    for k in range(block_vectors[0].shape[0]):
        flat = np.concatenate([v[k] for v in block_vectors])
        mags = np.abs(flat)
        mask = _top_count_mask_reference(mags, keep)
        offset = 0
        for b, d in enumerate(dims):
            sel = mask[offset : offset + d]
            trimmed[b][k, sel] = block_vectors[b][k, sel]
            offset += d
    return trimmed


def task_vectors_reference(pretrained, finetuned, part) -> list[np.ndarray]:
    """Every block's dense (M, d_b) float32 task vectors, computed up front
    as ``compute_task_vectors`` did before rows were built on demand (the
    alignment check left out): each tensor subtracted straight into its
    slice of the block's rows."""
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
    return block_vectors
