"""Independent scalar-loop reference implementations.

Everything here is written with plain Python floats and explicit loops,
deliberately sharing no code with the package, so the vectorized paths can
be checked against a second route. The exceptions are the sections at the
end: bitwise references, vectorised kernels kept as they were before a
rewrite that must not change their output bits; vectorised references, the
cubic greedy scheduler and its linkage scores, which build on the package's
similarity matrices and plan types; the sweep reference, the size sweep
as it was written before it streamed, one in-memory artifact per size; and
the similarity CSVs of ``blockmerge plan`` as ``csv.writer`` wrote them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from blockmerge.artifact import MANIFEST_VERSION, _block_slices, build_artifact
from blockmerge.mergers import CONFIG_NUMBERS
from blockmerge.scheduler import MergeEvent, MergePlan, write_assignment_json
from blockmerge.similarity import STRATEGIES, SimilarityMatrix, pairwise_all
from blockmerge.task_space import TaskVectorSet
from blockmerge.tensor_store import DTYPES, Checkpoint, write_archive


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
    """ceil(ratio * n): at least 1 of n >= 1 for any ratio > 0."""
    frac = Fraction(ratio).limit_denominator(10**6)
    return min(n, max(1 if ratio > 0 else 0, -((-frac.numerator * n) // frac.denominator)))


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


# -- vectorised references ----------------------------------------------------
# The cubic greedy scheduler that the per-block greedy loop and the global
# heap must equal event for event, with the linkage scores it recomputes from
# scratch (``unified`` from the task vectors, not the Gram matrix).


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs yield 0."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"cosine needs equal-length flat vectors, got {u.shape} and {v.shape}")
    u64 = u.astype(np.float64, copy=False)
    v64 = v.astype(np.float64, copy=False)
    nu = float(np.dot(u64, u64)) ** 0.5
    nv = float(np.dot(v64, v64)) ** 0.5
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u64, v64) / (nu * nv), -1.0, 1.0))


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
        raise ValueError(f"groups overlap: {sorted(set(a) & set(b))}")
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


def naive_greedy_order(
    tv: TaskVectorSet,
    strategy: str = "min",
    matrices: list[SimilarityMatrix] | None = None,
) -> MergePlan:
    """Reference scheduler: at every step scan all (block, group pair)
    candidates and apply the best under the canonical tie-break. Cubic in M
    and vector-based for ``unified``; used as the testing oracle for the
    per-block greedy loop and the heap."""
    if matrices is None:
        matrices = pairwise_all(tv)
    state: list[list[tuple[int, ...]]] = [
        [(k,) for k in range(tv.num_tasks)] for _ in matrices
    ]
    events: list[MergeEvent] = []
    total = sum(max(0, tv.num_tasks - 1) for _ in matrices)
    for seq in range(total):
        best: MergeEvent | None = None
        for b, groups in enumerate(state):
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    s = group_similarity(matrices[b], groups[i], groups[j], strategy, tv)
                    left, right = sorted((tuple(sorted(groups[i])), tuple(sorted(groups[j]))),
                                         key=lambda g: g[0])
                    ev = MergeEvent(block_id=b, left=left, right=right, score=float(s))
                    if best is None or ev.key() < best.key():
                        best = ev
        events.append(replace(best, seq=seq))
        groups = state[best.block_id]
        groups.remove(best.left)
        groups.remove(best.right)
        groups.append(tuple(sorted(best.left + best.right)))
    return MergePlan(
        events=tuple(events),
        num_tasks=tv.num_tasks,
        num_blocks=len(matrices),
        block_keys=tuple(tv.partition.block_keys),
    )


# -- sweep reference ----------------------------------------------------------
# The size sweep as ``blockmerge merge`` wrote it before it streamed: per
# size, one in-memory artifact (build_artifact, no payloads shared across
# sizes, since the kernels are deterministic) and its export, whose archive
# tensors are assembled here as export_manifest assembled them, with its
# manifest in the compact JSON encoding.


def export_manifest_reference(artifact, out_dir: str) -> None:
    part = artifact.partition
    os.makedirs(out_dir, exist_ok=True)
    tensors: dict[str, np.ndarray] = {}

    def tensor_arrays(block, flat: np.ndarray):
        return [(name, flat[offset : offset + n].reshape(shape).astype(DTYPES[code], copy=False))
                for name, offset, n, shape, code in _block_slices(block)]

    for b in sorted(artifact.pretrained_blocks):
        for name, arr in tensor_arrays(part.blocks[b], artifact.pretrained_blocks[b]):
            tensors[f"pre.{name}"] = arr

    groups_meta: dict[str, list[list[int]]] = {block.key: [] for block in part.blocks}
    for block in part.blocks:
        groups = [g for g in artifact.groups if g.block_id == block.block_id]
        per_group = [tensor_arrays(block, np.concatenate(g.rows)) for g in groups]
        for t, name in enumerate(block.tensor_names):
            tensors[f"g.{name}"] = np.stack([arrays[t][1] for arrays in per_group])
        masked = [g for g in groups if g.payload == "masked"]
        if masked:
            tensors[f"mask.{block.key}"] = np.concatenate([g.masks for g in masked])
            if masked[0].gammas is not None:
                tensors[f"gamma.{block.key}"] = np.concatenate([g.gammas for g in masked])
        groups_meta[block.key] = [list(g.members) for g in groups]

    excluded_meta: dict[str, list[str]] = {}
    for task, head in enumerate(artifact.heads):
        excluded_meta[str(task)] = list(head)
        for name, arr in head.items():
            tensors[f"head.t{task}.{name}"] = arr

    manifest = {
        "format": "blockmerge-artifact",
        "version": MANIFEST_VERSION,
        "algorithm": artifact.config.algorithm,
        "config": {f: getattr(artifact.config, f) for f in CONFIG_NUMBERS},
        "fingerprint": artifact.fingerprint,
        "num_tasks": artifact.num_tasks,
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
        "excluded": excluded_meta,
        "groups": groups_meta,
        "size_report": artifact.size_report.as_dict(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    write_archive(Checkpoint(tensors=tensors), os.path.join(out_dir, "tensors.safetensors"))


def sweep_reference(assignments, out_dirs, tv, cfg, fingerprint: str = "") -> None:
    """What ``export_sweep`` plus the ``groups.json`` of ``blockmerge merge``
    must write, size by size."""
    for asg, out_dir in zip(assignments, out_dirs):
        art = build_artifact(asg, tv, cfg, fingerprint=fingerprint)
        export_manifest_reference(art, out_dir)
        write_assignment_json(asg, tv.partition.block_keys, os.path.join(out_dir, "groups.json"))


# ---------------------------------------------------------------------------
# Similarity CSV reference: ``blockmerge plan``'s per-block similarity files
# as they were written with ``csv.writer`` and one ``repr(float(v))`` per
# numpy scalar, before the CLI formatted each file from one ``tolist``.


def write_similarity_csvs_reference(matrices, block_keys, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for mx, key in zip(matrices, block_keys):
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", key)
        path = os.path.join(out_dir, f"block_{mx.block_id:04d}_{safe}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task"] + [str(j) for j in range(mx.num_tasks)])
            for i in range(mx.num_tasks):
                writer.writerow([str(i)] + [repr(float(v)) for v in mx.values[i]])
