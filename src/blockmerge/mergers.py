"""Block-level merging algorithms.

Each merger combines the task vectors of one group within one block into a
single unified vector, optionally with per-member binary masks (consensus)
and rescaling scalars (emr). Dense families (average, ta, ties, pcb) store
one weight tensor per group; mask families (emr, consensus) store the
unified vector plus per-member masks and reconstruct per task at load time.

Member sums run in ascending task order after canonical sorting, so outputs
are invariant under permutation of the input members.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .errors import EmptyGroup
from .task_space import TaskVectorSet

ALGORITHMS = ("average", "ta", "ties", "pcb", "emr", "consensus")
DENSE_ALGORITHMS = ("average", "ta", "ties", "pcb")
MASKED_ALGORITHMS = ("emr", "consensus")

_DEFAULTS = {
    "average": {},
    "ta": {"lam": 1.5},
    "ties": {"lam": 1.0, "keep_ratio": 0.1},
    "pcb": {"lam": 1.0, "keep_ratio": 0.1},
    "emr": {},
    "consensus": {"keep_ratio": 0.1, "consensus_threshold": 0.6},
}


@dataclass(frozen=True)
class MergerConfig:
    algorithm: str
    lam: float = 1.0
    keep_ratio: float = 1.0
    consensus_threshold: float = 0.6

    @staticmethod
    def for_algorithm(algorithm: str, **overrides) -> "MergerConfig":
        """Config with the recommended defaults for one algorithm; keyword
        overrides win (ta: lam=1.5; ties: lam=1, keep 10%; consensus:
        threshold 0.6 on a ties base; pcb: lam=1, keep 10%)."""
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        cfg = MergerConfig(algorithm=algorithm)
        cfg = replace(cfg, **_DEFAULTS[algorithm])
        return replace(cfg, **overrides)

    @property
    def masked(self) -> bool:
        return self.algorithm in MASKED_ALGORITHMS

    @property
    def has_rescalers(self) -> bool:
        return self.algorithm == "emr"

    @property
    def needs_global_trim(self) -> bool:
        return self.algorithm in ("ties", "consensus")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# MergerConfig's number fields, as manifests and rules files spell them
CONFIG_NUMBERS = tuple(f.name for f in fields(MergerConfig) if f.name != "algorithm")


@dataclass
class MergeOutput:
    """Result of merging one group: masks are present iff the algorithm is
    emr/consensus, rescalers iff emr. Row order matches the (sorted) member
    order passed in."""

    unified: np.ndarray
    masks: np.ndarray | None = None  # (n, d) bool
    rescalers: np.ndarray | None = None  # (n,) float32


def ceil_count(ratio: float, n: int) -> int:
    """ceil(ratio * n) computed exactly, so 0.1 * 40 keeps 4, not 5."""
    frac = Fraction(ratio).limit_denominator(10**6)
    return min(n, max(0, -((-frac.numerator * n) // frac.denominator)))


def _stack(vectors) -> np.ndarray:
    if len(vectors) == 0:
        raise EmptyGroup("cannot merge an empty group")
    mat = np.asarray([np.asarray(v, dtype=np.float32).ravel() for v in vectors], dtype=np.float32)
    return mat


def _ascending_sum(mat: np.ndarray) -> np.ndarray:
    """Sum rows in ascending member order, accumulated in float64."""
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    for row in mat:
        acc += row
    return acc


def merge_average(vectors) -> MergeOutput:
    """Elementwise arithmetic mean."""
    mat = _stack(vectors)
    mean = _ascending_sum(mat) / len(mat)
    return MergeOutput(unified=mean.astype(np.float32))


def merge_ta(vectors, lam: float = 1.5) -> MergeOutput:
    """Scaled mean lam * (1/n) * sum; n is the group size, so the scale is
    stable as groups grow."""
    out = merge_average(vectors)
    return MergeOutput(unified=np.float32(lam) * out.unified)


def ties_trim(tv: TaskVectorSet, keep_ratio: float) -> TaskVectorSet:
    """Keep, per task, the ceil(keep_ratio * D) largest-magnitude entries
    across ALL blocks concatenated and zero the rest.

    Trimming is global rather than per block and happens once, before any
    scheduling or merging. Ties at the magnitude threshold are resolved by
    ascending flat index.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if keep_ratio == 1.0:
        return TaskVectorSet(tv.partition, tv.num_tasks, [v.copy() for v in tv.block_vectors],
                             trim_ratio=1.0)
    dims = [v.shape[1] for v in tv.block_vectors]
    total = sum(dims)
    keep = ceil_count(keep_ratio, total)
    trimmed = [np.zeros_like(v) for v in tv.block_vectors]
    for k in range(tv.num_tasks):
        flat = np.concatenate([v[k] for v in tv.block_vectors])
        mags = np.abs(flat)
        mask = _top_count_mask(mags, keep)
        offset = 0
        for b, d in enumerate(dims):
            sel = mask[offset : offset + d]
            trimmed[b][k, sel] = tv.block_vectors[b][k, sel]
            offset += d
    return TaskVectorSet(tv.partition, tv.num_tasks, trimmed, trim_ratio=keep_ratio)


def _top_count_mask(mags: np.ndarray, keep: int) -> np.ndarray:
    """Boolean mask selecting exactly ``keep`` entries of largest magnitude,
    breaking threshold ties by ascending index."""
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


def _elected_signs(mat: np.ndarray) -> np.ndarray:
    total = _ascending_sum(mat)
    return np.where(total >= 0.0, 1.0, -1.0)


def merge_ties(vectors, lam: float = 1.0) -> MergeOutput:
    """Elect-sign + disjoint-merge only (inputs are expected to be globally
    trimmed already). Per coordinate, the sign of the member sum is elected
    (zero counts as +) and the mean is taken over the members that carry
    that sign, skipping zeros."""
    mat = _stack(vectors)
    eps = _elected_signs(mat)
    agree = (mat * eps[None, :]) > 0.0
    count = agree.sum(axis=0)
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    for row, sel in zip(mat, agree):
        acc += np.where(sel, row.astype(np.float64), 0.0)
    unified = lam * (acc / np.maximum(count, 1))
    return MergeOutput(unified=unified.astype(np.float32))


# temperature of PCB's intra- and inter-balancing scores
_PCB_TEMP = 1.0


def merge_pcb(vectors, keep_ratio: float = 0.1, lam: float = 1.0) -> MergeOutput:
    """Competition-balanced merge: intra-balancing (per-member softmax over
    coordinates of scaled squared magnitudes), inter-balancing (mean sigmoid
    of scaled cross-member products), drop to the per-member top
    ceil(keep_ratio * d) coordinates by combined score, then rescale by the
    score-weighted mean."""
    mat = _stack(vectors)
    n, d = mat.shape
    if n == 1:
        return MergeOutput(unified=np.float32(lam) * mat[0])
    v = mat.astype(np.float64)
    sq = v * v
    mx = sq.max(axis=1)
    safe = np.where(mx == 0.0, 1.0, mx)
    logits = (_PCB_TEMP * n) * sq / safe[:, None]
    logits -= logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    beta_intra = expd / expd.sum(axis=1, keepdims=True)

    beta_inter = np.empty_like(v)
    for k in range(n):
        z = (_PCB_TEMP * n) * (v * v[k][None, :])
        beta_inter[k] = (1.0 / (1.0 + np.exp(-z))).mean(axis=0)

    beta = beta_intra * beta_inter
    keep = ceil_count(keep_ratio, d)
    num = np.zeros(d, dtype=np.float64)
    den = np.zeros(d, dtype=np.float64)
    for k in range(n):
        kept = _top_count_mask(beta[k], keep)
        bh = np.where(kept, beta[k], 0.0)
        num += bh * v[k]
        den += bh
    unified = np.where(den == 0.0, 0.0, lam * num / np.where(den == 0.0, 1.0, den))
    return MergeOutput(unified=unified.astype(np.float32))


def merge_emr(vectors) -> MergeOutput:
    """Elect-mask-rescale: unified keeps, per coordinate, the largest
    magnitude among members agreeing with the elected sign; masks select
    coordinates where member and unified agree in sign; rescalers restore
    each member's L1 mass over its masked unified entries."""
    mat = _stack(vectors)
    eps = _elected_signs(mat)
    agree = (mat * eps[None, :]) > 0.0
    amax = np.where(agree, np.abs(mat), np.float32(0.0)).max(axis=0)
    unified = (eps * amax).astype(np.float32)
    masks = (mat * unified[None, :]) > 0.0
    l1 = np.abs(mat).astype(np.float64).sum(axis=1)
    kept = np.abs(np.where(masks, unified[None, :], np.float32(0.0))).astype(np.float64).sum(axis=1)
    gammas = np.where(kept == 0.0, 1.0, l1 / np.where(kept == 0.0, 1.0, kept))
    return MergeOutput(unified=unified, masks=masks, rescalers=gammas.astype(np.float32))


def merge_consensus(vectors, threshold: float = 0.6) -> MergeOutput:
    """Unified vector from the elect+disjoint merge (lam=1); member masks keep
    the coordinates where the member's own magnitude is at least
    ``threshold`` times its distance to the unified value."""
    mat = _stack(vectors)
    unified = merge_ties(mat, lam=1.0).unified
    masks = np.abs(mat) >= np.float32(threshold) * np.abs(unified[None, :] - mat)
    return MergeOutput(unified=unified, masks=masks)


def merge_group(cfg: MergerConfig, tv: TaskVectorSet, block_id: int, members) -> MergeOutput:
    """Merge one group of tasks in one block under ``cfg``.

    Members are sorted ascending before merging; mask/rescaler rows of the
    output follow that sorted order.
    """
    members = sorted(members)
    vectors = [tv.block_vectors[block_id][k] for k in members]
    a = cfg.algorithm
    if a == "average":
        return merge_average(vectors)
    if a == "ta":
        return merge_ta(vectors, lam=cfg.lam)
    if a == "ties":
        return merge_ties(vectors, lam=cfg.lam)
    if a == "pcb":
        return merge_pcb(vectors, keep_ratio=cfg.keep_ratio, lam=cfg.lam)
    if a == "emr":
        return merge_emr(vectors)
    if a == "consensus":
        return merge_consensus(vectors, threshold=cfg.consensus_threshold)
    raise ValueError(f"unknown algorithm {a!r}")


def expected_trim_ratio(cfg: MergerConfig) -> float | None:
    """Trim state the task vectors must be in before scheduling/merging."""
    return cfg.keep_ratio if cfg.needs_global_trim else None


def prepare_task_vectors(tv: TaskVectorSet, cfg: MergerConfig) -> TaskVectorSet:
    """Apply the up-front global trim when the algorithm calls for one."""
    want = expected_trim_ratio(cfg)
    if want is None or tv.trim_ratio == want:
        return tv
    if tv.trim_ratio is not None:
        raise ValueError(
            f"task vectors already trimmed at {tv.trim_ratio}, cannot re-trim at {want}"
        )
    return ties_trim(tv, want)
