"""Block-level merging algorithms.

Each merger combines the task vectors of one group within one block into a
single unified vector, optionally with per-member binary masks (consensus)
and rescaling scalars (emr). Dense families (average, ta, ties, pcb) store
one weight tensor per group; mask families (emr, consensus) store the
unified vector plus per-member masks and reconstruct per task at load time.
``merge_group`` is the one entry point: it builds a group's rows from a
``TaskVectorSet`` into a new matrix, which the algorithm's kernel may
overwrite.

Member sums run in ascending task order after canonical sorting, so outputs
are invariant under permutation of the input members.

Exactness: the sign-elect kernels (ties, emr, consensus) run every
element-wise pass in float32 on one scratch buffer per call, and every
reduction over members as a float64 sum in ascending member order; emr's
per-member float64 row sums add each whole row pairwise, one row widened at a
time. Their bytes are identical to the earlier kernels that built float64
(n, d) temporaries, which the tests keep as the reference.
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
    """ceil(ratio * n) computed exactly, so 0.1 * 40 keeps 4, not 5. Any
    ratio > 0 keeps at least one of n >= 1, even one that the rational
    approximation rounds to 0."""
    frac = Fraction(ratio).limit_denominator(10**6)
    return min(n, max(int(ratio > 0), -((-frac.numerator * n) // frac.denominator)))


def _ascending_sum(mat: np.ndarray) -> np.ndarray:
    """Sum rows in ascending member order, accumulated in float64.
    (``mat.sum(axis=0, dtype=np.float64)`` is not this: on a single column it
    adds pairwise.)"""
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    for row in mat:
        acc += row
    return acc


def _average(mat: np.ndarray) -> MergeOutput:
    """Elementwise arithmetic mean."""
    mean = _ascending_sum(mat) / len(mat)
    return MergeOutput(unified=mean.astype(np.float32))


def _ta(mat: np.ndarray, lam: float) -> MergeOutput:
    """Scaled mean lam * (1/n) * sum; n is the group size, so the scale is
    stable as groups grow."""
    return MergeOutput(unified=np.float32(lam) * _average(mat).unified)


def ties_trim(tv: TaskVectorSet, keep_ratio: float) -> TaskVectorSet:
    """Keep, per task, the ceil(keep_ratio * D) largest-magnitude entries
    across ALL blocks concatenated; every other entry becomes +0.0. Returns
    ``tv`` itself with the trim recorded (``TaskVectorSet.keep_largest``)
    and ``trim_ratio`` set.

    Trimming is global rather than per block and happens once, before any
    scheduling or merging. Ties at the magnitude threshold are resolved by
    ascending flat index.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    tv.keep_largest(ceil_count(keep_ratio, tv.partition.total_dim))
    tv.trim_ratio = keep_ratio
    return tv


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


def _elect(mat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """TIES sign election: float32 +1 where the member sum is >= 0, else -1.
    Leaves ``mat * eps`` in ``scratch``; the product is exact, so
    ``scratch > 0`` marks the members that carry the elected sign."""
    total = _ascending_sum(mat)
    eps = np.where(total >= 0.0, np.float32(1.0), np.float32(-1.0))
    np.multiply(mat, eps, out=scratch)
    return eps


def _keep(mask: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.where(mask, a, 0.0)`` for float32 ``a``, written into ``out`` as
    the integer product of the mask and ``a``'s bit patterns: one pass, with
    +0.0 where the mask is off even where ``a`` is infinite."""
    np.multiply(mask, a.view(np.int32), out=out.view(np.int32))
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """float64 sum of each row of a float32 matrix, added pairwise over the
    whole row as ``a.astype(np.float64).sum(axis=1)`` adds it, but widening
    one row at a time."""
    return np.array([row.astype(np.float64).sum() for row in a])


def _ties(mat: np.ndarray, lam: float) -> MergeOutput:
    """Elect-sign + disjoint-merge only (the rows are expected to be
    globally trimmed already). Per coordinate, the sign of the member sum is
    elected (zero counts as +) and the mean is taken over the members that
    carry that sign, skipping zeros."""
    return MergeOutput(unified=_disjoint_mean(mat, np.empty_like(mat), lam))


def _disjoint_mean(mat: np.ndarray, scratch: np.ndarray, lam: float) -> np.ndarray:
    """lam times the mean of the members that carry the elected sign,
    summed in float64 over ascending members; overwrites ``scratch``."""
    _elect(mat, scratch)
    agree = scratch > 0.0
    count = agree.sum(axis=0, dtype=np.int32)
    np.maximum(count, 1, out=count)
    _keep(agree, mat, scratch)
    del agree  # before the float64 accumulator exists, to lower the peak
    acc = _ascending_sum(scratch)
    acc /= count
    acc *= lam
    return acc.astype(np.float32)


# temperature of PCB's intra- and inter-balancing scores
_PCB_TEMP = 1.0


def _pcb(mat: np.ndarray, keep_ratio: float, lam: float) -> MergeOutput:
    """Competition-balanced merge: intra-balancing (per-member softmax over
    coordinates of scaled squared magnitudes), inter-balancing (mean sigmoid
    of scaled cross-member products), drop to the per-member top
    ceil(keep_ratio * d) coordinates by combined score, then rescale by the
    score-weighted mean."""
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


def _emr(mat: np.ndarray) -> MergeOutput:
    """Elect-mask-rescale: unified keeps, per coordinate, the largest
    magnitude among members agreeing with the elected sign; masks select
    coordinates where member and unified agree in sign; rescalers restore
    each member's L1 mass over its masked unified entries."""
    scratch = np.empty_like(mat)
    eps = _elect(mat, scratch)
    # the largest agreeing magnitude, +0.0 where no member agrees (fmax skips
    # the NaN products of non-finite members)
    top = np.fmax.reduce(scratch, axis=0)
    unified = np.where(top > 0.0, top, np.float32(0.0))
    unified *= eps
    del eps  # before the row sums widen to float64, to lower the peak
    # the float32 product's underflow to 0 is part of what a mask means
    np.multiply(mat, unified, out=scratch)
    masks = scratch > 0.0
    np.abs(mat, out=scratch)
    l1 = _row_sums(scratch)
    kept = _row_sums(_keep(masks, np.abs(unified), scratch))
    gammas = np.where(kept == 0.0, 1.0, l1 / np.where(kept == 0.0, 1.0, kept))
    return MergeOutput(unified=unified, masks=masks, rescalers=gammas.astype(np.float32))


def _consensus(mat: np.ndarray, threshold: float) -> MergeOutput:
    """Unified vector from the elect+disjoint merge (lam=1); member masks
    keep the coordinates where the member's own magnitude is at least
    ``threshold`` times its distance to the unified value. Overwrites
    ``mat``."""
    scratch = np.empty_like(mat)
    unified = _disjoint_mean(mat, scratch, 1.0)
    np.subtract(unified, mat, out=scratch)
    np.abs(scratch, out=scratch)
    scratch *= np.float32(threshold)
    np.abs(mat, out=mat)
    return MergeOutput(unified=unified, masks=mat >= scratch)


def merge_group(cfg: MergerConfig, tv: TaskVectorSet, block_id: int, members) -> MergeOutput:
    """Merge one group of tasks in one block under ``cfg``.

    Members are sorted ascending before merging; mask/rescaler rows of the
    output follow that sorted order. The members' rows are built for this
    call only (``tv.rows``), so one group's block is all it holds.
    """
    members = sorted(members)
    if not members:
        raise EmptyGroup("cannot merge an empty group")
    # rows are built into a new array that the kernel owns and may overwrite
    mat = tv.rows(block_id, members)
    a = cfg.algorithm
    if a == "average":
        return _average(mat)
    if a == "ta":
        return _ta(mat, cfg.lam)
    if a == "ties":
        return _ties(mat, cfg.lam)
    if a == "pcb":
        return _pcb(mat, cfg.keep_ratio, cfg.lam)
    if a == "emr":
        return _emr(mat)
    if a == "consensus":
        return _consensus(mat, cfg.consensus_threshold)
    raise ValueError(f"unknown algorithm {a!r}")


def expected_trim_ratio(cfg: MergerConfig) -> float | None:
    """Trim state the task vectors must be in before scheduling/merging."""
    return cfg.keep_ratio if cfg.needs_global_trim else None


def prepare_task_vectors(tv: TaskVectorSet, cfg: MergerConfig) -> TaskVectorSet:
    """Apply the up-front global trim when the algorithm calls for one,
    recording it on ``tv`` (``ties_trim``); returns ``tv`` itself either
    way."""
    want = expected_trim_ratio(cfg)
    if want is None or tv.trim_ratio == want:
        return tv
    if tv.trim_ratio is not None:
        raise ValueError(
            f"task vectors already trimmed at {tv.trim_ratio}, cannot re-trim at {want}"
        )
    return ties_trim(tv, want)
