"""Merge scheduling: per-block merge sequences, global ordering, and replay.

The pipeline is bottom-up agglomeration per block followed by a global
interleave. Per block, ``block_merge_sequence`` merges the highest-scoring
pair of groups until one is left, in a direct greedy loop on M x M matrices:
min/max/avg update cosine rows, ``unified`` updates Gram-matrix sums (the
Lance-Williams style of update), so no strategy reads the task vectors.
Global ordering interleaves the per-block sequences (min-heap of block heads
for greedy, concatenation for left-/right-to-left, seeded uniform interleave
for random), and ``replay_to_size`` walks the plan keeping each block's
current groups as the plan reader checks them (``_join``), tracking the
deployed size in exact rationals until the target is reached;
``replay_to_sizes`` does so for a whole size sweep in one walk.

Sizes are expressed in *model units*: stored bytes divided by the bytes of
one full fine-tuned mergeable parameter set.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import MalformedPlan
from .mergers import MergerConfig
from .similarity import STRATEGIES, SimilarityMatrix, pairwise_all
from .task_space import BlockPartition, TaskVectorSet

ModelUnits = Fraction

ORDER_POLICIES = ("greedy", "left_to_right", "right_to_left", "random")


@dataclass(frozen=True)
class MergeEvent:
    """One candidate merge: ``left`` and ``right`` are disjoint sorted task
    tuples with min(left) < min(right). ``seq`` is the global order index
    (-1 before interleaving)."""

    block_id: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    score: float
    seq: int = -1

    def key(self) -> tuple:
        return (-self.score, self.block_id, self.left[0], self.right[0])


@dataclass(frozen=True)
class MergePlan:
    events: tuple[MergeEvent, ...]
    num_tasks: int
    num_blocks: int
    block_keys: tuple[str, ...] = ()


@dataclass
class GroupAssignment:
    """Per-block partition of tasks after replaying a plan prefix."""

    block_groups: list[tuple[tuple[int, ...], ...]]
    applied_events: int
    size: ModelUnits


def _pair_event(block_id: int, ga, gb, score: float) -> MergeEvent:
    left, right = sorted((tuple(sorted(ga)), tuple(sorted(gb))), key=lambda g: g[0])
    return MergeEvent(block_id=block_id, left=left, right=right, score=float(score))


# ---------------------------------------------------------------------------
# Per-block sequences
# ---------------------------------------------------------------------------

def _linkage_scores(w: np.ndarray, sizes: np.ndarray, strategy: str) -> np.ndarray:
    """Scores of every pair of slots, read off the linkage state ``w``."""
    if strategy in ("min", "max"):
        return w
    if strategy == "avg":
        return w / np.outer(sizes, sizes)
    den = np.sqrt(np.outer(np.diagonal(w), np.diagonal(w)))
    s = np.divide(w, den, out=np.zeros_like(w), where=den > 0.0)
    return np.clip(s, -1.0, 1.0).astype(np.float32)


def block_merge_sequence(matrix: SimilarityMatrix, strategy: str = "min") -> list[MergeEvent]:
    """Sequence of M-1 merges for one block, highest linkage first.

    Direct greedy agglomeration on M x M matrices. A group lives in the slot
    of its smallest member, so the first maximum over the live upper
    triangle in row-major order is the canonical tie-break (score desc, min
    member id asc, other group's min id asc) and the sequence equals the
    naive greedy argmax. The linkage state ``w`` per strategy: min/max keep
    the float32 cosines and merge rows by element-wise min/max; avg keeps
    float64 sums of the cross-pair cosines; unified keeps float64 sums of
    the Gram matrix (cos of the group means is S_ab / sqrt(S_aa * S_bb)),
    scored in float32.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    m = matrix.num_tasks
    if strategy == "unified":
        if matrix.gram is None:
            raise ValueError("unified strategy needs the Gram matrix of pairwise_block_similarity")
        w = matrix.gram.astype(np.float64)
    elif strategy == "avg":
        w = matrix.values.astype(np.float64)
    else:
        w = matrix.values.copy()
    sizes = np.ones(m)
    members = [(i,) for i in range(m)]
    pairs = np.triu(np.ones((m, m), dtype=bool), k=1)  # live slot pairs, i < j
    events: list[MergeEvent] = []
    for _ in range(m - 1):
        scores = np.where(pairs, _linkage_scores(w, sizes, strategy), -np.inf)
        i, j = divmod(int(np.argmax(scores)), m)
        events.append(_pair_event(matrix.block_id, members[i], members[j], scores[i, j]))
        if strategy == "min":
            np.minimum(w[i], w[j], out=w[i])
        elif strategy == "max":
            np.maximum(w[i], w[j], out=w[i])
        else:
            diag = w[i, i] + w[j, j] + 2.0 * w[i, j]
            w[i] += w[j]
            w[i, i] = diag
        w[:, i] = w[i]
        sizes[i] += sizes[j]
        members[i] = tuple(sorted(members[i] + members[j]))
        pairs[j, :] = pairs[:, j] = False
    return events


# ---------------------------------------------------------------------------
# Global ordering
# ---------------------------------------------------------------------------

def global_merge_order(
    sequences: list[list[MergeEvent]],
    policy: str = "greedy",
    seed: int | None = None,
    block_keys: tuple[str, ...] = (),
    num_tasks: int | None = None,
) -> MergePlan:
    """Interleave per-block sequences into one global MergePlan.

    greedy merges the block heads through a min-heap (globally sorted by
    score for the monotone strategies); left_to_right / right_to_left
    concatenate in block order; random draws the next block uniformly with a
    seeded generator, preserving each block's internal order.
    """
    order: list[MergeEvent] = []
    if policy == "greedy":
        heap = []
        for b, seq in enumerate(sequences):
            if seq:
                heapq.heappush(heap, (seq[0].key(), b, 0))
        while heap:
            _, b, i = heapq.heappop(heap)
            order.append(sequences[b][i])
            if i + 1 < len(sequences[b]):
                heapq.heappush(heap, (sequences[b][i + 1].key(), b, i + 1))
    elif policy == "left_to_right":
        for seq in sequences:
            order.extend(seq)
    elif policy == "right_to_left":
        for seq in reversed(sequences):
            order.extend(seq)
    elif policy == "random":
        rng = random.Random(0 if seed is None else seed)
        pointers = {b: 0 for b, seq in enumerate(sequences) if seq}
        alive = sorted(pointers)
        while alive:
            b = alive[rng.randrange(len(alive))]
            order.append(sequences[b][pointers[b]])
            pointers[b] += 1
            if pointers[b] == len(sequences[b]):
                alive.remove(b)
    else:
        raise ValueError(f"unknown order policy {policy!r}; expected one of {ORDER_POLICIES}")

    events = tuple(replace(ev, seq=i) for i, ev in enumerate(order))
    m = num_tasks if num_tasks is not None else (max((len(s) for s in sequences), default=0) + 1)
    return MergePlan(
        events=events,
        num_tasks=m,
        num_blocks=len(sequences),
        block_keys=tuple(block_keys),
    )


def compute_merge_plan(
    tv: TaskVectorSet,
    strategy: str = "min",
    order_policy: str = "greedy",
    seed: int | None = None,
    matrices: list[SimilarityMatrix] | None = None,
) -> MergePlan:
    """Similarity matrices -> per-block sequences -> global plan."""
    if matrices is None:
        matrices = pairwise_all(tv)
    sequences = [block_merge_sequence(mx, strategy) for mx in matrices]
    return global_merge_order(
        sequences,
        policy=order_policy,
        seed=seed,
        block_keys=tuple(tv.partition.block_keys),
        num_tasks=tv.num_tasks,
    )


# ---------------------------------------------------------------------------
# Size accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SizeModel:
    """Exact byte accounting for deployed artifacts.

    Dense families store one weight block per group. Mask families store,
    per merged group, one dense unified block plus a 1-bit-per-parameter
    mask per member, and the pretrained block once for any block containing
    a merged group; per-member rescaling scalars (emr) are reported in the
    byte breakdown but excluded from the unit value, matching the convention
    that their cost is negligible.
    """

    block_nbytes: tuple[int, ...]
    block_dims: tuple[int, ...]
    masked: bool = False
    scalars: bool = False

    @staticmethod
    def from_partition(part: BlockPartition, cfg: MergerConfig | None = None) -> "SizeModel":
        masked = bool(cfg and cfg.masked)
        scalars = bool(cfg and cfg.has_rescalers)
        return SizeModel(
            block_nbytes=tuple(part.block_nbytes),
            block_dims=tuple(part.block_dims),
            masked=masked,
            scalars=scalars,
        )

    @property
    def unit_bytes(self) -> int:
        return sum(self.block_nbytes)

    def mask_nbytes(self, block_id: int) -> int:
        return (self.block_dims[block_id] + 7) // 8

    def stored_bytes(self, block_groups) -> dict[str, int]:
        """Byte breakdown {dense, mask, pretrained, scalar} for a partition
        state (scalar bytes reported, not counted in units)."""
        dense = mask = pretrained = scalar = 0
        for b, groups in enumerate(block_groups):
            bb = self.block_nbytes[b]
            mb = self.mask_nbytes(b)
            any_multi = False
            for g in groups:
                if len(g) == 1 or not self.masked:
                    dense += bb
                else:
                    any_multi = True
                    dense += bb
                    mask += len(g) * mb
                    if self.scalars:
                        scalar += 4 * len(g)
            if self.masked and any_multi:
                pretrained += bb
        return {"dense": dense, "mask": mask, "pretrained": pretrained, "scalar": scalar}

    def units(self, stored: dict[str, int]) -> ModelUnits:
        """Model units of a ``stored_bytes`` breakdown (scalars not counted)."""
        return Fraction(stored["dense"] + stored["mask"] + stored["pretrained"], self.unit_bytes)

    def size_of(self, block_groups) -> ModelUnits:
        return self.units(self.stored_bytes(block_groups))

    def merge_delta(
        self, block_id: int, left_size: int, right_size: int, block_had_merged: bool
    ) -> ModelUnits:
        """Exact unit change from replacing two groups with their union."""
        bb = self.block_nbytes[block_id]
        if not self.masked:
            return Fraction(-bb, self.unit_bytes)
        mb = self.mask_nbytes(block_id)

        def cost(sz: int) -> int:
            return bb + (sz * mb if sz > 1 else 0)

        delta = cost(left_size + right_size) - cost(left_size) - cost(right_size)
        if not block_had_merged:
            delta += bb  # pretrained block becomes necessary
        return Fraction(delta, self.unit_bytes)


def _join(groups: dict[int, tuple[int, ...]], ev: MergeEvent, num_tasks: int) -> bool:
    """Apply ``ev`` to one block's ``task -> merged group`` map (a task not
    in it is alone) if it joins two whole current groups of tasks
    0..num_tasks-1 with min(left) < min(right); return whether it did. The
    map is left unchanged otherwise."""
    if not (ev.left and ev.right):
        return False
    a, b = ev.left[0], ev.right[0]
    if not (0 <= a < b < num_tasks and groups.get(a, (a,)) == ev.left
            and groups.get(b, (b,)) == ev.right):
        return False
    joined = tuple(sorted(ev.left + ev.right))
    for t in joined:
        groups[t] = joined
    return True


def replay_to_sizes(
    plan: MergePlan,
    tv: TaskVectorSet,
    targets: Sequence[ModelUnits],
    sm: SizeModel,
) -> list[GroupAssignment]:
    """One walk over the plan for many targets: the assignment for each
    target, in the order given.

    Each assignment is the state where the tracked size first drops to the
    target (or the fully merged state when the plan runs out first, e.g.
    below the family's floor). Targets are visited in descending order, so
    every snapshot is a prefix of the next; equal targets share one
    assignment. Each event walked must join two whole current groups of its
    block, as ``read_plan_jsonl`` checks; a malformed event (no members,
    ids out of range, part of a group, a re-merge, unsorted members or
    min(left) > min(right)) raises ``MalformedPlan``.
    """
    if tv.num_tasks != plan.num_tasks or tv.partition.num_blocks != plan.num_blocks:
        raise ValueError("plan and task vectors disagree on tasks/blocks")
    wanted = [Fraction(t) for t in targets]
    pending = sorted(set(wanted), reverse=True)
    m = plan.num_tasks
    group_of = {b: {} for b in range(plan.num_blocks)}  # block -> task -> its merged group
    size = Fraction(m)
    applied = 0
    snapshots: dict[Fraction, GroupAssignment] = {}

    def take(reached) -> None:
        # each block's groups, sorted members, ordered by their smallest member
        block_groups = [tuple(g.get(t, (t,)) for t in range(m) if g.get(t, (t,))[0] == t)
                        for g in group_of.values()]
        state = GroupAssignment(block_groups=block_groups, applied_events=applied, size=size)
        snapshots.update(dict.fromkeys(reached, state))

    for ev in plan.events:
        if pending and size <= pending[0]:
            reached = [t for t in pending if size <= t]
            take(reached)
            pending = pending[len(reached):]
        if not pending:
            break
        groups = group_of.get(ev.block_id)
        had_merged = bool(groups)
        if groups is None or not _join(groups, ev, m):
            raise MalformedPlan(f"plan event {ev.seq} re-merges a group or does not join two whole "
                                f"groups of tasks 0..{m - 1} in a block 0..{plan.num_blocks - 1}")
        size += sm.merge_delta(ev.block_id, len(ev.left), len(ev.right), had_merged)
        applied += 1
    if pending:  # reached after the last event, or below the family's floor
        take(pending)
    return [snapshots[t] for t in wanted]


def replay_to_size(
    plan: MergePlan,
    tv: TaskVectorSet,
    target: ModelUnits,
    sm: SizeModel,
) -> GroupAssignment:
    """Apply plan events in order until the tracked size first drops to
    ``target`` or the plan is exhausted (targets below the family's floor
    just return the fully merged state)."""
    return replay_to_sizes(plan, tv, [target], sm)[0]


# ---------------------------------------------------------------------------
# Fixed-K per-block clustering baseline
# ---------------------------------------------------------------------------

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    chosen = [int(rng.integers(m))]
    centers[0] = x[chosen[0]]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            pick = next(i for i in range(m) if i not in chosen)
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            pick = min(pick, m - 1)
        chosen.append(pick)
        centers[c] = x[pick]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _fix_empty_clusters(labels: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    labels = labels.copy()
    while True:
        counts = np.bincount(labels, minlength=k)
        empty = np.nonzero(counts == 0)[0]
        if empty.size == 0:
            return labels
        e = int(empty[0])
        movable = np.nonzero(counts[labels] > 1)[0]
        own = d2[movable, labels[movable]]
        labels[int(movable[int(np.argmax(own))])] = e
        # re-seeded cluster holds exactly the farthest point for this round


def _kmeans_block(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100) -> np.ndarray:
    m = x.shape[0]
    xn = x.astype(np.float64)
    norms = np.sqrt((xn * xn).sum(axis=1))
    xn = xn / np.where(norms == 0.0, 1.0, norms)[:, None]
    centers = _kmeans_pp_init(xn, k, rng)
    prev = None
    for _ in range(max_iter):
        d2 = ((xn[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        labels = _fix_empty_clusters(labels, d2, k)
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        for c in range(k):
            centers[c] = xn[labels == c].mean(axis=0)
    return prev if prev is not None else np.zeros(m, dtype=int)


def kmeans_baseline(
    tv: TaskVectorSet,
    k: int,
    seed: int = 0,
    sm: SizeModel | None = None,
) -> GroupAssignment:
    """Per-block k-means++ clustering of the task vectors into exactly K
    groups (the fixed-cluster-count baseline; no fractional sizes)."""
    if not 1 <= k <= tv.num_tasks:
        raise ValueError(f"k must be in [1, {tv.num_tasks}], got {k}")
    if sm is None:
        sm = SizeModel.from_partition(tv.partition)
    block_groups = []
    for b in range(tv.partition.num_blocks):
        labels = _kmeans_block(tv.rows(b), k, np.random.default_rng([seed, b]))
        clusters: dict[int, list[int]] = {}
        for task, lab in enumerate(labels):
            clusters.setdefault(int(lab), []).append(task)
        block_groups.append(
            tuple(tuple(sorted(g)) for g in sorted(clusters.values(), key=lambda g: g[0]))
        )
    assignment = GroupAssignment(
        block_groups=block_groups,
        applied_events=(tv.num_tasks - k) * tv.partition.num_blocks,
        size=Fraction(0),
    )
    assignment.size = sm.size_of(assignment.block_groups)
    return assignment


def write_assignment_json(
    assignment: GroupAssignment, block_keys: Sequence[str], path: str
) -> None:
    """Export the per-block task grouping as {block_key: [[task ids], ...]},
    compact JSON with sorted keys."""
    obj = {
        key: [list(g) for g in groups]
        for key, groups in zip(block_keys, assignment.block_groups)
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Plan serialization (JSON lines)
# ---------------------------------------------------------------------------

def write_plan_jsonl(plan: MergePlan, path: str) -> None:
    """One event per line: {"seq", "block", "left", "right", "score"} with
    the score rounded to float32."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in plan.events:
            fh.write(
                json.dumps(
                    {
                        "seq": ev.seq,
                        "block": ev.block_id,
                        "left": list(ev.left),
                        "right": list(ev.right),
                        "score": float(np.float32(ev.score)),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def _event_from_json(obj, where: str) -> MergeEvent:
    try:
        seq, block, score = obj["seq"], obj["block"], obj["score"]
        left, right = tuple(obj["left"]), tuple(obj["right"])
        ok = bool(left and right) and type(score) in (int, float) and all(
            type(v) is int for v in (seq, block, *left, *right))
    except (TypeError, KeyError):
        ok = False
    if not ok:
        raise MalformedPlan(f"{where}: an event is an object with integer seq and block, "
                            "non-empty lists of task ids left and right, and a numeric score")
    return MergeEvent(block_id=block, left=left, right=right, score=float(score), seq=seq)


def read_plan_jsonl(
    path: str,
    num_tasks: int | None = None,
    num_blocks: int | None = None,
    block_keys: tuple[str, ...] = (),
) -> MergePlan:
    """Read and check a plan written by ``write_plan_jsonl``; counts not
    given are inferred from the events. Raises ``MalformedPlan`` unless
    every line is an event, ``seq`` runs 0..n-1, blocks and ids are in
    range, every event joins two whole current groups of its block (so
    members are sorted and disjoint, with min(left) < min(right)) and, with
    both counts given, there are B * (M - 1) events.
    """
    events = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedPlan(f"{where}: not JSON ({exc})") from None
                events.append(_event_from_json(obj, where))
    except UnicodeDecodeError as exc:
        raise MalformedPlan(f"{path}: not UTF-8 text ({exc})") from None
    events.sort(key=lambda e: e.seq)
    if [e.seq for e in events] != list(range(len(events))):
        raise MalformedPlan(f"{path}: seq must run 0..{len(events) - 1} once each")
    counts_known = num_tasks is not None and num_blocks is not None
    if num_tasks is None:
        num_tasks = max((max(e.left + e.right) + 1 for e in events), default=1)
    if num_blocks is None:
        num_blocks = max((e.block_id for e in events), default=-1) + 1
    group_of: dict[int, dict[int, tuple[int, ...]]] = {}  # block -> task -> its merged group
    for ev in events:
        if not (0 <= ev.block_id < num_blocks
                and _join(group_of.setdefault(ev.block_id, {}), ev, num_tasks)):
            raise MalformedPlan(f"{path}: event {ev.seq} does not join two whole groups "
                                f"of tasks 0..{num_tasks - 1} in a block 0..{num_blocks - 1}")
    if counts_known and len(events) != num_blocks * (num_tasks - 1):
        raise MalformedPlan(f"{path}: {len(events)} events, expected "
                            f"{num_blocks} blocks x {num_tasks - 1} merges")
    return MergePlan(
        events=tuple(events),
        num_tasks=num_tasks,
        num_blocks=num_blocks,
        block_keys=block_keys,
    )
