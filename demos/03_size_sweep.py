"""The size axis: replay one plan to many deployed sizes.

A single precomputed plan is replayed once, in one walk, to a sweep of
targets between one model and all M of them (fractional targets included). Reconstruction
error against the original checkpoints falls monotonically as the deployed
size grows, mirroring the accuracy-size trade-off this kind of merging is
built around.
"""

from fractions import Fraction

import numpy as np

from blockmerge import (
    MergerConfig,
    SizeModel,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    kmeans_baseline,
    partition,
    replay_to_sizes,
    verify_artifact,
)
from blockmerge.tensor_store import Checkpoint


def build_family(rng, num_tasks=6, layers=3, width=8):
    names = ["embed.w"] + [
        f"blocks.{l}.{p}.w" for l in range(layers) for p in ("attn", "mlp", "ln1", "ln2")
    ]
    shapes = {n: (width, width) if ("attn" in n or "mlp" in n) else (width,) for n in names}
    pre = Checkpoint(tensors={n: rng.normal(size=shapes[n]).astype(np.float32) for n in names})
    tasks = []
    for _ in range(num_tasks):
        tensors = {n: pre.tensors[n] + rng.normal(scale=0.05, size=shapes[n]).astype(np.float32)
                   for n in names}
        tasks.append(Checkpoint(tensors=tensors))
    return pre, tasks


def main():
    rng = np.random.default_rng(2)
    pre, tasks = build_family(rng)
    part = partition(pre, default_transformer_rules())
    tv = compute_task_vectors(pre, tasks, part)

    cfg = MergerConfig.for_algorithm("ta")  # lam = 1.5
    sm = SizeModel.from_partition(part, cfg)
    plan = compute_merge_plan(tv)

    targets = [Fraction(t) for t in ("1", "1.5", "2", "2.25", "3", "4", "5", "6")]
    print("target   achieved   events   reconstruction SSE")
    for target, asg in zip(targets, replay_to_sizes(plan, tv, targets, sm)):
        art = build_artifact(asg, tv, pre, cfg, finetuned=tasks)
        sse = verify_artifact(art, tasks).total_sse
        print(f"{float(target):>6.2f}   {float(asg.size):>8.4f}   {asg.applied_events:>6}   {sse:>12.6f}")

    print("\nfixed-K clustering baseline (whole sizes only):")
    for k in (1, 2, 3, 6):
        asg = kmeans_baseline(tv, k=k, seed=0, sm=sm)
        art = build_artifact(asg, tv, pre, cfg, finetuned=tasks)
        sse = verify_artifact(art, tasks).total_sse
        counts = {len(g) for groups in asg.block_groups for g in groups}
        print(f"K={k}: size {float(asg.size):.1f}, group sizes seen {sorted(counts)}, "
              f"SSE {sse:.6f}")


if __name__ == "__main__":
    main()
