"""From checkpoints to a global merge plan.

Partitions tensor names into blocks, computes per-block task vectors and
cosine similarity matrices, and builds the greedy merge order. Two of the
four synthetic tasks are made deliberately similar, and the plan picks that
pair first in almost every block.
"""

import numpy as np

from blockmerge import (
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    pairwise_block_similarity,
    partition,
)
from blockmerge.tensor_store import Checkpoint


def build_family(rng, layers=2, width=8):
    names = ["embed.w"] + [
        f"blocks.{l}.{p}.w" for l in range(layers) for p in ("attn", "mlp", "ln1", "ln2")
    ]
    shapes = {n: (width, width) if ("attn" in n or "mlp" in n) else (width,) for n in names}
    pre = Checkpoint(tensors={n: rng.normal(size=shapes[n]).astype(np.float32) for n in names})

    def variant(scale, base=None):
        tensors = {}
        for n in names:
            drift = rng.normal(scale=scale, size=shapes[n]).astype(np.float32)
            tensors[n] = (base.tensors[n] if base else pre.tensors[n]) + drift
        return Checkpoint(tensors=tensors)

    t0 = variant(0.05)
    t1 = variant(0.01, base=t0)  # t1 is a small perturbation of t0
    t2 = variant(0.05)
    t3 = variant(0.05)
    return pre, [t0, t1, t2, t3]


def main():
    rng = np.random.default_rng(1)
    pre, tasks = build_family(rng)

    part = partition(pre, default_transformer_rules())
    print(f"{part.num_blocks} blocks: {part.block_keys}")

    tv = compute_task_vectors(pre, tasks, part)
    print(f"task vectors: M={tv.num_tasks}, d_max={max(part.block_dims)}, total dim={part.total_dim}")

    mx = pairwise_block_similarity(tv, 1)  # first attention block
    print(f"\ncosine matrix for block '{part.block_keys[1]}':")
    print(np.array_str(mx.values, precision=3))

    plan = compute_merge_plan(tv, strategy="min", order_policy="greedy", seed=0)
    print(f"\ngreedy plan, {len(plan.events)} events; first five:")
    for ev in plan.events[:5]:
        print(f"  seq {ev.seq}: block {plan.block_keys[ev.block_id]:<8} "
              f"{ev.left} + {ev.right}  score {ev.score:.4f}")

    first_pairs = {}
    for ev in plan.events:
        first_pairs.setdefault(ev.block_id, (ev.left, ev.right))
    pair01 = sum(1 for pair in first_pairs.values() if pair == ((0,), (1,)))
    print(f"\nblocks whose first merge is the lookalike pair (0, 1): "
          f"{pair01} of {part.num_blocks}")

    for policy in ("left_to_right", "right_to_left", "random"):
        alt = compute_merge_plan(tv, order_policy=policy, seed=7)
        head = [alt.events[i].block_id for i in range(6)]
        print(f"{policy:>14}: first blocks touched {head}")


if __name__ == "__main__":
    main()
