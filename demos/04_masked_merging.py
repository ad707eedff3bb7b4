"""Mask-carrying mergers: unified vector + per-task masks (+ rescalers).

Fully merging M tasks with a mask-family algorithm stores the pretrained
weights, one unified vector and M one-bit-per-parameter masks, giving the
characteristic floor of 2 + M/32 model units for float32 weights. Per-task
weights are rebuilt on demand as pretrained + masked product; the stored
buffers are only read, so rebuilding a task again gives the same bits.
"""

from fractions import Fraction

import numpy as np

from blockmerge import (
    MergerConfig,
    SizeModel,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    partition,
    prepare_task_vectors,
    reconstruct_task,
    replay_to_size,
    verify_artifact,
)
from blockmerge.tensor_store import Checkpoint


def build_family(rng, num_tasks, blocks=6, width=64):
    names = [f"layer{i}.w" for i in range(blocks)]
    pre = Checkpoint(tensors={n: rng.normal(size=width).astype(np.float32) for n in names})
    tasks = []
    for _ in range(num_tasks):
        tensors = {n: pre.tensors[n] + rng.normal(scale=0.1, size=width).astype(np.float32)
                   for n in names}
        tasks.append(Checkpoint(tensors=tensors))
    return pre, tasks


def main():
    rng = np.random.default_rng(3)
    m = 11
    pre, tasks = build_family(rng, num_tasks=m)
    part = partition(pre, rules=[])  # every tensor its own block

    for algorithm in ("emr", "consensus"):
        cfg = MergerConfig.for_algorithm(algorithm)
        tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
        sm = SizeModel.from_partition(part, cfg)
        plan = compute_merge_plan(tv)
        asg = replay_to_size(plan, tv, Fraction(0), sm)  # merge everything
        art = build_artifact(asg, tv, cfg)  # the pretrained blocks come from tv
        rep = art.size_report

        print(f"\n{algorithm}: fully merged, M={m}")
        print(f"  floor size: {float(rep.units):.5f} model units "
              f"({rep.units.numerator}/{rep.units.denominator}; 2 + {m}/32 = {2 + m / 32})")
        print(f"  bytes: dense {rep.dense_bytes}, masks {rep.mask_bytes}, "
              f"pretrained {rep.pretrained_bytes}, scalars {rep.scalar_bytes} (reported only)")

        group = art.groups[0]
        d = part.blocks[group.block_id].dim
        # masks are stored as packed bits, one uint8 row per member
        density = [float(np.unpackbits(row, count=d).mean()) for row in group.masks[:3]]
        print(f"  block 0 mask density (first 3 tasks): {[f'{x:.2f}' for x in density]}")
        if group.gammas is not None:
            print(f"  block 0 rescalers (first 3): {[f'{g:.3f}' for g in group.gammas[:3]]}")

        ckpt = reconstruct_task(art, 0)
        sse = verify_artifact(art, tasks).total_sse  # rebuilds every task
        print(f"  reconstruction SSE over all tasks/blocks: {sse:.5f}")
        print(f"  task 0 rebuilt again after all {m} tasks, same bits: "
              f"{reconstruct_task(art, 0).same_tensors(ckpt)}")
        err = max(
            float(np.abs(ckpt.tensors[n].astype(np.float64)
                         - tasks[0].tensors[n].astype(np.float64)).max())
            for n in pre.tensors
        )
        print(f"  task 0 max |rebuilt - original|: {err:.4f}")


if __name__ == "__main__":
    main()
