"""Shared fixture builders for the test suite."""

from __future__ import annotations

import numpy as np

from blockmerge import Checkpoint, TaskVectorSet, compute_task_vectors, partition
from blockmerge.task_space import Block, BlockPartition

GRID = 2.0 ** -10  # dyadic grid: sums/differences of a few values stay exact in float32


def grid_values(rng: np.random.Generator, shape, lo=-4.0, hi=4.0) -> np.ndarray:
    """float32 values on a dyadic grid, so checkpoint arithmetic is exact."""
    steps = rng.integers(int(lo / GRID), int(hi / GRID) + 1, size=shape)
    return (steps * GRID).astype(np.float32)


def toy_layer_names(layers: int) -> list[str]:
    names = ["embed.w"]
    for layer in range(layers):
        for part in ("attn", "mlp", "ln1", "ln2"):
            names.append(f"blocks.{layer}.{part}.w")
    names.append("head.w")
    return names


def toy_model(
    rng: np.random.Generator,
    num_tasks: int,
    layers: int = 2,
    width: int = 8,
    dtype=np.float32,
    with_head: bool = True,
) -> tuple[Checkpoint, list[Checkpoint]]:
    """Pretrained + fine-tuned checkpoints with transformer-style names and
    grid-aligned float values."""
    names = toy_layer_names(layers)
    if not with_head:
        names = [n for n in names if n != "head.w"]
    shapes = {n: ((width, width) if "attn" in n or "mlp" in n else (width,)) for n in names}
    pre = Checkpoint(tensors={n: grid_values(rng, shapes[n]).astype(dtype) for n in names})
    tasks = []
    for _ in range(num_tasks):
        tensors = {}
        for n in names:
            delta = grid_values(rng, shapes[n], lo=-0.5, hi=0.5)
            tensors[n] = (pre.tensors[n].astype(np.float32) + delta).astype(dtype)
        tasks.append(Checkpoint(tensors=tensors))
    return pre, tasks


def toy_task_vectors(rng, num_tasks, layers=2, width=8, exclude=("head.*",)):
    pre, tasks = toy_model(rng, num_tasks, layers, width)
    from blockmerge import default_transformer_rules

    part = partition(pre, default_transformer_rules(), list(exclude))
    tv = compute_task_vectors(pre, tasks, part)
    return pre, tasks, part, tv


def synthetic_partition(dims: list[int], bytes_per_element: int = 4) -> BlockPartition:
    """Partition skeleton for vector-only tests (one tensor per block)."""
    blocks = []
    tensor_to_block = {}
    for i, d in enumerate(dims):
        name = f"b{i}.w"
        blocks.append(
            Block(
                block_id=i,
                key=f"b{i}",
                tensor_names=[name],
                shapes=[(d,)],
                dtypes=["F32" if bytes_per_element == 4 else "F16"],
                dim=d,
                nbytes=d * bytes_per_element,
            )
        )
        tensor_to_block[name] = i
    return BlockPartition(
        blocks=blocks,
        tensor_to_block=tensor_to_block,
        excluded=[],
        name_order=[b.tensor_names[0] for b in blocks],
    )


def synthetic_tv(rng: np.random.Generator, dims: list[int], num_tasks: int, scale=1.0) -> TaskVectorSet:
    part = synthetic_partition(dims)
    vectors = [rng.normal(scale=scale, size=(num_tasks, d)).astype(np.float32) for d in dims]
    return TaskVectorSet(partition=part, num_tasks=num_tasks, block_vectors=vectors)


def buffer_owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``arr`` views (``arr`` itself if it
    owns its data)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def plan_signature(plan):
    return [(e.block_id, e.left, e.right, float(np.float32(e.score))) for e in plan.events]
