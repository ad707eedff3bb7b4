"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from blockmerge import (
    Checkpoint,
    MergeOutput,
    MergerConfig,
    TaskVectorSet,
    compute_task_vectors,
    merge_group,
    partition,
)
from blockmerge.mergers import ceil_count
from blockmerge.task_space import Block, BlockPartition
from blockmerge.tensor_store import dtype_code

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


def tv_from_rows(blocks) -> TaskVectorSet:
    """A set whose rows are ``blocks``, one (M, d_b) array per block, built
    as the pipeline builds one: ``compute_task_vectors`` over in-memory
    checkpoints, an all-zero pretrained model and task k holding row k of
    every block (views of the given arrays when they are C-contiguous
    float32). Rows come back as x - 0.0, which is x bit for bit for every
    float32 (-0.0, infinities, subnormals and quiet NaN payloads included)
    but a signalling NaN, which comes back quiet; so none may be given."""
    blocks = [np.ascontiguousarray(v, dtype=np.float32) for v in blocks]
    for v in blocks:
        bits = v.view(np.uint32) & 0x7FFFFFFF
        assert not ((bits > 0x7F800000) & (bits < 0x7FC00000)).any(), "signalling NaN"
    part = synthetic_partition([v.shape[1] for v in blocks])
    names = [b.tensor_names[0] for b in part.blocks]
    pre = Checkpoint({n: np.zeros(v.shape[1], dtype=np.float32) for n, v in zip(names, blocks)})
    tasks = [Checkpoint({n: v[k] for n, v in zip(names, blocks)}) for k in range(len(blocks[0]))]
    return compute_task_vectors(pre, tasks, part)


def merge_rows(algorithm: str, vectors, **overrides) -> MergeOutput:
    """``merge_group`` of ``vectors`` (an (n, d) matrix or n d-vectors, n >=
    1) as one group of a one-block ``tv_from_rows`` set, under
    ``algorithm``'s defaults with ``overrides``. The set views the given
    rows, so an input the merge wrote into would show."""
    mat = np.asarray(vectors, dtype=np.float32)
    mat = mat.reshape(len(mat), -1)
    cfg = MergerConfig.for_algorithm(algorithm, **overrides)
    return merge_group(cfg, tv_from_rows([mat]), 0, range(len(mat)))


def synthetic_rows(rng: np.random.Generator, dims: list[int], num_tasks: int, scale=1.0) -> list[np.ndarray]:
    """Normal (num_tasks, d) float32 rows per block, to edit before ``tv_from_rows``."""
    return [rng.normal(scale=scale, size=(num_tasks, d)).astype(np.float32) for d in dims]


def synthetic_tv(rng: np.random.Generator, dims: list[int], num_tasks: int, scale=1.0) -> TaskVectorSet:
    return tv_from_rows(synthetic_rows(rng, dims, num_tasks, scale))


def ratio_for(keep: str | int, total: int) -> float:
    """A keep_ratio whose ceil(ratio * total) is the wanted count: ``keep``
    is a count, "one", "all_but_one", "all", or "ratio_one" for 1.0."""
    if keep == "ratio_one":
        return 1.0
    count = {"one": 1, "all_but_one": max(1, total - 1), "all": total}.get(keep, keep)
    ratio = (count - 0.5) / total
    assert ceil_count(ratio, total) == count
    return ratio


def buffer_owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``arr`` views (``arr`` itself if it
    owns its data)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def buffer_offset(arr: np.ndarray) -> int:
    """Where ``arr``'s first byte lies in the buffer it views: for a tensor
    of a read archive, its offset in the file."""
    return arr.__array_interface__["data"][0] - buffer_owner(arr).__array_interface__["data"][0]


def plan_signature(plan):
    return [(e.block_id, e.left, e.right, float(np.float32(e.score))) for e in plan.events]


def write_unpadded(ckpt: Checkpoint, path) -> None:
    """``ckpt`` as an archive whose compact header leaves the data section
    at an odd file offset, as another writer's may: read_archive maps it,
    and every tensor wider than a byte is an unaligned view."""
    header, offset = {}, 0
    for name, arr in ckpt.tensors.items():
        header[name] = {"dtype": dtype_code(arr), "shape": list(arr.shape),
                        "data_offsets": [offset, offset + arr.nbytes]}
        offset += arr.nbytes
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload += b" " * ((1 - len(payload)) % 2)  # 8 + len(payload) is odd
    Path(path).write_bytes(struct.pack("<Q", len(payload)) + payload
                           + b"".join(arr.tobytes() for arr in ckpt.tensors.values()))


# one-tensor archive headers that JSON true/false slip into, as a dim or as
# an offset; each passes a check that takes booleans for integers
BOOLEAN_ENTRIES = {
    "shape": {"dtype": "F32", "shape": [True, 3], "data_offsets": [0, 12]},
    "begin": {"dtype": "U8", "shape": [1], "data_offsets": [False, 1]},
    "end": {"dtype": "U8", "shape": [1], "data_offsets": [0, True]},
}


def write_boolean_header(path, kind: str) -> None:
    """A one-tensor archive whose header entry is ``BOOLEAN_ENTRIES[kind]``,
    with as many data bytes as its end offset says."""
    entry = BOOLEAN_ENTRIES[kind]
    payload = json.dumps({"x": entry}).encode("utf-8")
    Path(path).write_bytes(struct.pack("<Q", len(payload)) + payload
                           + bytes(int(entry["data_offsets"][1])))
