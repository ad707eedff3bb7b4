"""Seeded synthetic workloads for the blockmerge benchmark.

Every workload is a pretrained checkpoint plus M fine-tuned ones, written
as safetensors-compatible archives by this module's own writer, so the
input bytes depend only on the workload and the seed, never on the code
under test. Fine-tuned tensors are Gaussian noise around 4 latent task
clusters: task k = pretrained + centre[cluster(k)] + noise. The cluster
structure gives the merge order something to find, and the values are not
on a dyadic grid, so float rounding behaves as it does on real weights.

Cache sizes are those of the reference machine (2 cores, `lscpu`: 4 MiB
L2, 300 MiB L3); each workload states its bytes relative to them.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

L2_BYTES = 4 << 20
L3_BYTES = 300 << 20
CLUSTERS = 4

RULES = {
    "rules": [
        {"pattern": "blocks.{L}.attn.*", "block_key": "L{L}.attn"},
        {"pattern": "blocks.{L}.mlp.*", "block_key": "L{L}.mlp"},
        {"pattern": "blocks.{L}.ln1.*", "block_key": "L{L}.ln1"},
        {"pattern": "blocks.{L}.ln2.*", "block_key": "L{L}.ln2"},
    ],
    "exclude": ["head.*"],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_tasks: int
    dtype: str  # "F32" | "F16"
    tensors: tuple[tuple[str, tuple[int, ...]], ...]  # (name, shape), archive order
    algorithm: str
    strategy: str
    order: str
    sizes: str  # the --sizes argument of `blockmerge merge`
    plan_seed: int = 0
    # passes over every (artifact, task) pair per repetition; at least 2 so
    # every pair is reconstructed again, and at least 100 calls so p90 has
    # ten samples beyond it
    reconstruct_cycles: int = 2

    @property
    def itemsize(self) -> int:
        return 2 if self.dtype == "F16" else 4

    def mergeable(self):
        return [(n, s) for n, s in self.tensors if not n.startswith("head.")]

    def block_dims(self) -> dict[str, int]:
        """Mergeable parameters per block, keyed like the rules file keys them."""
        dims: dict[str, int] = {}
        for name, shape in self.mergeable():
            parts = name.split(".")
            key = f"L{parts[1]}.{parts[2]}" if parts[0] == "blocks" else name
            dims[key] = dims.get(key, 0) + int(np.prod(shape))
        return dims

    def stats(self) -> dict:
        dims = self.block_dims()
        total_dim = sum(dims.values())
        tv_bytes = self.num_tasks * total_dim * 4  # task vectors are float32
        block_ws = self.num_tasks * max(dims.values()) * 4
        return {
            "blocks": len(dims),
            "plan_events": len(dims) * (self.num_tasks - 1),
            "task_vector_mb": tv_bytes / 1e6,
            "task_vectors_over_l3": round(tv_bytes / L3_BYTES, 3),
            "block_working_set_kb": block_ws / 1e3,
            "block_working_set_over_l2": round(block_ws / L2_BYTES, 3),
        }


def _layers(count: int, parts: dict[str, tuple[int, ...]]):
    return [(f"blocks.{layer}.{part}", shape) for layer in range(count) for part, shape in parts.items()]


def _large_blocks_ties(tiny: bool) -> Workload:
    w = 16 if tiny else 512
    layers = _layers(2 if tiny else 8, {
        "attn.q.weight": (w, w), "attn.k.weight": (w, w),
        "attn.v.weight": (w, w), "attn.o.weight": (w, w),
        "mlp.fc1.weight": (w, 2 * w), "mlp.fc2.weight": (2 * w, w),
        "ln1.weight": (w,), "ln2.weight": (w,),
    })
    return Workload(
        name="large_blocks_ties",
        # Bytes-bound: reads, task vectors (~540 MB, above L3), the global
        # 10% trim, 1M-dim cosines, input hashing and dense 1M-dim merges
        # dominate. The scheduler is nearly idle (231 events), and
        # reconstruction is dense copies, so the masked load path is bypassed.
        # Not in BENCHMARK.json: one repetition takes ~35 s on the reference
        # machine, too long for the repetitions a steady run needs within the
        # benchmark's time budget. Run it by hand with --workload.
        why="bytes-bound: 610 MB of f32 inputs, task vectors above L3, global ties trim, "
            "1M-dim cosines and dense merges; scheduler idle, masked load path bypassed",
        num_tasks=8,
        dtype="F32",
        tensors=tuple([("embed.weight", (256, w))] + layers + [("head.weight", (16, w))]),
        algorithm="ties",
        strategy="min",
        order="greedy",
        sizes="1,2,4,6",
        reconstruct_cycles=4,
    )


def _many_tasks_emr(tiny: bool) -> Workload:
    w = 8 if tiny else 80
    return Workload(
        name="many_tasks_emr",
        # Object-count-bound: 4379 plan events and ~6000 group merges per
        # sweep, 42% of them repeated across sizes; a block's working set
        # (768 KB) fits in L2. Masked in-place reconstruction runs with
        # rescalers that are not powers of two. Sizes 1 and 2 sit below emr's
        # floor of 2 + 30/32, so they yield the fully merged state; at 30 = M
        # every reconstruction must be bit-exact. Trimming is bypassed.
        why="object-count-bound: 30 tasks x 151 small blocks, 4379 plan events, ~6000 emr "
            "group merges per sweep; masked reconstruction with non-dyadic rescalers; no trim",
        num_tasks=30,
        dtype="F32",
        tensors=tuple([("embed.weight", (64, w))]
                      + _layers(6 if tiny else 75, {"attn.weight": (w, w), "mlp.weight": (w, w)})),
        algorithm="emr",
        strategy="min",
        order="greedy",
        sizes="1,2,3,5,8,11,15,19,24,30",
    )


def _unified_f16_single(tiny: bool) -> Workload:
    w = 16 if tiny else 256
    return Workload(
        name="unified_f16_single",
        # Exercises the vector-based `unified` linkage instead of the
        # matrix-only nearest-neighbour chain, the seeded random interleave
        # instead of the heap, and f16 widening and narrowing. It deploys one
        # fractional size, so cross-size merge reuse has nothing to reuse.
        why="f16 inputs, consensus masks, vector-based unified linkage, seeded random order, "
            "one fractional size 5.75 so cross-size reuse has nothing to reuse",
        num_tasks=16,
        dtype="F16",
        tensors=tuple([("embed.weight", (128, w))]
                      + _layers(3 if tiny else 16, {
                          "attn.weight": (w // 2, w), "mlp.weight": (w, w),
                          "ln1.weight": (w,), "ln2.weight": (w,),
                      })
                      + [("head.weight", (16, w))]),
        algorithm="consensus",
        strategy="unified",
        order="random",
        sizes="5.75",
        plan_seed=7,
        reconstruct_cycles=10,
    )


_BUILDERS = {
    "large_blocks_ties": _large_blocks_ties,
    "many_tasks_emr": _many_tasks_emr,
    "unified_f16_single": _unified_f16_single,
}
NAMES = tuple(_BUILDERS)


def get(name: str, tiny: bool = False) -> Workload:
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    return _BUILDERS[name](tiny)


@dataclass(frozen=True)
class Inputs:
    pretrained: str
    finetuned: tuple[str, ...]
    rules: str
    input_bytes: int


def _header(wl: Workload) -> bytes:
    header = {}
    offset = 0
    for name, shape in wl.tensors:
        nbytes = int(np.prod(shape)) * wl.itemsize
        header[name] = {"dtype": wl.dtype, "shape": list(shape), "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def generate(wl: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the workload's archives and rules file under ``out_dir``.

    Tensors are drawn one at a time in archive order and appended to all
    M + 1 files, so memory stays at a few tensors however large the model.
    The same (workload, seed) always yields the same bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(wl.name)])
    m = wl.num_tasks
    clusters = rng.permutation(np.arange(m) % CLUSTERS)
    np_dtype = np.dtype("<f2") if wl.dtype == "F16" else np.dtype("<f4")
    paths = [os.path.join(out_dir, "pretrained.safetensors")]
    paths += [os.path.join(out_dir, f"task{k:02d}.safetensors") for k in range(m)]
    header = _header(wl)
    files = [open(p, "wb") for p in paths]
    try:
        for fh in files:
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
        for index, (name, shape) in enumerate(wl.tensors):
            n = int(np.prod(shape))
            pre = rng.standard_normal(n, dtype=np.float32) * np.float32(0.05)
            files[0].write(pre.astype(np_dtype).tobytes())
            if name.startswith("head."):
                for fh in files[1:]:
                    fh.write((rng.standard_normal(n, dtype=np.float32) * np.float32(0.05))
                             .astype(np_dtype).tobytes())
                continue
            # centre scale 0.005..0.015 by position in the archive, so blocks
            # differ in how far tasks move; it is fixed rather than drawn, so
            # the work a seed implies varies little from seed to seed
            scale = np.float32(0.01 * (0.5 + index / (len(wl.tensors) - 1)))
            centres = [rng.standard_normal(n, dtype=np.float32) * scale for _ in range(CLUSTERS)]
            for k, fh in enumerate(files[1:]):
                noise = rng.standard_normal(n, dtype=np.float32) * np.float32(0.5 * scale)
                fh.write((pre + centres[clusters[k]] + noise).astype(np_dtype).tobytes())
    finally:
        for fh in files:
            fh.close()
    rules = os.path.join(out_dir, "rules.json")
    with open(rules, "w", encoding="utf-8") as fh:
        json.dump(RULES, fh, indent=1)
    return Inputs(
        pretrained=paths[0],
        finetuned=tuple(paths[1:]),
        rules=rules,
        input_bytes=sum(os.path.getsize(p) for p in paths),
    )
