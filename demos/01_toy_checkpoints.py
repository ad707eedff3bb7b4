"""Build a toy checkpoint family and poke at the archive format.

Creates one "pretrained" model and four "fine-tuned" variants with
transformer-style tensor names, writes them as flat tensor archives, and
shows that reading them back is bit-exact.
"""

import os
import tempfile

import numpy as np

from blockmerge import Checkpoint, read_archive, validate_aligned, write_archive


def build_family(rng, num_tasks=4, layers=2, width=8):
    names = ["embed.w"]
    for layer in range(layers):
        for part in ("attn", "mlp", "ln1", "ln2"):
            names.append(f"blocks.{layer}.{part}.w")
    names.append("head.w")
    shapes = {n: (width, width) if ("attn" in n or "mlp" in n) else (width,) for n in names}

    pretrained = Checkpoint(
        tensors={n: rng.normal(size=shapes[n]).astype(np.float32) for n in names}
    )
    finetuned = []
    for task in range(num_tasks):
        tensors = {}
        for n in names:
            drift = rng.normal(scale=0.05, size=shapes[n]).astype(np.float32)
            tensors[n] = pretrained.tensors[n] + drift
        finetuned.append(Checkpoint(tensors=tensors, metadata={"task": str(task)}))
    return pretrained, finetuned


def main():
    rng = np.random.default_rng(0)
    pretrained, finetuned = build_family(rng)
    with tempfile.TemporaryDirectory(prefix="blockmerge_demo1_") as workdir:
        pre_path = os.path.join(workdir, "pretrained.safetensors")
        write_archive(pretrained, pre_path)
        print(f"wrote {pre_path} ({os.path.getsize(pre_path)} bytes, "
              f"{len(pretrained.tensors)} tensors)")

        for k, ckpt in enumerate(finetuned):
            path = os.path.join(workdir, f"task{k}.safetensors")
            write_archive(ckpt, path)
            back = read_archive(path)
            assert back.same_tensors(ckpt), "round trip must be bit-exact"
            print(f"wrote {path}; round trip ok, metadata={back.metadata}")

        report = validate_aligned(pretrained, finetuned, exclude=["head.*"])
        print(f"alignment ok: {report.ok} (mismatches: {report.mismatches})")
        print(f"\ncheckpoints were written to {workdir}, removed on exit; "
              "the other demos rebuild their own.")


if __name__ == "__main__":
    main()
