"""Drive the command-line surface end to end.

plan -> merge (size sweep) -> reconstruct -> inspect, all inside a temp
directory, with the same toy checkpoint family as the other demos.
"""

import json
import os
import tempfile

import numpy as np

from blockmerge import Checkpoint, read_archive, write_archive
from blockmerge.cli import main as cli


def build_inputs(workdir, rng, num_tasks=4, layers=2, width=8):
    names = ["embed.w"] + [
        f"blocks.{l}.{p}.w" for l in range(layers) for p in ("attn", "mlp", "ln1", "ln2")
    ] + ["head.w"]
    shapes = {n: (width, width) if ("attn" in n or "mlp" in n) else (width,) for n in names}
    pre = Checkpoint(tensors={n: rng.normal(size=shapes[n]).astype(np.float32) for n in names})
    pre_path = os.path.join(workdir, "pretrained.st")
    write_archive(pre, pre_path)
    ft_paths = []
    for k in range(num_tasks):
        tensors = {n: pre.tensors[n] + rng.normal(scale=0.05, size=shapes[n]).astype(np.float32)
                   for n in names}
        path = os.path.join(workdir, f"task{k}.st")
        write_archive(Checkpoint(tensors=tensors), path)
        ft_paths.append(path)
    rules = {
        "rules": [
            {"pattern": "blocks.{L}.attn.*", "block_key": "L{L}.attn"},
            {"pattern": "blocks.{L}.mlp.*", "block_key": "L{L}.mlp"},
            {"pattern": "blocks.{L}.ln1.*", "block_key": "L{L}.ln1"},
            {"pattern": "blocks.{L}.ln2.*", "block_key": "L{L}.ln2"},
        ],
        "exclude": ["head.*"],
        "merger": {"algorithm": "ta", "lam": 1.5},
    }
    rules_path = os.path.join(workdir, "rules.json")
    with open(rules_path, "w") as fh:
        json.dump(rules, fh, indent=1)
    return pre_path, ft_paths, rules_path


def main():
    with tempfile.TemporaryDirectory(prefix="blockmerge_demo5_") as workdir:
        rng = np.random.default_rng(4)
        pre_path, ft_paths, rules_path = build_inputs(workdir, rng)
        base = ["--pretrained", pre_path, "--rules", rules_path]
        for p in ft_paths:
            base += ["--finetuned", p]

        plan_dir = os.path.join(workdir, "plan")
        print("$ blockmerge plan ...")
        assert cli(["plan"] + base + ["--out", plan_dir]) == 0

        out_dir = os.path.join(workdir, "merged")
        print("\n$ blockmerge merge --sizes 1,1.75,2.5,4 ...")
        assert cli(["merge"] + base + [
            "--plan", os.path.join(plan_dir, "plan.jsonl"),
            "--sizes", "1,1.75,2.5,4", "--out", out_dir,
        ]) == 0

        rebuilt = os.path.join(workdir, "task2.rebuilt.st")
        print("\n$ blockmerge reconstruct --task 2 ... (from the 4x artifact)")
        assert cli(["reconstruct", "--artifact", os.path.join(out_dir, "size_4"),
                    "--task", "2", "--out", rebuilt]) == 0
        same = read_archive(rebuilt).same_tensors(read_archive(ft_paths[2]))
        print(f"4x artifact reproduces task 2 bit-for-bit: {same}")

        reports = os.path.join(workdir, "reports")
        print("\n$ blockmerge inspect ... (1.75x artifact)")
        assert cli(["inspect", "--input", os.path.join(out_dir, "size_1.75"),
                    "--out", reports]) == 0
        print("\n$ blockmerge inspect ... (plan)")
        assert cli(["inspect", "--input", plan_dir, "--out", reports]) == 0

        print("\ncluster counts per block at 1.75x:")
        with open(os.path.join(reports, "clusters_per_block.csv")) as fh:
            print(fh.read().strip())
        print(f"\nartifacts and reports were written to {workdir}, removed on exit")


if __name__ == "__main__":
    main()
