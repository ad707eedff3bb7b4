"""Mapped input pages given back block by block: a release never changes a
byte (of the inputs, or of any plan or artifact), touches no buffer but the
mappings read_archive makes, and bounds the input pages a plan + merge holds
by a few blocks of all tasks rather than by the inputs."""

import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from blockmerge import (
    Checkpoint,
    compute_task_vectors,
    default_transformer_rules,
    partition,
    read_archive,
    write_archive,
)
from blockmerge.cli import main
from blockmerge.task_space import TaskVectorSet
from blockmerge.tensor_store import dtype_code, mapped_ends, release_pages

from helpers import toy_model

HAS_DONTNEED = hasattr(mmap, "MADV_DONTNEED")
LAYER_RULES = [
    {"pattern": "blocks.{L}.attn.*", "block_key": "L{L}.attn"},
    {"pattern": "blocks.{L}.mlp.*", "block_key": "L{L}.mlp"},
    {"pattern": "blocks.{L}.ln1.*", "block_key": "L{L}.ln1"},
    {"pattern": "blocks.{L}.ln2.*", "block_key": "L{L}.ln2"},
]
# one block gathers every layer's ln1, so its last tensor ends near the end
# of each file and the watermark releases the blocks still to come
OUT_OF_ORDER_RULES = [{"pattern": "blocks.{L}.ln1.*", "block_key": "ln1"}] + LAYER_RULES


def write_unpadded(ckpt: Checkpoint, path) -> None:
    """``ckpt`` as an archive whose compact header leaves the data section
    at an odd file offset, so read_archive reads it instead of mapping it."""
    header, offset = {}, 0
    for name, arr in ckpt.tensors.items():
        header[name] = {"dtype": dtype_code(arr), "shape": list(arr.shape),
                        "data_offsets": [offset, offset + arr.nbytes]}
        offset += arr.nbytes
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload += b" " * ((1 - len(payload)) % 2)  # 8 + len(payload) is odd
    Path(path).write_bytes(struct.pack("<Q", len(payload)) + payload
                           + b"".join(arr.tobytes() for arr in ckpt.tensors.values()))


def write_family(root, pre, tasks, writer, rules) -> list[str]:
    """CLI arguments naming ``pre`` and ``tasks`` written by ``writer``
    under ``root``, with a rules file of ``rules``."""
    os.makedirs(root, exist_ok=True)
    args = ["--pretrained", os.path.join(root, "pre.st")]
    writer(pre, args[1])
    for k, ck in enumerate(tasks):
        path = os.path.join(root, f"task{k}.st")
        writer(ck, path)
        args += ["--finetuned", path]
    rules_path = os.path.join(root, "rules.json")
    Path(rules_path).write_text(json.dumps({"rules": rules, "exclude": ["head.*"]}))
    return args + ["--rules", rules_path]


def snapshot(ckpt: Checkpoint) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in ckpt.tensors.items()}


def tree_bytes(root, fingerprint: str) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with the input
    fingerprint (a hash of the input files' bytes) blanked."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for f in filenames:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = Path(p).read_bytes().replace(fingerprint.encode(), b"FP")
    return out


def rss_file_kb() -> int | None:
    """This process's resident file-backed pages in KiB (Linux), or None:
    ``RssFile`` plus ``RssShmem``, where mapped pages of tmpfs files count."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["RssFile"].split()[0]) + int(fields["RssShmem"].split()[0])
    except (OSError, KeyError, ValueError):
        return None


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_release_touches_no_buffer_but_an_archive_mapping(tmp_path):
    rng = np.random.default_rng(40)
    pre, tasks = toy_model(rng, 3, layers=2, width=16)
    part = partition(pre, default_transformer_rules(), ["head.*"])

    write_unpadded(tasks[0], tmp_path / "odd.st")
    read_path = read_archive(str(tmp_path / "odd.st"))
    in_memory = tasks[1]

    anon = mmap.mmap(-1, 1 << 16)
    anon[:] = rng.integers(0, 256, size=1 << 16, dtype=np.uint8).tobytes()
    write_archive(tasks[2], str(tmp_path / "t2.st"))
    with open(tmp_path / "t2.st", "rb") as fh:
        copy = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    copy[100:104] = b"\xff\xfe\xfd\xfc"  # a private write a release would discard

    def over(buf) -> Checkpoint:
        """``tasks[0]``'s layout as read-only views of ``buf``."""
        data = np.frombuffer(buf, np.uint8)
        tensors, offset = {}, 0
        for name, arr in tasks[0].tensors.items():
            tensors[name] = data[offset : offset + arr.nbytes].view(arr.dtype).reshape(arr.shape)
            offset += arr.nbytes
        return Checkpoint(tensors)

    anon_ck, copy_ck = over(anon), over(copy)
    cases = [read_path, in_memory, anon_ck, copy_ck]
    before = [snapshot(ck) for ck in cases]
    raw = [anon[:], copy[:]]
    assert all(mapped_ends(list(ck.tensors.values())) is None for ck in cases)
    release_pages(anon, len(anon))
    release_pages(copy, len(copy))
    tv = compute_task_vectors(pre, cases, part)
    for b in range(part.num_blocks):
        tv.release(b)
    tv.keep_largest(10)
    assert [snapshot(ck) for ck in cases] == before
    assert [anon[:], copy[:]] == raw
    assert copy[100:104] == b"\xff\xfe\xfd\xfc"
    del anon_ck, copy_ck, cases, tv
    anon.close()
    copy.close()


def test_a_released_archive_reads_the_same_bytes(tmp_path):
    rng = np.random.default_rng(41)
    ck = Checkpoint({"a": rng.normal(size=(64, 256)).astype(np.float32),
                     "m": np.arange(6, dtype=np.uint8),
                     "h": rng.normal(size=(33, 65)).astype(np.float16)})
    write_archive(ck, str(tmp_path / "a.st"))
    back = read_archive(str(tmp_path / "a.st"))
    arrays = list(back.tensors.values())
    mapping, ends = mapped_ends(arrays)
    assert ends == sorted(ends) and ends[-1] == len(mapping)
    assert mapped_ends([arrays[0], np.zeros(3, np.float32)]) is None
    assert back.same_tensors(ck)
    for end in ends + [0, len(mapping)]:
        release_pages(mapping, end)
        assert back.same_tensors(ck)


@pytest.mark.parametrize("rules", [LAYER_RULES, OUT_OF_ORDER_RULES], ids=["file_order", "ln1_block"])
@pytest.mark.parametrize("algorithm,sizes", [("emr", "3.5,5"), ("ties", "2,4.5")])
def test_mapped_and_read_inputs_give_the_same_plan_and_artifacts(tmp_path, rules, algorithm, sizes):
    pre, tasks = toy_model(np.random.default_rng(42), 5, layers=3, width=48)
    trees = []
    for name, writer in (("mapped", write_archive), ("read", write_unpadded)):
        args = write_family(str(tmp_path / name), pre, tasks, writer, rules)
        first = read_archive(args[1]).tensors["embed.w"]
        assert (mapped_ends([first]) is not None) == (name == "mapped")
        plan_dir, merge_dir = str(tmp_path / name / "plan"), str(tmp_path / name / "merge")
        args += ["--algorithm", algorithm]
        assert main(["plan", *args, "--out", plan_dir]) == 0
        assert main(["merge", *args, "--plan", os.path.join(plan_dir, "plan.jsonl"),
                     "--sizes", sizes, "--out", merge_dir]) == 0
        fingerprint = json.loads(Path(plan_dir, "plan_meta.json").read_text())["fingerprint"]
        trees.append((tree_bytes(plan_dir, fingerprint), tree_bytes(merge_dir, fingerprint)))
    assert trees[0] == trees[1]
    assert len(trees[0][1]) == 6  # two sizes of archive, manifest and groups.json


def largest_fault_kb() -> int:
    """The most a single fault may map of a file: a page-cache folio can be
    as large as a PMD (2 MiB on x86-64), and a fault maps all of it."""
    try:
        return int(Path("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size").read_text()) // 1024
    except (OSError, ValueError):
        return 2048


@pytest.mark.skipif(rss_file_kb() is None or not HAS_DONTNEED,
                    reason="needs RssFile and RssShmem in /proc/self/status, and MADV_DONTNEED")
def test_plan_and_merge_hold_a_few_blocks_of_mapped_input_pages(tmp_path, monkeypatch):
    num_tasks = 2
    pre, tasks = toy_model(np.random.default_rng(43), num_tasks, layers=160, width=128)
    args = write_family(str(tmp_path), pre, tasks, write_archive, LAYER_RULES) + ["--algorithm", "ta"]
    part = partition(pre, default_transformer_rules(), ["head.*"])
    input_kb = sum(os.path.getsize(p) for p in args[1::2] if p.endswith(".st")) // 1024
    # per input: a few blocks, plus the rest of the folio the last release
    # ended in and the folios the current block spans
    allowed_kb = (num_tasks + 1) * (4 * max(part.block_nbytes) // 1024 + 3 * largest_fault_kb())
    assert allowed_kb * 3 < input_kb

    def run(tag: str) -> None:
        plan_dir = str(tmp_path / tag / "plan")
        assert main(["plan", *args, "--out", plan_dir]) == 0
        assert main(["merge", *args, "--plan", os.path.join(plan_dir, "plan.jsonl"),
                     "--sizes", "1.5,1.25", "--out", str(tmp_path / tag / "merge")]) == 0

    run("warm")  # code pages of numpy and BLAS are file-backed too: touch them first
    samples: list[int] = []
    rows = TaskVectorSet.rows

    def sampled(self, b, members=None):
        out = rows(self, b, members)
        samples.append(rss_file_kb())
        return out

    monkeypatch.setattr(TaskVectorSet, "rows", sampled)
    start = rss_file_kb()
    run("measured")
    # once per block for the similarity pass, then for every merged group
    assert len(samples) > part.num_blocks * 3 // 2
    assert max(samples) - start < allowed_kb, (max(samples) - start, allowed_kb, input_kb)
