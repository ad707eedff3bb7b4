"""Mapped input pages given back block by block: a release never changes a
byte (of the inputs, or of any plan or artifact), touches no buffer but the
mappings read_archive makes, and bounds the input pages a plan + merge holds
by a few blocks of all tasks rather than by the inputs, whether or not the
inputs' tensors are aligned in their files."""

import json
import mmap
import os
from pathlib import Path

import numpy as np
import pytest

from blockmerge import (
    Checkpoint,
    PartitionRule,
    compute_task_vectors,
    default_transformer_rules,
    partition,
    read_archive,
    write_archive,
)
from blockmerge.cli import main
from blockmerge.task_space import TaskVectorSet
from blockmerge.tensor_store import release_pages

from helpers import toy_model, write_unpadded

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


def rss_kb() -> int | None:
    """This process's resident pages in KiB (Linux), or None: ``RssAnon``
    (an input copied into memory would count here), ``RssFile`` and
    ``RssShmem``, where mapped pages of tmpfs files count."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return sum(int(fields[f].split()[0]) for f in ("RssAnon", "RssFile", "RssShmem"))
    except (OSError, KeyError, ValueError):
        return None


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_release_touches_no_buffer_but_an_archive_mapping(tmp_path):
    rng = np.random.default_rng(40)
    pre, tasks = toy_model(rng, 3, layers=2, width=16)
    part = partition(pre, default_transformer_rules(), ["head.*"])

    write_unpadded(tasks[0], tmp_path / "odd.st")
    unaligned = read_archive(str(tmp_path / "odd.st"))
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
    cases = [unaligned, in_memory, anon_ck, copy_ck]
    before = [snapshot(ck) for ck in cases]
    raw = [anon[:], copy[:]]
    # an unaligned archive is an archive mapping like any other, released
    # with the rest; the others carry no layout and are never released
    assert not unaligned.tensors["embed.w"].flags.aligned
    assert unaligned.layout is not None
    assert all(ck.layout is None for ck in cases[1:])
    release_pages(anon, len(anon))
    release_pages(copy, len(copy))
    tv = compute_task_vectors(pre, cases, part)
    assert [pages is not None for pages in tv._pages] == [False, True, False, False, False]
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
    mapping, ends = back.layout.mapping, back.layout.offsets[1:].tolist()
    assert ends == sorted(ends) and ends[-1] == len(mapping)
    # a checkpoint assembled in memory, from read views or not, has no layout
    assert Checkpoint({"a": back.tensors["a"], "z": np.zeros(3, np.float32)}).layout is None
    assert back.same_tensors(ck)
    for end in ends + [0, len(mapping)]:
        release_pages(mapping, end)
        assert back.same_tensors(ck)


def test_a_block_whose_last_tensor_is_empty_ends_where_its_header_says(tmp_path):
    # the empty tensor has no bytes, but its header offsets place it after
    # the block's 4 MiB tensor, and the release watermark goes there
    rng = np.random.default_rng(44)
    shapes = {"b.w": (1 << 20,), "b.z": (0,), "c.w": (1024,)}
    paths = []
    for k in range(2):
        paths.append(str(tmp_path / f"{k}.st"))
        write_archive(Checkpoint({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}),
                      paths[-1])
    pre, task = (read_archive(p) for p in paths)
    part = partition(pre, [PartitionRule("b.*", "b")])
    assert part.blocks[0].tensor_names == ["b.w", "b.z"]
    raw = Path(paths[0]).read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    header_end = 8 + header_len + json.loads(raw[8 : 8 + header_len])["b.z"]["data_offsets"][1]
    assert header_end > 4 << 20
    tv = compute_task_vectors(pre, [task], part)
    assert [pages[1][0] for pages in tv._pages] == [header_end, header_end]
    if rss_kb() is None or not HAS_DONTNEED:
        return
    for ck in (pre, task):
        ck.tensors["b.w"].sum()  # fault the block in
    before = rss_kb()
    tv.release(0)
    assert before - rss_kb() > 6 * 1024  # most of both inputs' 4 MiB blocks


@pytest.mark.parametrize("rules", [LAYER_RULES, OUT_OF_ORDER_RULES], ids=["file_order", "ln1_block"])
@pytest.mark.parametrize("algorithm,sizes", [("emr", "3.5,5"), ("ties", "2,4.5")])
def test_mapped_and_read_inputs_give_the_same_plan_and_artifacts(tmp_path, rules, algorithm, sizes):
    # both families are mapped; the unpadded one's tensors are unaligned views
    pre, tasks = toy_model(np.random.default_rng(42), 5, layers=3, width=48)
    trees = []
    for name, writer in (("padded", write_archive), ("unpadded", write_unpadded)):
        args = write_family(str(tmp_path / name), pre, tasks, writer, rules)
        first = read_archive(args[1])
        assert first.layout is not None and first.tensors["embed.w"].flags.aligned == (name == "padded")
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


NEEDS_RSS = pytest.mark.skipif(
    rss_kb() is None or not HAS_DONTNEED,
    reason="needs RssAnon, RssFile and RssShmem in /proc/self/status, and MADV_DONTNEED")
WRITERS = pytest.mark.parametrize("writer", [write_archive, write_unpadded], ids=["padded", "unpadded"])


@NEEDS_RSS
@WRITERS
def test_plan_and_merge_hold_a_few_blocks_of_mapped_input_pages(tmp_path, monkeypatch, writer):
    assert_few_blocks_held(tmp_path, monkeypatch, writer, "ta", np.float32, layers=160)


@NEEDS_RSS
@WRITERS
def test_a_trimmed_set_holds_a_few_blocks_of_mapped_input_pages(tmp_path, monkeypatch, writer):
    # a trimmed set reads its rows from the inputs again after the trim, so
    # similarity and the sweep must give back its pages block by block too
    assert_few_blocks_held(tmp_path, monkeypatch, writer, "consensus", np.float16, layers=320)


def assert_few_blocks_held(tmp_path, monkeypatch, writer, algorithm, dtype, layers) -> None:
    num_tasks = 2
    pre, tasks = toy_model(np.random.default_rng(43), num_tasks, layers=layers, width=128, dtype=dtype)
    args = write_family(str(tmp_path), pre, tasks, writer, LAYER_RULES) + ["--algorithm", algorithm]
    part = partition(pre, default_transformer_rules(), ["head.*"])
    input_kb = sum(os.path.getsize(p) for p in args[1::2] if p.endswith(".st")) // 1024
    # per input: a few blocks, plus the rest of the folio the last release
    # ended in and the folios the current block spans; an input copied into
    # memory would exceed it
    allowed_kb = (num_tasks + 1) * (4 * max(part.block_nbytes) // 1024 + 3 * largest_fault_kb())
    assert allowed_kb * 3 < input_kb
    # the set's float32 copy of a float16 pretrained model is anonymous
    # memory it holds by design, not input pages
    widened_kb = part.total_dim * 4 // 1024 if dtype == np.float16 else 0

    def run(tag: str) -> None:
        plan_dir = str(tmp_path / tag / "plan")
        assert main(["plan", *args, "--out", plan_dir]) == 0
        assert main(["merge", *args, "--plan", os.path.join(plan_dir, "plan.jsonl"),
                     "--sizes", "1.5,1.25", "--out", str(tmp_path / tag / "merge")]) == 0

    run("warm")  # numpy's and BLAS's code pages and the heap grow on first use: warm them
    samples: list[int] = []
    rows = TaskVectorSet.rows

    def sampled(self, b, members=None):
        out = rows(self, b, members)
        samples.append(rss_kb())
        return out

    monkeypatch.setattr(TaskVectorSet, "rows", sampled)
    start = rss_kb()
    run("measured")
    # once per block for the similarity pass, then for every merged group
    assert len(samples) > part.num_blocks * 3 // 2
    assert max(samples) - start < allowed_kb + widened_kb, (max(samples) - start, allowed_kb, input_kb)
