"""Archive format round trips, typed failures, alignment checks."""

import gc
import json
import mmap
import os
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmerge import (
    Checkpoint,
    MalformedHeader,
    MergerConfig,
    SizeModel,
    TruncatedData,
    UnsupportedDtype,
    build_artifact,
    compute_merge_plan,
    compute_task_vectors,
    default_transformer_rules,
    export_manifest,
    export_sweep,
    partition,
    prepare_task_vectors,
    read_archive,
    replay_to_sizes,
    validate_aligned,
    write_archive,
)
import blockmerge.tensor_store as tensor_store
from blockmerge.tensor_store import StreamedArchive, dtype_code, tensor_span

from helpers import (
    BOOLEAN_ENTRIES,
    buffer_offset,
    buffer_owner,
    toy_model,
    write_boolean_header,
    write_unpadded,
)


def rt(ckpt, tmp_path, name="a.safetensors"):
    path = str(tmp_path / name)
    write_archive(ckpt, path)
    return path, read_archive(path)


def test_empty_checkpoint_layout(tmp_path):
    path, back = rt(Checkpoint(), tmp_path)
    raw = Path(path).read_bytes()
    assert raw == struct.pack("<Q", 8) + b"{}      "
    assert back.tensors == {}


def test_toy_archive_bytes(tmp_path):
    # the compact header JSON, padded with spaces to end at a multiple of 8
    ck = Checkpoint(tensors={"w": np.array([1.0, -2.0], np.float32), "m": np.array([5, 6, 7], np.uint8)},
                    metadata={"k": "v"})
    header = (b'{"__metadata__":{"k":"v"},"w":{"dtype":"F32","shape":[2],"data_offsets":[0,8]},'
              b'"m":{"dtype":"U8","shape":[3],"data_offsets":[8,11]}}    ')
    assert len(header) == 136
    want = struct.pack("<Q", 136) + header + b"\x00\x00\x80?\x00\x00\x00\xc0\x05\x06\x07"
    assert tensor_store.archive_header([(n, dtype_code(a), a.shape) for n, a in ck.tensors.items()],
                                       ck.metadata) == want[:-11]
    path, back = rt(ck, tmp_path)
    assert (tmp_path / "a.safetensors").read_bytes() == want
    assert back.same_tensors(ck)


def test_f16_data_section_size(tmp_path):
    ck = Checkpoint(tensors={"x": np.array([1.0, 2.0, 3.0], dtype=np.float16)})
    path, back = rt(ck, tmp_path)
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    assert len(raw) - 8 - hlen == 6
    assert back.same_tensors(ck)


def test_round_trip_values(tmp_path):
    ck = Checkpoint(tensors={"a": np.array([[1, 2], [3, 4]], dtype=np.float32)})
    _, back = rt(ck, tmp_path)
    assert back.same_tensors(ck)
    assert back.names == ["a"]


def test_write_read_write_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    ck = Checkpoint(
        tensors={
            "w1": rng.normal(size=(3, 5)).astype(np.float32),
            "w2": rng.normal(size=(7,)).astype(np.float16),
            "scalar": np.float32(2.5).reshape(()),
        },
        metadata={"origin": "test"},
    )
    p1, back = rt(ck, tmp_path, "one.st")
    p2 = str(tmp_path / "two.st")
    write_archive(back, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_truncated_data(tmp_path):
    ck = Checkpoint(tensors={"a": np.arange(6, dtype=np.float32)})
    path, _ = rt(ck, tmp_path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-4])
    with pytest.raises(TruncatedData):
        read_archive(path)


def test_bad_length_prefix(tmp_path):
    path = str(tmp_path / "bad.st")
    Path(path).write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(MalformedHeader):
        read_archive(path)


def test_header_not_json(tmp_path):
    path = str(tmp_path / "bad.st")
    Path(path).write_bytes(struct.pack("<Q", 4) + b"!!!!")
    with pytest.raises(MalformedHeader):
        read_archive(path)


def test_unsupported_dtype(tmp_path):
    header = json.dumps({"x": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}}).encode()
    path = str(tmp_path / "bad.st")
    Path(path).write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(UnsupportedDtype):
        read_archive(path)


def test_noncontiguous_offsets_rejected(tmp_path):
    header = json.dumps(
        {
            "x": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]},
            "y": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        }
    ).encode()
    path = str(tmp_path / "bad.st")
    Path(path).write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(MalformedHeader):
        read_archive(path)


@pytest.mark.parametrize("kind", sorted(BOOLEAN_ENTRIES))
def test_boolean_dims_and_offsets_are_malformed(tmp_path, kind):
    path = str(tmp_path / "bool.st")
    write_boolean_header(path, kind)
    with pytest.raises(MalformedHeader):
        read_archive(path)


def test_metadata_preserved(tmp_path):
    ck = Checkpoint(tensors={"a": np.zeros(2, dtype=np.float32)}, metadata={"k": "v"})
    _, back = rt(ck, tmp_path)
    assert back.metadata == {"k": "v"}


_names = st.text(alphabet="abcdefgh.0123456789_", min_size=1, max_size=12).filter(
    lambda s: s != "__metadata__"
)
_dtypes = st.sampled_from([np.float32, np.float16, np.uint8])


@st.composite
def checkpoints(draw):
    names = draw(st.lists(_names, min_size=0, max_size=5, unique=True))
    tensors = {}
    for name in names:
        dtype = draw(_dtypes)
        shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
        n = int(np.prod(shape)) if shape else 1
        if dtype is np.uint8:
            arr = draw(st.binary(min_size=n, max_size=n))
            tensors[name] = np.frombuffer(arr, dtype=np.uint8).reshape(shape).copy()
        else:
            vals = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
            tensors[name] = (np.array(vals, dtype=np.float64) / 16.0).astype(dtype).reshape(shape)
    return Checkpoint(tensors=tensors)


def _mapped(arr) -> bool:
    """Whether ``arr`` is a view of a file mapping."""
    base = buffer_owner(arr).base
    return isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)


def _assert_mapped_views(back: Checkpoint, path) -> None:
    """Every tensor of ``back`` is a read-only view of one mapping of the
    whole file at ``path``, aligned exactly when its file offset is a
    multiple of its item size (an empty tensor has no offset and is
    aligned), and the layout places each tensor where its view lies."""
    buffers = {id(buffer_owner(arr)) for arr in back.tensors.values()}
    assert len(buffers) <= 1
    layout = back.layout
    assert layout.names == tuple(back.tensors) and layout.data.nbytes == os.path.getsize(path)
    assert layout.offsets.dtype == np.int64 and len(layout.offsets) == len(back.tensors) + 1
    assert layout.offsets[-1] == os.path.getsize(path)
    for i, arr in enumerate(back.tensors.values()):
        assert _mapped(arr) and not arr.flags.writeable and arr.flags.c_contiguous
        assert buffer_owner(arr) is layout.data
        assert arr.flags.aligned == (arr.size == 0 or buffer_offset(arr) % arr.itemsize == 0)
        assert layout.offsets[i + 1] - layout.offsets[i] == arr.nbytes
        assert arr.size == 0 or buffer_offset(arr) == layout.offsets[i]


@given(checkpoints(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(tmp_path_factory, ck, padded):
    tmp = tmp_path_factory.mktemp("rt")
    path = str(tmp / "c.st")
    (write_archive if padded else write_unpadded)(ck, path)
    back = read_archive(path)
    assert back.same_tensors(ck)
    _assert_mapped_views(back, path)
    # each tensor sits at its data offset past the header
    data_start = 8 + int.from_bytes(Path(path).read_bytes()[:8], "little")
    offset = data_start
    for arr in back.tensors.values():
        assert arr.size == 0 or buffer_offset(arr) == offset
        offset += arr.nbytes
    assert offset == os.path.getsize(path)


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=100, deadline=None)
def test_fuzzed_bytes_never_crash(tmp_path_factory, blob):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = str(tmp / "f.st")
    Path(path).write_bytes(blob)
    try:
        read_archive(path)
    except (MalformedHeader, TruncatedData, UnsupportedDtype):
        pass


def _ck(**tensors):
    return Checkpoint(tensors=tensors)


def test_validate_aligned_ok():
    a = _ck(x=np.zeros((2, 2), dtype=np.float32))
    b = _ck(x=np.ones((2, 2), dtype=np.float32))
    report = validate_aligned(a, [b])
    assert report.ok and report.mismatches == []


def test_validate_missing():
    a = _ck(**{"blocks.3.mlp.w": np.zeros(2, dtype=np.float32)})
    b = _ck()
    report = validate_aligned(a, [b])
    assert not report.ok
    assert ("blocks.3.mlp.w", "missing") in report.mismatches


def test_validate_shape_and_dtype():
    a = _ck(x=np.zeros(2, dtype=np.float32), y=np.zeros(2, dtype=np.float32))
    b = _ck(x=np.zeros(3, dtype=np.float32), y=np.zeros(2, dtype=np.float16))
    report = validate_aligned(a, [b])
    assert ("x", "shape") in report.mismatches
    assert ("y", "dtype") in report.mismatches


def test_validate_excluded_heads_ignored():
    a = _ck(**{"head.weight": np.zeros(2, dtype=np.float32), "x": np.zeros(2, dtype=np.float32)})
    b = _ck(**{"head.weight": np.zeros(5, dtype=np.float32), "x": np.zeros(2, dtype=np.float32)})
    assert validate_aligned(a, [b], exclude=["head.*"]).ok


def test_tensors_are_views_into_one_read_buffer(tmp_path):
    rng = np.random.default_rng(2)
    ck = Checkpoint(tensors={
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=8).astype(np.float16),
        "c": np.arange(16, dtype=np.uint8),
        "d": rng.normal(size=5).astype(np.float32),
    })
    path, back = rt(ck, tmp_path)
    owners = {id(buffer_owner(arr)) for arr in back.tensors.values()}
    assert len(owners) == 1
    # the one owner is a read-only mapping of the whole file
    buffer = buffer_owner(back.tensors["a"])
    assert buffer.dtype == np.uint8 and buffer.nbytes == os.path.getsize(path)
    assert _mapped(buffer) and not buffer.flags.writeable
    assert back.same_tensors(ck)


@pytest.mark.parametrize("lead", [np.arange(3, dtype=np.float16), np.arange(5, dtype=np.uint8)])
def test_misaligned_tensor_is_an_unaligned_view_of_the_shared_mapping(tmp_path, lead):
    rng = np.random.default_rng(3)
    after = rng.normal(size=(2, 3)).astype(np.float32)
    ck = Checkpoint(tensors={"lead": lead, "after": after, "odd": np.arange(3, dtype=np.uint8),
                             "zero": np.zeros(0, np.float32), "last": np.ones(2, np.float16)})
    path, back = rt(ck, tmp_path)
    got = back.tensors["after"]
    np.testing.assert_array_equal(got, after)
    assert got.dtype == np.float32 and not got.flags.aligned and got.flags.c_contiguous
    np.testing.assert_array_equal(got - np.float32(1), after - np.float32(1))  # numpy computes on it
    # nothing is copied: every tensor is a view of the one mapping
    _assert_mapped_views(back, path)
    # the data section starts 8-aligned; after a float16 lead, "after" sits
    # 6 bytes into it and "last" 33; after a uint8 one, 5 and 32
    want = [True, False, True, True, lead.dtype == np.uint8]
    assert [arr.flags.aligned for arr in back.tensors.values()] == want
    assert back.same_tensors(ck)


def test_tensor_span_covers_consecutive_tensors_of_one_dtype_only(tmp_path):
    rng = np.random.default_rng(4)
    ck = Checkpoint(tensors={
        "a": rng.normal(size=(2, 3)).astype(np.float32),
        "b": rng.normal(size=4).astype(np.float32),
        "c": np.arange(3, dtype=np.uint8),
        "d": rng.normal(size=5).astype(np.float32),
        "z": np.zeros(0, np.float32),
        "e": rng.normal(size=2).astype(np.float32),
    })
    _, back = rt(ck, tmp_path)
    index = {name: i for i, name in enumerate(back.layout.names)}
    joined = tensor_span(back, ["a", "b"], index)
    np.testing.assert_array_equal(joined, np.concatenate([ck.tensors["a"].ravel(), ck.tensors["b"]]))
    assert buffer_owner(joined) is back.layout.data
    # an empty tensor lies between its neighbours in the header, if nowhere in memory
    spanned = tensor_span(back, ["d", "z", "e"], index)
    np.testing.assert_array_equal(spanned, np.concatenate([ck.tensors["d"], ck.tensors["e"]]))
    assert buffer_owner(spanned) is back.layout.data
    assert tensor_span(back, ["b", "a"], index) is None  # out of order
    assert tensor_span(back, ["a", "d"], index) is None  # not adjacent
    assert tensor_span(back, ["b", "c"], index) is None  # dtypes differ


def test_streamed_archive_equals_write_archive_despite_short_writes(tmp_path, monkeypatch):
    # spans written out of order, each write cut to 3 bytes, at most two
    # buffers per call: the file still equals the whole-archive writer's
    tensors = {"a": np.arange(3, dtype=np.float32), "b": np.full((2, 3), -0.5, np.float16),
               "c": np.arange(5, dtype=np.uint8), "d": np.array(7.25, np.float32)}
    write_archive(Checkpoint(tensors), str(tmp_path / "whole"))
    real = os.pwritev
    calls = []

    def short(fd, buffers, offset):
        calls.append(len(buffers))
        assert len(calls) < 1000, "the writer stopped making progress"
        return real(fd, [bytes(buffers[0])[:3]], offset)

    monkeypatch.setattr(os, "pwritev", short)
    monkeypatch.setattr(tensor_store, "_IOV_MAX", 2)
    path = str(tmp_path / "streamed")
    archive = StreamedArchive(path, [(n, dtype_code(a), a.shape) for n, a in tensors.items()])
    archive.write((24, 33), [tensors["c"], tensors["d"]])
    archive.write((0, 24), [tensors["a"], tensors["b"]])
    assert not os.path.exists(path) and os.path.exists(path + ".partial")
    archive.commit()
    assert max(calls) == 2 and len(calls) > 10
    with open(path, "rb") as got, open(tmp_path / "whole", "rb") as want:
        assert got.read() == want.read()
    assert not os.path.exists(path + ".partial")


def test_streamed_archive_rejects_a_span_its_arrays_do_not_fill(tmp_path):
    path = str(tmp_path / "x")
    archive = StreamedArchive(path, [("a", "F32", (3,))])
    with pytest.raises(ValueError, match="do not fill"):
        archive.write((0, 12), [np.zeros(2, np.float32)])
    archive.discard()
    assert os.listdir(tmp_path) == []


def _header_and_data(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    (n,) = struct.unpack("<Q", raw[:8])
    return raw[8 : 8 + n], raw[8 + n :]


def _write_each_way(tmp_path):
    """Archive paths written by write_archive, StreamedArchive,
    export_manifest and export_sweep."""
    lead = {"odd": np.arange(3, dtype=np.float16), "w": np.ones((2, 3), np.float32)}
    paths = [str(tmp_path / "whole"), str(tmp_path / "streamed")]
    write_archive(Checkpoint(lead, metadata={"k": "v"}), paths[0])
    streamed = StreamedArchive(paths[1], [(n, dtype_code(a), a.shape) for n, a in lead.items()])
    streamed.write((0, 30), list(lead.values()))
    streamed.commit()
    pre, tasks = toy_model(np.random.default_rng(5), 3, layers=1, width=5)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    cfg = MergerConfig.for_algorithm("emr")
    tv = prepare_task_vectors(compute_task_vectors(pre, tasks, part), cfg)
    sizes = [Fraction(2), Fraction(1)]
    assignments = replay_to_sizes(compute_merge_plan(tv), tv, sizes, SizeModel.from_partition(part, cfg))
    export_manifest(build_artifact(assignments[0], tv, cfg), str(tmp_path / "one"))
    sweep = [str(tmp_path / f"sweep{i}") for i in range(len(sizes))]
    export_sweep(assignments, sweep, tv, cfg)
    dirs = [str(tmp_path / "one")] + sweep
    return paths + [os.path.join(d, "tensors.safetensors") for d in dirs]


def test_every_writer_pads_the_compact_header_to_an_8_aligned_data_section(tmp_path):
    for path in _write_each_way(tmp_path):
        header, data = _header_and_data(path)
        assert (8 + len(header)) % 8 == 0
        compact = header.rstrip(b" ")
        assert len(header) - len(compact) < 8
        assert compact == json.dumps(json.loads(header), separators=(",", ":")).encode("utf-8")
        back = read_archive(path)
        assert data == b"".join(arr.tobytes() for arr in back.tensors.values())


def test_loaded_tensors_are_mapped_and_read_only_aligned_or_not(tmp_path):
    rng = np.random.default_rng(6)
    aligned = {"a": rng.normal(size=(2, 3)).astype(np.float32), "s": np.float32(2.5).reshape(()),
               "m": np.arange(8, dtype=np.uint8), "e": np.zeros(0, np.float16)}
    skewed = {"m": np.arange(3, dtype=np.uint8), "a": rng.normal(size=4).astype(np.float32),
              "h": np.ones(3, np.float16)}
    for name, tensors in (("aligned", aligned), ("skewed", skewed)):
        path, back = rt(Checkpoint(tensors), tmp_path, name)
        _assert_mapped_views(back, path)
        assert all(arr.flags.aligned for arr in back.tensors.values()) == (name == "aligned")
        for arr in back.tensors.values():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert back.same_tensors(Checkpoint(tensors))


def test_archive_with_an_odd_data_start_is_mapped_unaligned(tmp_path):
    # another writer's compact header may leave the data section at an odd
    # file offset; such an archive is mapped too, with the same bytes, and
    # every tensor wider than a byte is an unaligned view, though every data
    # offset is a multiple of its item size
    rng = np.random.default_rng(7)
    tensors = {"w": rng.normal(size=(3, 5)).astype(np.float32), "h": rng.normal(size=4).astype(np.float16),
               "v": rng.normal(size=2).astype(np.float32), "m": np.arange(5, dtype=np.uint8)}
    path = str(tmp_path / "odd.st")
    write_unpadded(Checkpoint(tensors), path)
    assert (8 + int.from_bytes(Path(path).read_bytes()[:8], "little")) % 2 == 1
    back = read_archive(path)
    assert back.same_tensors(Checkpoint(tensors))
    _assert_mapped_views(back, path)
    assert [arr.flags.aligned for arr in back.tensors.values()] == [False, False, False, True]
    assert back.layout.offsets[0] == 8 + int.from_bytes(Path(path).read_bytes()[:8], "little")
    assert back.layout.offsets[-1] == os.path.getsize(path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_archives_release_their_descriptors_and_mappings(tmp_path):
    path = str(tmp_path / "m.st")
    write_archive(Checkpoint({"a": np.arange(1024, dtype=np.float32)}), path)

    def maps_of_path():
        with open("/proc/self/maps") as fh:
            return sum(path in line for line in fh)

    gc.collect()
    fds = len(os.listdir("/proc/self/fd"))
    assert maps_of_path() == 0
    held = [read_archive(path) for _ in range(200)]
    assert all(_mapped(ck.tensors["a"]) for ck in held)
    assert maps_of_path() >= 1
    del held
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert maps_of_path() == 0


def test_write_replaces_a_file_that_a_loaded_checkpoint_maps(tmp_path):
    path = str(tmp_path / "p.st")
    first = Checkpoint({"a": np.arange(4096, dtype=np.float32), "b": np.ones(3, np.float16)})
    write_archive(first, path)
    loaded = read_archive(path)
    assert _mapped(loaded.tensors["a"])
    second = Checkpoint({"c": np.zeros(2, np.float32)})
    write_archive(second, path)  # truncating in place would make the next touch of `a` SIGBUS
    assert loaded.same_tensors(first)
    assert read_archive(path).same_tensors(second)
    assert os.listdir(tmp_path) == ["p.st"]


def test_failed_write_leaves_the_old_file_and_no_partial(tmp_path, monkeypatch):
    path = tmp_path / "p.st"
    write_archive(Checkpoint({"a": np.arange(5, dtype=np.float32)}), str(path))
    before = path.read_bytes()
    real = os.pwritev
    calls = []

    def fail_second(fd, buffers, offset):
        calls.append(offset)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "pwritev", fail_second)
    with pytest.raises(OSError, match="No space"):
        write_archive(Checkpoint({"a": np.zeros(5, np.float32), "b": np.ones(7, np.float16)}), str(path))
    assert len(calls) == 2  # the header went out, the data did not
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["p.st"]
