"""Flat tensor archives (safetensors-compatible).

Layout: bytes 0..7 hold a little-endian uint64 ``N``; bytes 8..8+N hold a
UTF-8 JSON object mapping tensor name -> {"dtype", "shape", "data_offsets"};
the rest is raw row-major little-endian tensor data. ``data_offsets`` are
relative to the first byte after the header and must tile the data section
contiguously in header order. An optional ``__metadata__`` string map is
preserved opaquely. The header JSON written here is padded with trailing
spaces so that the data section starts at a multiple of 8 (the safetensors
convention); any header length is read.

Reading copies nothing where it can avoid it. When every tensor's file
offset is a multiple of its item size, as in every archive written here,
the file is mapped read-only and every tensor is a view of that one
mapping, so a read costs the header parse plus the pages a caller touches.
Any other archive is read in one sequential pass into one buffer, with a
few gap bytes before each tensor whose offset is skewed, so every array is
aligned. Either way the tensors of a loaded checkpoint are read-only views
of one buffer, in header order, which lives as long as any of its views;
``joined_view`` spans consecutive tensors of one dtype with one view.

A mapped archive must be replaced, never modified in place: truncating a
mapped file makes the next access to a lost page fail with SIGBUS, not an
exception. Both writers replace: they write ``<path>.partial`` and rename
it over ``path``, so a checkpoint read from ``path`` keeps its bytes. On
Python < 3.13 each live mapping also holds one duplicated file descriptor
until its last view is freed, so the number of archives held at once is
bounded by the process's descriptor limit.

Pages of a mapping can be given back once a stage is done with them
(``mapped_ends`` and ``release_pages``). Only the read-only mappings that
``read_archive`` makes are released, and only where ``MADV_DONTNEED``
exists: a dropped page of a read-only file mapping faults back in from the
page cache with the same bytes, so a release costs at most a refault. Any
other buffer (a read-path buffer, an in-memory array, an anonymous or
copy-on-write mapping, where the same advice would zero the data or discard
writes) is never touched.

Writing is either whole (``write_archive``, in header order) or streamed
(``StreamedArchive``): the header goes first, computed from names, dtypes
and shapes alone, and spans of the data section follow at their offsets in
any order.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedHeader, TruncatedData, UnsupportedDtype
from .naming import compile_name_pattern

DTYPES = {
    "F32": np.dtype("<f4"),
    "F16": np.dtype("<f2"),
    "U8": np.dtype("|u1"),  # bit-packed masks
}
_NP_TO_CODE = {v: k for k, v in DTYPES.items()}


def dtype_code(arr: np.ndarray) -> str:
    try:
        return _NP_TO_CODE[arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype]
    except KeyError:
        raise UnsupportedDtype(f"no archive dtype for numpy dtype {arr.dtype}")


@dataclass
class Checkpoint:
    """Ordered named tensors plus opaque metadata.

    Insertion order of ``tensors`` is the archive header order. Arrays are
    little-endian and C-contiguous. The tensors of a loaded checkpoint are
    read-only views of one buffer, a mapping of the file or one read of its
    data section (see read_archive), and code that keeps them (task vector
    sets, artifact payloads) may keep views too. Writing into one raises
    ValueError; build a new checkpoint instead.
    """

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] | None = None

    @property
    def names(self) -> list[str]:
        return list(self.tensors)

    def same_tensors(self, other: "Checkpoint") -> bool:
        if self.names != other.names or (self.metadata or None) != (other.metadata or None):
            return False
        for name in self.tensors:
            a, b = self.tensors[name], other.tensors[name]
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        return True


def _canonical(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would flatten 0-d
        arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    if arr.dtype not in _NP_TO_CODE:
        raise UnsupportedDtype(f"unsupported dtype {arr.dtype}")
    return arr


# a mapping needs no descriptor of its own; before 3.13, mmap always keeps one
_UNTRACKED_FD = {"trackfd": False} if sys.version_info >= (3, 13) else {}
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


class _ArchiveMap(mmap.mmap):
    """A read-only mapping of a whole archive, made by read_archive: the
    only kind of buffer whose pages release_pages drops."""


def mapped_ends(arrays: list[np.ndarray]) -> tuple[mmap.mmap, list[int]] | None:
    """The archive mapping that every one of ``arrays`` is a view of and
    the offset just past each one's last byte in it, when read_archive made
    that mapping; None otherwise (a read-path buffer, an in-memory array,
    an anonymous or copy-on-write mapping, views of more than one buffer)."""
    owner = _owner(arrays[0])
    view = owner.base
    if not isinstance(view, memoryview) or type(view.obj) is not _ArchiveMap:
        return None
    start = owner.__array_interface__["data"][0]
    ends = []
    for arr in arrays:
        if arr.base is not owner and _owner(arr) is not owner:
            return None
        ends.append(arr.__array_interface__["data"][0] + arr.nbytes - start)
    return view.obj, ends


def release_pages(mapping: mmap.mmap, end: int) -> None:
    """Drop this process's resident pages of ``mapping`` from its start up
    to the last page boundary at or below ``end`` (an offset ``mapped_ends``
    gives): the page that holds ``end`` may hold the next tensor's first
    bytes, and dropping it would only fault it back in. Views of dropped
    pages stay valid and read the same bytes, faulted back in from the page
    cache. Does nothing to a mapping read_archive did not make, or where
    ``MADV_DONTNEED`` is missing."""
    end -= end % mmap.PAGESIZE
    if _DONTNEED is not None and type(mapping) is _ArchiveMap and end > 0:
        mapping.madvise(_DONTNEED, 0, end)


def read_archive(path: str) -> Checkpoint:
    """Parse an archive file into a Checkpoint of read-only views.

    The header is validated first. Then, when every tensor's file offset is
    a multiple of its item size, the file is mapped read-only and every
    tensor is a view of the mapping, which spans the file; no data byte is
    read until a caller touches it. Otherwise the data section is read in
    one sequential pass into one buffer, leaving a gap of a few bytes before
    each skewed tensor (an odd-length F16 or U8 tensor comes before it), so
    every array is aligned. Raises MalformedHeader, UnsupportedDtype or
    TruncatedData before anything is mapped; never reads or maps past the
    declared extents.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if len(prefix) < 8:
            raise MalformedHeader(f"{path}: file shorter than the 8-byte length prefix")
        (header_len,) = struct.unpack("<Q", prefix)
        if header_len > file_size - 8:
            raise MalformedHeader(f"{path}: header length {header_len} exceeds file size")
        data_start = 8 + header_len
        data_len = file_size - data_start
        entries, metadata = _parse_header(path, fh.read(header_len), data_len)
        if all((data_start + begin) % dtype.itemsize == 0 for _, dtype, _, begin, _ in entries):
            data = np.frombuffer(
                _ArchiveMap(fh.fileno(), file_size, access=mmap.ACCESS_READ, **_UNTRACKED_FD), np.uint8)
            starts = [data_start + begin for _, _, _, begin, _ in entries]
        else:
            starts, runs, pad = _aligned_layout(entries)
            data = np.empty(data_len + pad, dtype=np.uint8)
            buf = memoryview(data)
            got = 0
            for start, n in runs:
                read = fh.readinto(buf[start : start + n])
                got += read
                if read < n:
                    break
            if got != data_len:
                raise TruncatedData(f"{path}: data section ends at {got}, expected {data_len}")
            data.flags.writeable = False

    tensors: dict[str, np.ndarray] = {}
    for (name, dtype, shape, begin, end), start in zip(entries, starts):
        tensors[name] = data[start : start + end - begin].view(dtype).reshape(shape)
    return Checkpoint(tensors=tensors, metadata=metadata)


def joined_view(arrays: list[np.ndarray]) -> np.ndarray | None:
    """One flat view over ``arrays`` when they are C-contiguous views of one
    buffer, share a dtype and lie back to back in list order, as consecutive
    same-dtype tensors of a read archive do; None otherwise."""
    first = arrays[0]
    owner = _owner(first)
    begin = pos = first.__array_interface__["data"][0]
    for arr in arrays:
        if (arr.dtype != first.dtype or not arr.flags.c_contiguous or _owner(arr) is not owner
                or arr.__array_interface__["data"][0] != pos):
            return None
        pos += arr.nbytes
    if not owner.flags.c_contiguous:
        return None
    offset = begin - owner.__array_interface__["data"][0]
    return np.ndarray(((pos - begin) // first.itemsize,), first.dtype, buffer=owner, offset=offset)


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _aligned_layout(entries):
    """Buffer offset of each tensor (its data offset plus the gap bytes
    before it, just enough for its item size), the (buffer offset, length)
    runs that read the data section in order (a new run starts at every
    gap), and the total gap."""
    starts: list[int] = []
    runs: list[list[int]] = []
    pad = 0
    for _, dtype, _, begin, end in entries:
        skew = -(begin + pad) % dtype.itemsize
        pad += skew
        if skew or not runs:
            runs.append([begin + pad, 0])
        runs[-1][1] += end - begin
        starts.append(begin + pad)
    return starts, runs, pad


def _parse_header(path: str, raw: bytes, data_len: int):
    """Validated header entries as (name, dtype, shape, begin, end), in
    header order, plus the ``__metadata__`` map (or None)."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise MalformedHeader(f"{path}: header must be a JSON object")

    metadata = header.pop("__metadata__", None)
    if metadata is not None and not (
        isinstance(metadata, dict) and all(isinstance(v, str) for v in metadata.values())
    ):
        raise MalformedHeader(f"{path}: __metadata__ must be a string map")

    entries = []
    expected_offset = 0
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise MalformedHeader(f"{path}: entry for {name!r} is not an object")
        code = entry.get("dtype")
        if code not in DTYPES:
            raise UnsupportedDtype(f"{path}: tensor {name!r} has dtype {code!r}")
        shape = entry.get("shape")
        if not isinstance(shape, list) or any(not isinstance(s, int) or s < 0 for s in shape):
            raise MalformedHeader(f"{path}: tensor {name!r} has invalid shape {shape!r}")
        offsets = entry.get("data_offsets")
        if not (isinstance(offsets, list) and len(offsets) == 2 and all(isinstance(o, int) for o in offsets)):
            raise MalformedHeader(f"{path}: tensor {name!r} has invalid data_offsets")
        begin, end = offsets
        dtype = DTYPES[code]
        if begin != expected_offset or end - begin != math.prod(shape) * dtype.itemsize:
            raise MalformedHeader(
                f"{path}: tensor {name!r} offsets [{begin}, {end}) do not tile the data section"
            )
        if end > data_len:
            raise TruncatedData(f"{path}: data section ends at {data_len}, tensor {name!r} needs {end}")
        entries.append((name, dtype, shape, begin, end))
        expected_offset = end
    if expected_offset != data_len:
        raise MalformedHeader(f"{path}: {data_len - expected_offset} trailing bytes after last tensor")
    return entries, metadata


def archive_header(entries, metadata: dict[str, str] | None = None) -> bytes:
    """The 8-byte length prefix and header JSON of an archive whose data
    section holds ``entries``, ``(name, dtype code, shape)`` in order, back
    to back. The compact JSON is padded with trailing spaces to end at a
    multiple of 8 bytes, so a tensor whose data offset is a multiple of its
    item size is aligned in the file too."""
    header: dict[str, object] = {}
    if metadata is not None:
        header["__metadata__"] = dict(metadata)
    offset = 0
    for name, code, shape in entries:
        end = offset + math.prod(shape) * DTYPES[code].itemsize
        header[name] = {"dtype": code, "shape": list(shape), "data_offsets": [offset, end]}
        offset = end
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload += b" " * (-(8 + len(payload)) % 8)  # the data section starts 8-aligned
    return struct.pack("<Q", len(payload)) + payload


def write_archive(checkpoint: Checkpoint, path: str) -> None:
    """Serialize a Checkpoint; reading the file back yields an equal Checkpoint.

    Written as ``<path>.partial`` and renamed over ``path`` once complete
    (StreamedArchive), so a checkpoint read from ``path`` earlier keeps its
    bytes, and a failed write leaves ``path`` as it was and no partial file.
    """
    arrays = [_canonical(arr) for arr in checkpoint.tensors.values()]
    archive = StreamedArchive(path, [(name, dtype_code(arr), arr.shape)
                                     for name, arr in zip(checkpoint.tensors, arrays)],
                              checkpoint.metadata)
    try:
        archive.write((0, sum(arr.nbytes for arr in arrays)), arrays)
        archive.commit()
    except BaseException:
        archive.discard()
        raise


_IOV_MAX = os.sysconf("SC_IOV_MAX")


class StreamedArchive:
    """An archive written out of order: the header first, from the entries
    alone, then spans of the data section at their offsets, in any order.

    The file is written as ``<path>.partial``; ``commit`` closes it and
    renames it to ``path``, so ``path`` only ever names a complete archive
    and an archive mapped from ``path`` is never truncated under its
    readers. ``discard`` closes and removes the partial file.
    """

    def __init__(self, path: str, entries, metadata: dict[str, str] | None = None):
        self.path = path
        self._partial = path + ".partial"
        header = archive_header(entries, metadata)
        self._data_start = len(header)
        self._fd = os.open(self._partial, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            self._pwrite([np.frombuffer(header, np.uint8)], 0)
        except BaseException:
            self.discard()
            raise

    def write(self, span: tuple[int, int], arrays) -> None:
        """Write ``arrays`` back to back over ``span``, a ``(begin, end)``
        range of the data section, which they must fill exactly."""
        begin, end = span
        if sum(np.asarray(a).nbytes for a in arrays) != end - begin:
            raise ValueError(f"{self._partial}: arrays do not fill data span [{begin}, {end})")
        self._pwrite(arrays, self._data_start + begin)

    def _pwrite(self, arrays, offset: int) -> None:
        # one pwritev per IOV_MAX buffers; a short write resumes where it stopped
        views = [memoryview(_canonical(a).reshape(-1).view(np.uint8)) for a in arrays]
        views = [v for v in views if v.nbytes]
        i = 0
        while i < len(views):
            n = os.pwritev(self._fd, views[i : i + _IOV_MAX], offset)
            if n == 0:
                raise OSError(f"{self._partial}: write made no progress")
            offset += n
            while i < len(views) and n >= views[i].nbytes:
                n -= views[i].nbytes
                i += 1
            if n:
                views[i] = views[i][n:]

    def commit(self) -> None:
        os.close(self._fd)
        self._fd = -1
        os.replace(self._partial, self.path)

    def discard(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1
        try:
            os.unlink(self._partial)
        except FileNotFoundError:
            pass


@dataclass
class AlignmentReport:
    ok: bool
    mismatches: list[tuple[str, str]]  # (tensor name, kind in {missing, shape, dtype})


def validate_aligned(
    pretrained: Checkpoint,
    finetuned: list[Checkpoint],
    exclude: list[str] | None = None,
) -> AlignmentReport:
    """Check that every non-excluded tensor exists in all checkpoints with the
    same shape and dtype. Excluded names (e.g. task heads) are ignored."""
    patterns = [compile_name_pattern(p) for p in (exclude or [])]

    def keep(name: str) -> bool:
        return not any(p.fullmatch(name) for p in patterns)

    mismatches: list[tuple[str, str]] = []
    seen = set()
    base = {n: t for n, t in pretrained.tensors.items() if keep(n)}
    for ckpt in finetuned:
        for name, ref in base.items():
            if name not in ckpt.tensors:
                key = (name, "missing")
            else:
                arr = ckpt.tensors[name]
                if arr.shape != ref.shape:
                    key = (name, "shape")
                elif arr.dtype != ref.dtype:
                    key = (name, "dtype")
                else:
                    continue
            if key not in seen:
                seen.add(key)
                mismatches.append(key)
        for name in ckpt.tensors:
            if keep(name) and name not in base:
                key = (name, "missing")
                if key not in seen:
                    seen.add(key)
                    mismatches.append(key)
    return AlignmentReport(ok=not mismatches, mismatches=mismatches)
