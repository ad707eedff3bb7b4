"""Flat tensor archives (safetensors-compatible).

Layout: bytes 0..7 hold a little-endian uint64 ``N``; bytes 8..8+N hold a
UTF-8 JSON object mapping tensor name -> {"dtype", "shape", "data_offsets"};
the rest is raw row-major little-endian tensor data. ``data_offsets`` are
relative to the first byte after the header and must tile the data section
contiguously in header order. An optional ``__metadata__`` string map is
preserved opaquely.

Reading is zero-copy past one read: the data section lands in a single
buffer and the tensors of a loaded checkpoint are views into it, in header
order (a tensor at an offset that is not a multiple of its item size is
moved up by a few gap bytes, so every array is aligned). The buffer lives as
long as any of its views; ``joined_view`` spans consecutive tensors of one
dtype with one view.
"""

from __future__ import annotations

import json
import math
import os
import struct
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
    views into one shared read buffer, and code that keeps them (task
    vector sets, artifact payloads) may keep views too, so treat a loaded
    checkpoint as immutable.
    """

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] | None = None
    source_path: str | None = None

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


def read_archive(path: str) -> Checkpoint:
    """Parse an archive file into a Checkpoint.

    The header is validated first; the data section is then read in one
    sequential pass into one buffer, and every tensor is a view into it.
    Where a tensor's offset is not a multiple of its item size (an
    odd-length F16 or U8 tensor comes before it), the read leaves a gap of
    a few bytes in the buffer, so every array is aligned. Raises
    MalformedHeader, UnsupportedDtype or TruncatedData; never reads past the
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
        data_len = file_size - 8 - header_len
        entries, metadata = _parse_header(path, fh.read(header_len), data_len)
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

    tensors: dict[str, np.ndarray] = {}
    for (name, dtype, shape, begin, end), start in zip(entries, starts):
        tensors[name] = data[start : start + end - begin].view(dtype).reshape(shape)
    return Checkpoint(tensors=tensors, metadata=metadata, source_path=path)


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


def write_archive(checkpoint: Checkpoint, path: str) -> None:
    """Serialize a Checkpoint; reading the file back yields an equal Checkpoint."""
    header: dict[str, object] = {}
    if checkpoint.metadata is not None:
        header["__metadata__"] = dict(checkpoint.metadata)
    arrays = []
    offset = 0
    for name, arr in checkpoint.tensors.items():
        arr = _canonical(arr)
        arrays.append(arr)
        header[name] = {
            "dtype": dtype_code(arr),
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + arr.nbytes],
        }
        offset += arr.nbytes
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for arr in arrays:
            fh.write(arr)  # canonical arrays are C-contiguous: written via the buffer protocol


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
