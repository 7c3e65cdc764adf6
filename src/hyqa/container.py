"""Versioned binary container shared by all persisted artifacts.

Layout, version 2 (little-endian throughout):

    magic   4 bytes  b"HYQA"
    version u16
    kind    u8 length + ascii bytes (e.g. "sparse", "dense", "encoder")
    meta    u32 length + UTF-8 JSON (sort_keys, so rebuilds are byte-identical)
    arrays  u32 count, then per array:
              name  u16 length + ascii
              dtype u16 length + ascii numpy dtype string
              ndim  u8, dims as u64 each
              pad   zero bytes up to the next multiple of 64 from the
                    start of the file
              data  raw little-endian bytes, row-major

Version 1 had no padding; `load` refuses it, and such an artifact is
rebuilt by the command that made it. Arrays are written in the dtype the
caller gives them, so an artifact chooses its own widths (the sparse index,
for one, stores each array in the narrowest unsigned dtype that holds it).
`load` reads the numeric kinds (bool, int, uint and float) and refuses any
other dtype string.

`save` writes the whole file to a new file in the same directory and
renames it onto the path, so a reader sees the old file or the new one,
never a part of either. The rename makes no promise across a power loss:
nothing is flushed to the disk. `load` maps the file once, privately
(copy-on-write), and each array is a view of that map: nothing is read
until it is used, every array is aligned (the padding) and writable, and a
write to a loaded array never reaches the file. The map, and with it one
open file descriptor, lives as long as any array of the artifact. A refused
load releases both before it raises, so a caller that keeps the error holds
neither. Do not rewrite a loaded artifact's file in place (`save` never
does): a process holding it may read the new bytes, or die of SIGBUS if the
file shrinks.

`load_artifact` builds what `load` reads into an object, and is how every
artifact loads: the binary twin of `corpus.read_jsonl`, so a damaged file
of any kind is a ContainerError naming it.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import re
import struct
import traceback
from typing import Any, Callable

import numpy as np

MAGIC = b"HYQA"
VERSION = 2
# Each array's data starts at a multiple of this many bytes from the start
# of the file: a cache line, and a multiple of every dtype's alignment.
ALIGN = 64
# A dtype string numpy may parse: a type code and its width, as `save` writes
# them. numpy's parser reads others (",4", "(2,)f8") as structured types,
# and warns on the deprecated bytes code "a".
_DTYPE_RE = re.compile(r"(?!a)[A-Za-z]+[0-9]*")


class ContainerError(Exception):
    """Raised on malformed or mismatched container files."""


def save(path, kind: str, meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    """Write the container to a new file beside path, then rename it onto
    path. The new file has the mode `open(path, "wb")` gives a new file; a
    save that raises leaves path as it was and removes its own file."""
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".hyqa-{os.urandom(8).hex()}.tmp")
    try:
        f = open(tmp, "xb")
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with f:
            _write(f, kind, meta, arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write(f, kind: str, meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    f.write(MAGIC)
    f.write(struct.pack("<H", VERSION))
    kb = kind.encode("ascii")
    f.write(struct.pack("<B", len(kb)))
    f.write(kb)
    mb = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    f.write(struct.pack("<I", len(mb)))
    f.write(mb)
    f.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        nb = name.encode("ascii")
        db = arr.dtype.str.lstrip("=|<").encode("ascii")
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<H", len(db)))
        f.write(db)
        f.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            f.write(struct.pack("<Q", dim))
        f.write(bytes(-f.tell() % ALIGN))
        f.write(arr)  # the array's own buffer, not a copy


class _Reader:
    """A cursor over a container's bytes. A read past the end is a
    ContainerError saying what was truncated."""

    def __init__(self, buf, path, pos: int):
        self.buf, self.path, self.pos = buf, path, pos

    def skip(self, n: int, what: str) -> int:
        """Move past the next n bytes; returns where they start."""
        start = self.pos
        if n > len(self.buf) - start:
            raise ContainerError(f"{self.path}: truncated {what}")
        self.pos += n
        return start

    def read(self, n: int, what: str) -> bytes:
        start = self.skip(n, what)
        return self.buf[start : self.pos]

    def unpack(self, fmt: str, what: str) -> int:
        (value,) = struct.unpack_from(fmt, self.buf, self.skip(struct.calcsize(fmt), what))
        return value


def _read_array(r: _Reader, dtype: np.dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The next array: its zero padding, then a view of its data in the
    map, which reads nothing from the file. The padding puts the data at a
    multiple of ALIGN, so the view is aligned (numpy copies a whole
    unaligned array to gather its rows) and, as the map is copy-on-write,
    writable. Nonzero padding is a ContainerError, and so is a shape larger
    than the rest of the file."""
    pad = r.read(-r.pos % ALIGN, what)
    if pad.count(0) != len(pad):
        raise ContainerError(f"{r.path}: nonzero padding before {what}")
    count = math.prod(shape)
    offset = r.skip(dtype.itemsize * count, what)
    return np.frombuffer(r.buf, dtype, count, offset).reshape(shape)


def _dtype(text: str, path, what: str) -> np.dtype:
    """The little-endian dtype a header's dtype string names: one of the
    numeric kinds b, i, u and f. Any other string is a ContainerError."""
    if _DTYPE_RE.fullmatch(text):
        try:
            dtype = np.dtype("<" + text)
        except TypeError as e:  # no such type code
            raise ContainerError(f"{path}: {e}") from e
        if dtype.kind in "biuf":
            return dtype
    raise ContainerError(f"{path}: unsupported dtype {text!r} of {what}")


def load(path, kind: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """(meta, arrays) of the container at path; a container of another
    kind, like a damaged file, is a ContainerError naming the path."""
    with open(path, "rb") as f:
        # mmap refuses an empty file; it has no magic either way.
        buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY) if os.fstat(f.fileno()).st_size else b""
    arrays: dict[str, np.ndarray] = {}
    try:
        if buf[:4] != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a HYQA container")
        r = _Reader(buf, path, len(MAGIC))
        version = r.unpack("<H", "version")
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported container version {version}; rebuild the artifact")
        file_kind = r.read(r.unpack("<B", "kind"), "kind").decode("ascii")
        if file_kind != kind:
            raise ContainerError(f"{path}: expected kind {kind!r}, found {file_kind!r}")
        meta = json.loads(r.read(r.unpack("<I", "meta"), "meta").decode("utf-8"))
        for _ in range(r.unpack("<I", "array count")):
            name = r.read(r.unpack("<H", "array name"), "array name").decode("ascii")
            what = f"array {name!r}"
            dtype = _dtype(r.read(r.unpack("<H", what), what).decode("ascii", "replace"), path, what)
            ndim = r.unpack("<B", what)
            shape = tuple(r.unpack("<Q", what) for _ in range(ndim))
            arrays[name] = _read_array(r, dtype, shape, what)
        if r.pos != len(buf):
            raise ContainerError(f"{path}: trailing bytes after the last array")
    except BaseException:
        # A refusal's traceback holds this frame: drop the views, which pin
        # the map, and close the map, which holds a file descriptor.
        arrays.clear()
        if isinstance(buf, mmap.mmap):
            buf.close()
        raise
    return meta, arrays


def str_list(meta: dict[str, Any], key: str) -> list[str]:
    """meta[key], which an artifact's build reads as a list of str; any
    other value is a ValueError naming the key."""
    value = meta[key]
    if isinstance(value, list):
        try:
            "".join(value)  # refuses an item that is not a str, at C speed
            return value
        except TypeError:
            pass
    raise ValueError(f"meta {key!r} must be a list of 'str'")


def load_artifact(path, kind: str, build: Callable[[dict[str, Any], dict[str, np.ndarray]], Any]):
    """build(meta, arrays) of the container of `kind` at path. A key that
    build reads and the file lacks, or a TypeError or ValueError that build
    raises, is a ContainerError worded `<path>: <reason>`, as is a damaged
    meta or array header that `load` cannot decode."""
    try:
        # No local holds the arrays: a refusal's traceback keeps this frame.
        return build(*load(path, kind))
    except KeyError as e:
        raise ContainerError(f"{path}: missing key {e}") from _released(e)
    except (TypeError, ValueError) as e:
        raise ContainerError(f"{path}: {e}") from _released(e)


def _released(error: Exception) -> Exception:
    """`error` with the locals of its traceback's finished frames cleared,
    so that a refused build's arrays, and the map and file descriptor they
    pin, are released when the refusal is dropped, not when the garbage
    collector breaks the traceback's cycles."""
    traceback.clear_frames(error.__traceback__)
    return error
