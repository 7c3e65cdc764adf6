"""Versioned binary container shared by all persisted artifacts.

Layout (little-endian throughout):

    magic   4 bytes  b"HYQA"
    version u16
    kind    u8 length + ascii bytes (e.g. "sparse", "dense", "encoder")
    meta    u32 length + UTF-8 JSON (sort_keys, so rebuilds are byte-identical)
    arrays  u32 count, then per array:
              name  u16 length + ascii
              dtype u16 length + ascii numpy dtype string
              ndim  u8, dims as u64 each
              data  raw little-endian bytes, row-major

Arrays are written in the dtype the caller gives them, so an artifact
chooses its own widths (the sparse index, for one, stores its postings in
the narrowest unsigned dtype that holds them). `load` reads the numeric
kinds (bool, int, uint and float) and refuses any other dtype string.

`load` reads any container as it is. `load_artifact` reads one of a given
kind into an object, and is how every artifact loads: the binary twin of
`corpus.read_jsonl`, so a damaged file of any kind is a ContainerError
naming it.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from typing import Any, Callable

import numpy as np

MAGIC = b"HYQA"
VERSION = 1
# A dtype string numpy may parse: a type code and its width, as `save` writes
# them. numpy's parser reads others (",4", "(2,)f8") as structured types,
# and warns on the deprecated bytes code "a".
_DTYPE_RE = re.compile(r"(?!a)[A-Za-z]+[0-9]*")


class ContainerError(Exception):
    """Raised on malformed or mismatched container files."""


def save(path, kind: str, meta: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
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
            f.write(arr.tobytes())


def _read(f, n: int, path, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ContainerError(f"{path}: truncated {what}")
    return data


def _unpack(f, fmt: str, path, what: str) -> int:
    (value,) = struct.unpack(fmt, _read(f, struct.calcsize(fmt), path, what))
    return value


def _read_array(f, dtype: np.dtype, shape: tuple[int, ...], path, what: str) -> np.ndarray:
    """The next array's data, read straight into a new array: one buffer,
    aligned and writable, so a loader need not copy it. A shape larger than
    the rest of the file is refused before anything is allocated."""
    if dtype.itemsize * math.prod(shape) > os.fstat(f.fileno()).st_size - f.tell():
        raise ContainerError(f"{path}: truncated {what}")
    arr = np.empty(shape, dtype=dtype)
    if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
        raise ContainerError(f"{path}: truncated {what}")
    return arr


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


def load(path, kind: str | None = None) -> tuple[str, dict[str, Any], dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ContainerError(f"{path}: bad magic, not a HYQA container")
        version = _unpack(f, "<H", path, "version")
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported container version {version}")
        file_kind = _read(f, _unpack(f, "<B", path, "kind"), path, "kind").decode("ascii")
        if kind is not None and file_kind != kind:
            raise ContainerError(f"{path}: expected kind {kind!r}, found {file_kind!r}")
        meta = json.loads(_read(f, _unpack(f, "<I", path, "meta"), path, "meta").decode("utf-8"))
        count = _unpack(f, "<I", path, "array count")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = _read(f, _unpack(f, "<H", path, "array name"), path, "array name").decode("ascii")
            what = f"array {name!r}"
            dtype = _dtype(_read(f, _unpack(f, "<H", path, what), path, what).decode("ascii", "replace"), path, what)
            ndim = _unpack(f, "<B", path, what)
            shape = tuple(_unpack(f, "<Q", path, what) for _ in range(ndim))
            arrays[name] = _read_array(f, dtype, shape, path, what)
        if f.read(1):
            raise ContainerError(f"{path}: trailing bytes after the last array")
    return file_kind, meta, arrays


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
        _, meta, arrays = load(path, kind)
        return build(meta, arrays)
    except KeyError as e:
        raise ContainerError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ContainerError(f"{path}: {e}") from e
