"""The one on-disk container of the HDKG, HDMD and HDSA formats.

A file is, every integer little-endian: the magic (4 bytes), a ``u32``
version and a ``u32`` CRC32 (``zlib.crc32``) of every byte after it; the
format's header numbers, packed by a ``struct`` it gives; a ``u32`` array
count and each array's byte length as a ``u64``; then the arrays, one
after another. Array ``i`` takes the dtype ``dtypes[i % len(dtypes)]``,
so a format of one group of columns per order lists the group once.

``read`` checks the magic, then (in a file long enough to hold every
fixed field) the version, then the CRC before it parses anything else,
then the lengths: they must add up to the rest of the file exactly, and
each must hold a whole number of its array's items. Any fault raises
``ValueError``, and no header field sizes an allocation before it has
been checked against the file's length.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Sequence

import numpy as np

_PREFIX = struct.Struct("<4sII")


def write(
    path: str | Path, magic: bytes, version: int, header: str, fields: tuple,
    arrays: Sequence[np.ndarray], dtypes: Sequence[str],
) -> None:
    """Write ``arrays``, each flattened and cast to its dtype, after
    ``fields`` packed in the ``struct`` format ``header``."""
    arrays = [np.asarray(a, dtypes[i % len(dtypes)]).ravel() for i, a in enumerate(arrays)]
    lengths = [array.nbytes for array in arrays]
    head = struct.pack(f"{header}I{len(arrays)}Q", *fields, len(arrays), *lengths)
    crc = zlib.crc32(head)
    for array in arrays:
        crc = zlib.crc32(array, crc)
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(magic, version, crc) + head)
        for array in arrays:
            fh.write(array)


def read(
    path: str | Path, magic: bytes, version: int, name: str, header: str, dtypes: Sequence[str]
) -> tuple[list, list[np.ndarray]]:
    """The header's fields and the arrays of the file at ``path``, as
    read-only views of its bytes; ``name`` names the format in errors."""
    data = Path(path).read_bytes()
    # A file too short to hold the magic is still refused for a wrong byte.
    if data[:4] != magic[:len(data)]:
        raise ValueError(f"unsupported {name} file: bad magic")
    at = _PREFIX.size + struct.calcsize(header + "I")
    if len(data) < at:
        raise ValueError(f"corrupt {name} file: truncated header")
    _, found, crc = _PREFIX.unpack_from(data)
    if found != version:
        raise ValueError(f"unsupported {name} file: version {found}")
    if zlib.crc32(memoryview(data)[_PREFIX.size:]) != crc:
        raise ValueError(f"corrupt {name} file: checksum mismatch")
    *fields, count = struct.unpack_from(header + "I", data, _PREFIX.size)
    if count > (len(data) - at) // 8:
        raise ValueError(f"corrupt {name} file: the file ends inside its {count} array lengths")
    lengths = struct.unpack_from(f"<{count}Q", data, at)
    at += 8 * count
    if sum(lengths) != len(data) - at:
        fault = "trailing bytes" if sum(lengths) < len(data) - at else "an array overruns the file"
        raise ValueError(f"corrupt {name} file: {fault}")
    arrays = []
    for i, length in enumerate(lengths):
        dtype = np.dtype(dtypes[i % len(dtypes)])
        if length % dtype.itemsize:
            raise ValueError(f"corrupt {name} file: array {i}'s {length} bytes are not {dtype}s")
        arrays.append(np.frombuffer(data, dtype, length // dtype.itemsize, at))
        at += length
    return fields, arrays
