"""Binary artifact formats.

Both kinds of file are an ASCII header of whitespace-separated tokens (a
``#`` starts a comment that runs to the end of its line), then one
whitespace byte, then the payload. The first token names the format.

* label / instance / energy maps: binary portable graymap, header
  ``P5 <width> <height> <maxval>`` with maxval up to 65535, then one byte per
  sample below 256 and two bytes most-significant first above; ids above
  65535 cannot be written
* displacement fields: header ``FD <width> <height>``, then the row plane and
  the column plane as little-endian float64, each row-major. The field is
  stored at the precision it is computed in, so clustering a field read back
  gives the same instance map as clustering it in memory
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

MAXVAL = 65535


class ParseError(ValueError):
    """Malformed file; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


# whitespace and whole comment lines, then one token (empty at the end of the
# data or at a comment with no newline)
_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]*)")


def _header(data: bytes, magic: bytes, names: tuple[str, ...]) -> tuple[list[int], int]:
    """Check the ``magic`` token and read one integer token per name.

    Returns the integers and the offset of the payload, which starts after
    the single whitespace byte that ends the header.
    """
    values = []
    pos = 0
    for name in ("magic", *names):
        m = _TOKEN.match(data, pos)
        tok, pos = m[1], m.end()
        if not tok:
            raise ParseError(f"missing {name} token", m.start(1))
        if name == "magic":
            if tok != magic:
                raise ParseError(f"magic {tok!r}, expected {magic!r}", m.start(1))
            continue
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"bad {name} token {tok!r}", m.start(1)) from None
    if not data[pos : pos + 1].isspace():
        raise ParseError(f"missing single whitespace after {names[-1]}", pos)
    return values, pos + 1


def read_map(path) -> np.ndarray:
    """Read a P5 graymap into an (h, w) int64 array.

    Accepts any maxval up to 65535 (one byte per sample below 256, two
    above); raises :class:`ParseError` with a byte offset on malformed
    headers, oversized maxval, truncated payloads, or a sample above maxval.
    """
    data = Path(path).read_bytes()
    (w, h, maxval), pos = _header(data, b"P5", ("width", "height", "maxval"))
    if w < 1 or h < 1:
        raise ParseError(f"bad dimensions {w}x{h}", pos)
    if not 0 < maxval <= MAXVAL:
        raise ParseError(f"maxval {maxval} outside (0, {MAXVAL}]", pos)
    dtype = ">u2" if maxval > 255 else "u1"
    need = h * w * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise ParseError(
            f"truncated payload: need {need} bytes, have {len(data) - pos}", len(data)
        )
    arr = np.frombuffer(data, dtype=dtype, count=h * w, offset=pos)
    if arr.max() > maxval:
        i = int(np.argmax(arr > maxval))
        raise ParseError(f"sample {arr[i]} above maxval {maxval}", pos + i * arr.itemsize)
    return arr.reshape(h, w).astype(np.int64)


def write_map(path, arr: np.ndarray) -> None:
    """Write an (h, w) integer array as a 16-bit P5 graymap (maxval 65535)."""
    a = np.asarray(arr)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"map must be 2-D with both sides >= 1, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"map must be integer, got dtype {a.dtype}")
    if a.min() < 0 or a.max() > MAXVAL:
        raise ValueError(f"map values must lie in [0, {MAXVAL}]")
    h, w = a.shape
    header = f"P5\n{w} {h}\n{MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + a.astype(">u2").tobytes())


def write_field(path, field: np.ndarray) -> None:
    """Write an (h, w, 2) displacement field: ``FD`` header, then f64le planes."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError(f"field must be (h, w, 2), got {f.shape}")
    h, w = f.shape[:2]
    header = f"FD\n{w} {h}\n".encode("ascii")
    Path(path).write_bytes(header + np.moveaxis(f, -1, 0).astype("<f8").tobytes())


def read_field(path) -> np.ndarray:
    """Read a displacement field written by :func:`write_field`, as float64."""
    data = Path(path).read_bytes()
    (w, h), pos = _header(data, b"FD", ("width", "height"))
    if w < 0 or h < 0:
        raise ParseError(f"bad dimensions {w}x{h}", pos)
    need = h * w * 2 * 8
    if len(data) - pos != need:
        raise ParseError(
            f"field payload is {len(data) - pos} bytes, expected {need}", len(data)
        )
    try:
        # a zero-size shape such as (2, 2**62, 0) matches an empty payload,
        # but numpy cannot hold it
        planes = np.frombuffer(data, dtype="<f8", offset=pos).astype(np.float64).reshape(2, h, w)
    except ValueError:
        raise ParseError(f"field shape {(2, h, w)} is too large") from None
    return np.stack([planes[0], planes[1]], axis=-1)
