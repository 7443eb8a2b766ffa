"""Binary artifact formats.

* label / instance / energy maps: binary portable graymap (P5) with maxval
  up to 65535, two bytes per sample most-significant first; ids above 65535
  cannot be written
* displacement fields: raw little-endian float64 payload (row plane, then
  column plane, each row-major) plus a JSON sidecar ``<path>.json`` with
  ``{"h", "w", "planes": 2, "dtype": "f64le"}``. The field is stored at the
  precision it is computed in, so clustering a field read back gives the
  same instance map as clustering it in memory
"""

from __future__ import annotations

import json
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


_WHITESPACE = frozenset(b" \t\r\n\x0b\x0c")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        b = data[pos]
        if b in _WHITESPACE:
            pos += 1
        elif b == ord("#"):
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ParseError("unterminated header comment", pos)
            pos = nl + 1
        else:
            break
    if pos >= len(data):
        raise ParseError("unexpected end of header", pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, end = _next_token(data, pos)
    try:
        return int(tok), end
    except ValueError:
        raise ParseError(f"bad {what} token {tok!r}", end - len(tok)) from None


def read_map(path) -> np.ndarray:
    """Read a P5 graymap into an (h, w) int64 array.

    Accepts any maxval up to 65535 (one byte per sample below 256, two
    above); raises :class:`ParseError` with a byte offset on malformed
    headers, oversized maxval, or truncated payloads.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ParseError(f"not a binary graymap (magic {magic!r})", 0)
    w, pos = _int_token(data, pos, "width")
    h, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if w < 1 or h < 1:
        raise ParseError(f"bad dimensions {w}x{h}", pos)
    if not 0 < maxval <= MAXVAL:
        raise ParseError(f"maxval {maxval} outside (0, {MAXVAL}]", pos)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError("missing single whitespace after maxval", pos)
    pos += 1
    dtype = ">u2" if maxval > 255 else "u1"
    need = h * w * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise ParseError(
            f"truncated payload: need {need} bytes, have {len(data) - pos}", len(data)
        )
    arr = np.frombuffer(data, dtype=dtype, count=h * w, offset=pos)
    return arr.reshape(h, w).astype(np.int64)


def write_map(path, arr: np.ndarray) -> None:
    """Write an (h, w) integer array as a 16-bit P5 graymap (maxval 65535)."""
    a = np.asarray(arr)
    if a.ndim != 2:
        raise ValueError(f"map must be 2-D, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"map must be integer, got dtype {a.dtype}")
    if a.size and (a.min() < 0 or a.max() > MAXVAL):
        raise ValueError(f"map values must lie in [0, {MAXVAL}]")
    h, w = a.shape
    header = f"P5\n{w} {h}\n{MAXVAL}\n".encode("ascii")
    Path(path).write_bytes(header + a.astype(">u2").tobytes())


def _sidecar(path) -> Path:
    return Path(str(path) + ".json")


def write_field(path, field: np.ndarray) -> None:
    """Write an (h, w, 2) displacement field: f64le payload + JSON sidecar."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError(f"field must be (h, w, 2), got {f.shape}")
    h, w = f.shape[:2]
    payload = f[..., 0].astype("<f8").tobytes() + f[..., 1].astype("<f8").tobytes()
    Path(path).write_bytes(payload)
    _sidecar(path).write_text(
        json.dumps({"h": h, "w": w, "planes": 2, "dtype": "f64le"}) + "\n"
    )


def read_field(path) -> np.ndarray:
    """Read a displacement field written by :func:`write_field`, as float64."""
    side = _sidecar(path)
    if not side.exists():
        raise ParseError(f"missing field sidecar {side}")
    try:
        meta = json.loads(side.read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ParseError(f"bad field sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError("field sidecar must be a JSON object")
    for key in ("h", "w", "planes", "dtype"):
        if key not in meta:
            raise ParseError(f"field sidecar lacks key {key!r}")
    if meta["dtype"] != "f64le":
        raise ParseError(f"unsupported field dtype {meta['dtype']!r}")
    if meta["planes"] != 2:
        raise ParseError(f"expected 2 field planes, got {meta['planes']}")
    h, w = meta["h"], meta["w"]
    for value, what in ((h, "height"), (w, "width")):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ParseError(f"field {what} must be a non-negative integer, got {value!r}")
    data = Path(path).read_bytes()
    need = h * w * 2 * 8
    if len(data) != need:
        raise ParseError(
            f"field payload is {len(data)} bytes, expected {need}", len(data)
        )
    try:
        # a zero-size shape such as (2, 2**62, 0) matches an empty payload,
        # but numpy cannot hold it
        planes = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(2, h, w)
    except ValueError:
        raise ParseError(f"field shape {(2, h, w)} is too large") from None
    return np.stack([planes[0], planes[1]], axis=-1)
