"""Binary artifact formats.

* label / instance / energy maps: binary portable graymap (P5) with maxval
  up to 65535, two bytes per sample most-significant first; ids above 65535
  cannot be written
* displacement fields: raw little-endian float64 payload (row plane, then
  column plane, each row-major) plus a JSON sidecar ``<path>.json`` with
  ``{"h", "w", "planes": 2, "dtype": "f64le"}``. The field is stored at the
  precision it is computed in, so clustering a field read back gives the
  same instance map as clustering it in memory
* parameter tensors: concatenated little-endian float32 payload plus a JSON
  manifest sidecar naming each tensor, its shape, and its byte offset
"""

from __future__ import annotations

import json
import math
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


def _read_sidecar(path, what: str) -> dict:
    side = _sidecar(path)
    if not side.exists():
        raise ParseError(f"missing {what} {side}")
    try:
        meta = json.loads(side.read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ParseError(f"bad {what}: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{what} must be a JSON object")
    return meta


def _non_negative_int(value, what: str) -> int:
    """A sidecar entry that must be a non-negative integer, else ParseError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _reshape(flat: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``flat`` in ``shape``; a zero-size shape whose other sides numpy cannot
    hold, such as (2**40, 2**40, 0), is a ParseError."""
    try:
        return flat.reshape(shape)
    except ValueError:
        raise ParseError(f"{what} shape {shape} is too large") from None


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
    meta = _read_sidecar(path, "field sidecar")
    for key in ("h", "w", "planes", "dtype"):
        if key not in meta:
            raise ParseError(f"field sidecar lacks key {key!r}")
    if meta["dtype"] != "f64le":
        raise ParseError(f"unsupported field dtype {meta['dtype']!r}")
    if meta["planes"] != 2:
        raise ParseError(f"expected 2 field planes, got {meta['planes']}")
    h = _non_negative_int(meta["h"], "field height")
    w = _non_negative_int(meta["w"], "field width")
    data = Path(path).read_bytes()
    need = h * w * 2 * 8
    if len(data) != need:
        raise ParseError(
            f"field payload is {len(data)} bytes, expected {need}", len(data)
        )
    planes = _reshape(np.frombuffer(data, dtype="<f8").astype(np.float64), (2, h, w), "field")
    return np.stack([planes[0], planes[1]], axis=-1)


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors as one f32le payload plus a JSON manifest sidecar."""
    entries = []
    chunks = []
    offset = 0
    for name, arr in tensors.items():
        a = np.asarray(arr, dtype=np.float64).astype("<f4")
        raw = a.tobytes()
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    Path(path).write_bytes(b"".join(chunks))
    _sidecar(path).write_text(
        json.dumps({"byte_order": "little", "dtype": "f32", "tensors": entries}) + "\n"
    )


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read a tensor file written by :func:`write_tensors`, as float64 arrays."""
    meta = _read_sidecar(path, "tensor manifest")
    if meta.get("dtype") != "f32" or meta.get("byte_order") != "little":
        raise ParseError("tensor manifest must declare little-endian f32 data")
    data = Path(path).read_bytes()
    out: dict[str, np.ndarray] = {}
    entries = meta.get("tensors", [])
    if not isinstance(entries, list):
        raise ParseError("tensor manifest's tensors must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ParseError(f"tensor manifest entry {entry!r} lacks a string name")
        name = entry["name"]
        if name in out:
            raise ParseError(f"tensor {name!r} is named twice")
        shape = entry.get("shape")
        if not isinstance(shape, list):
            raise ParseError(f"tensor {name!r} needs a shape list, got {shape!r}")
        shape = tuple(_non_negative_int(s, f"tensor {name!r} dimension") for s in shape)
        start = _non_negative_int(entry.get("offset"), f"tensor {name!r} offset")
        end = start + 4 * math.prod(shape)
        if end > len(data):
            raise ParseError(f"tensor {name!r} exceeds payload", len(data))
        arr = np.frombuffer(data[start:end], dtype="<f4").astype(np.float64)
        out[name] = _reshape(arr, shape, f"tensor {name!r}")
    return out
