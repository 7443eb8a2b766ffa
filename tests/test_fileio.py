import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowseg.fileio import ParseError, read_field, read_map, write_field, write_map


class TestMapFiles:
    @given(
        arrays(
            np.uint16,
            st.tuples(st.integers(1, 9), st.integers(1, 9)),
            elements=st.integers(0, 65535),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("maps") / "m.pgm"
        write_map(path, arr.astype(np.int64))
        np.testing.assert_array_equal(read_map(path), arr)

    def test_eight_bit_file_widens(self, tmp_path):
        path = tmp_path / "m8.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 1, 2, 250, 254, 255]))
        got = read_map(path)
        np.testing.assert_array_equal(got, [[0, 1, 2], [250, 254, 255]])

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5 # binary graymap\n# size\n2 1\n255\n" + bytes([7, 9]))
        np.testing.assert_array_equal(read_map(path), [[7, 9]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 10)
        with pytest.raises(ParseError, match="truncated payload"):
            read_map(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ParseError, match="magic"):
            read_map(path)

    def test_oversized_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n70000\n" + b"\x00" * 8)
        with pytest.raises(ParseError, match="maxval"):
            read_map(path)

    def test_non_integer_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\nxx 2\n255\n\x00\x00")
        with pytest.raises(ParseError, match="width"):
            read_map(path)

    def test_parse_error_carries_offset(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(ParseError) as err:
            read_map(path)
        assert err.value.offset is not None
        assert "byte offset" in str(err.value)

    def test_write_rejects_bad_values(self, tmp_path):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError):
            write_map(path, np.array([[-1]]))
        with pytest.raises(ValueError):
            write_map(path, np.array([[70000]]))
        with pytest.raises(ValueError):
            write_map(path, np.zeros((2, 2)))  # float


class TestFieldFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(5, 7, 2)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.df"
        write_field(path, field)
        got = read_field(path)
        np.testing.assert_array_equal(got, field)
        meta = json.loads((tmp_path / "f.df.json").read_text())
        assert meta == {"h": 5, "w": 7, "planes": 2, "dtype": "f64le"}

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "f.df"
        write_field(path, np.zeros((4, 4, 2)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError, match="payload"):
            read_field(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "f.df"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(ParseError, match="sidecar"):
            read_field(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "f.df"
        write_field(path, np.zeros((2, 2, 2)))
        meta = json.loads((tmp_path / "f.df.json").read_text())
        meta["dtype"] = "f32le"
        (tmp_path / "f.df.json").write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="dtype"):
            read_field(path)

    # (-2, -2) gives the 32 bytes a 2x2 field has, so only the sign check stops it
    @pytest.mark.parametrize("h,w", [("x", 2), (-2, -2), (2, -2), (2, 2.5)])
    def test_bad_dimensions_are_parse_errors(self, tmp_path, h, w):
        path = tmp_path / "f.df"
        write_field(path, np.zeros((2, 2, 2)))
        meta = json.loads((tmp_path / "f.df.json").read_text())
        meta.update(h=h, w=w)
        (tmp_path / "f.df.json").write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="non-negative integer"):
            read_field(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "f.df", np.zeros((3, 3)))

    def test_empty_field_too_large_to_shape(self, tmp_path):
        # 0 payload bytes match h * w = 0, but numpy cannot shape (2, 2**62, 0)
        path = tmp_path / "f.df"
        path.write_bytes(b"")
        (tmp_path / "f.df.json").write_text(
            json.dumps({"h": 2**62, "w": 0, "planes": 2, "dtype": "f64le"})
        )
        with pytest.raises(ParseError, match="too large"):
            read_field(path)

    # not UTF-8, nested deeper than the JSON decoder recurses, more digits than int() takes
    @pytest.mark.parametrize(
        "text", [b"\xff\xfe", b"[" * 100_000, b"1" * 5000], ids=["utf8", "depth", "digits"]
    )
    def test_undecodable_sidecar(self, tmp_path, text):
        path = tmp_path / "f.df"
        path.write_bytes(b"")
        (tmp_path / "f.df.json").write_bytes(text)
        with pytest.raises(ParseError, match="bad field sidecar"):
            read_field(path)


# Any payload plus any sidecar gives an array or a ParseError, never another
# exception. A sidecar is mostly a well-formed dict whose values are mostly
# plausible, so that every check in a reader is reached, not just the first.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(["", "a", "é"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("abhw"), inner),
    max_leaves=6,
)


def mostly(plausible, other=json_values):
    """``plausible`` seven times in eight, else ``other``."""
    return st.sampled_from([plausible] * 7 + [other]).flatmap(lambda strategy: strategy)


# 2**62 with a 0 beside it is a zero-size shape numpy cannot hold, and an
# empty payload is the one that matches it
sizes = mostly(
    st.sampled_from([0, 1, 2, 2**62]), st.sampled_from([2**64, -1, 1.5, "2", True]) | json_values
)
payloads = st.just(b"") | st.binary(max_size=80)
field_sidecars = st.fixed_dictionaries(
    {"h": sizes, "w": sizes, "planes": mostly(st.just(2)), "dtype": mostly(st.just("f64le"))}
)
# a P5 header of plausible and implausible tokens, then any payload
map_tokens = st.sampled_from(
    ["P5", "P2", "0", "1", "2", "255", "256", "65535", "65536", "-1", "x", "#c\n"]
)
map_files = st.binary(max_size=40) | st.builds(
    lambda tokens, sep, payload: " ".join(tokens).encode() + sep + payload,
    st.lists(map_tokens, max_size=5).map(lambda t: ["P5", *t]),
    st.sampled_from([b" ", b"\n", b""]),
    st.binary(max_size=40),
)


def sidecars(shaped):
    """Sidecar bytes: mostly a shaped dict, else any JSON, any bytes, or no file (None)."""
    anything = json_values.map(lambda m: json.dumps(m).encode())
    return mostly(
        shaped.map(lambda m: json.dumps(m).encode()), anything | st.binary(max_size=16) | st.none()
    )


def read_or_parse_error(reader, path, payload, sidecar):
    """What ``reader`` returns for these files, or None where it raises ParseError."""
    path.write_bytes(payload)
    side = path.with_name(path.name + ".json")
    side.unlink(missing_ok=True)
    if sidecar is not None:
        side.write_bytes(sidecar)
    try:
        return reader(path)
    except ParseError:
        return None


class TestReaderFuzz:
    @given(map_files)
    @settings(max_examples=100, deadline=None)
    def test_read_map(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        out = read_or_parse_error(read_map, path, data, None)
        assert out is None or (out.dtype == np.int64 and out.ndim == 2)

    @given(payloads, sidecars(field_sidecars))
    @settings(max_examples=100, deadline=None)
    def test_read_field(self, tmp_path_factory, payload, sidecar):
        path = tmp_path_factory.getbasetemp() / "fuzz.df"
        out = read_or_parse_error(read_field, path, payload, sidecar)
        assert out is None or (out.dtype == np.float64 and out.shape[2:] == (2,))
