import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowseg import (
    ParseError,
    read_field,
    read_map,
    read_tensors,
    write_field,
    write_map,
    write_tensors,
)


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


class TestTensorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "a": rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64),
            "b": rng.normal(size=(5,)).astype(np.float32).astype(np.float64),
        }
        path = tmp_path / "t.bin"
        write_tensors(path, tensors)
        got = read_tensors(path)
        assert set(got) == {"a", "b"}
        for name in tensors:
            np.testing.assert_array_equal(got[name], tensors[name])
        manifest = json.loads((tmp_path / "t.bin.json").read_text())
        assert manifest["byte_order"] == "little"
        assert manifest["dtype"] == "f32"
        assert manifest["tensors"][0] == {"name": "a", "shape": [3, 4], "offset": 0}
        assert manifest["tensors"][1] == {"name": "b", "shape": [5], "offset": 48}

    def test_overrun_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"a": np.zeros(4)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="exceeds payload"):
            read_tensors(path)

    def _two_tensors(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensors(path, {"a": np.arange(8.0), "b": np.arange(4.0)})
        return path, json.loads((tmp_path / "t.bin.json").read_text())

    @pytest.mark.parametrize("offset", [-32, -1, "0", 1.5, None, 10**6])
    def test_bad_offset_rejected(self, tmp_path, offset):
        # offset -32 used to read a[4:8] back as b
        path, manifest = self._two_tensors(tmp_path)
        manifest["tensors"][1]["offset"] = offset
        (tmp_path / "t.bin.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError):
            read_tensors(path)

    @pytest.mark.parametrize("shape", ["missing", None, 4, [4.0], [-4], ["4"]])
    def test_bad_shape_rejected(self, tmp_path, shape):
        path, manifest = self._two_tensors(tmp_path)
        if shape == "missing":
            del manifest["tensors"][1]["shape"]
        else:
            manifest["tensors"][1]["shape"] = shape
        (tmp_path / "t.bin.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="'b'"):
            read_tensors(path)
