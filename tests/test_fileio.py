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

    # 300 equals maxval and passes; 301 is the first sample above it
    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"P5 2 1 10\n" + bytes([200, 3]), 10),
            (b"P5 3 1 300\n" + bytes([1, 44, 1, 45, 0, 0]), 13),
        ],
        ids=["1-byte", "2-byte"],
    )
    def test_sample_above_maxval(self, tmp_path, data, offset):
        path = tmp_path / "m.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="above maxval") as err:
            read_map(path)
        assert err.value.offset == offset

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

    # read_map refuses a side below 1, so write_map must not write one
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)], ids=["0x5", "5x0", "0x0"])
    def test_write_rejects_an_empty_side(self, tmp_path, shape):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match="both sides"):
            write_map(path, np.zeros(shape, dtype=np.int64))
        assert not path.exists()


class TestFieldFiles:
    # raw f64 bit patterns, NaN payloads and signed zeros included; a 0 side too
    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
            lambda hw: st.binary(min_size=16 * hw[0] * hw[1], max_size=16 * hw[0] * hw[1]).map(
                lambda raw: np.frombuffer(raw, dtype=np.float64).reshape(*hw, 2)
            )
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, tmp_path_factory, field):
        directory = tmp_path_factory.mktemp("fields")
        path = directory / "f.df"
        write_field(path, field)
        got = read_field(path)
        assert got.dtype == np.float64 and got.shape == field.shape
        assert got.tobytes() == field.tobytes()
        assert list(directory.iterdir()) == [path]

    def test_header(self, tmp_path):
        path = tmp_path / "f.df"
        write_field(path, np.zeros((2, 3, 2)))
        assert path.read_bytes()[:7] == b"FD\n3 2\n"

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "f.df"
        payload = np.array([1.5, -2.0]).astype("<f8").tobytes()
        path.write_bytes(b"FD # field\n# size\n1 1\n" + payload)
        np.testing.assert_array_equal(read_field(path), [[[1.5, -2.0]]])

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "f.df"
        write_field(path, np.zeros((4, 4, 2)))
        data = path.read_bytes()
        for bad in (data[:-4], data + bytes(8)):  # short, over-long
            path.write_bytes(bad)
            with pytest.raises(ParseError, match="payload"):
                read_field(path)

    # (-2, -2) gives the 32 bytes a 2x2 field has, so only the sign check stops it
    @pytest.mark.parametrize("h,w", [("x", 2), (-2, -2), (2, -2), (2, 2.5)])
    def test_bad_dimensions_are_parse_errors(self, tmp_path, h, w):
        path = tmp_path / "f.df"
        path.write_bytes(f"FD\n{w} {h}\n".encode() + bytes(32))
        with pytest.raises(ParseError, match="bad (dimensions|width|height)"):
            read_field(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "f.df", np.zeros((3, 3)))

    def test_empty_field_too_large_to_shape(self, tmp_path):
        # 0 payload bytes match h * w = 0, but numpy cannot shape (2, 2**62, 0)
        path = tmp_path / "f.df"
        path.write_bytes(f"FD\n0 {2**62}\n".encode())
        with pytest.raises(ParseError, match="too large"):
            read_field(path)


def test_each_reader_refuses_the_other_format(tmp_path):
    map_path, field_path = tmp_path / "m.pgm", tmp_path / "f.df"
    write_map(map_path, np.ones((2, 2), dtype=np.int64))
    write_field(field_path, np.zeros((2, 2, 2)))
    with pytest.raises(ParseError, match="magic"):
        read_field(map_path)
    with pytest.raises(ParseError, match="magic"):
        read_map(field_path)


# a token ends at "#" too, but the payload starts only after one whitespace byte
@pytest.mark.parametrize(
    "reader, data", [(read_map, b"P5 1 1 255#\x07"), (read_field, b"FD 0 0#")], ids=["map", "field"]
)
def test_header_ends_in_one_whitespace_byte(tmp_path, reader, data):
    path = tmp_path / "x"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="missing single whitespace"):
        reader(path)


# Any bytes give an array or a ParseError, never another exception. A file is
# mostly the reader's magic and then header tokens, plausible and not, so that
# every check in a reader is reached, not just the first.
header_tokens = st.sampled_from(
    ["P5", "FD", "0", "1", "2", "255", "256", "65535", "65536", str(2**62), "-1", "x", "#c\n"]
)
# an empty payload and 16 zero bytes fit the 0-sided and 1x1 fields
payloads = st.sampled_from([b"", bytes(16)]) | st.binary(max_size=80)


def header_files(magic: bytes):
    """Any bytes, or ``magic`` and up to five header tokens, a separator and a payload."""
    return st.binary(max_size=40) | st.builds(
        lambda tokens, sep, payload: b" ".join([magic, *tokens]) + sep + payload,
        st.lists(header_tokens.map(str.encode), max_size=5),
        st.sampled_from([b" ", b"\n", b""]),
        payloads,
    )


def read_or_parse_error(reader, path, data):
    """What ``reader`` returns for a file of ``data``, or None where it raises ParseError."""
    path.write_bytes(data)
    try:
        return reader(path)
    except ParseError:
        return None


class TestReaderFuzz:
    @given(header_files(b"P5"))
    @settings(max_examples=100, deadline=None)
    def test_read_map(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        out = read_or_parse_error(read_map, path, data)
        assert out is None or (out.dtype == np.int64 and out.ndim == 2)

    @given(header_files(b"FD"))
    @settings(max_examples=100, deadline=None)
    def test_read_field(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.df"
        out = read_or_parse_error(read_field, path, data)
        assert out is None or (out.dtype == np.float64 and out.shape[2:] == (2,))
