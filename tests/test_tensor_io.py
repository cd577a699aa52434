import os
import struct
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttlearn import tensor_io
from ttlearn.tensor_io import MAGIC, TensorFormatError, read_tensor, write_tensor

needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


@contextmanager
def pipe_carrying(data: bytes):
    """A ``/dev/fd/N`` path whose reads return ``data`` from a pipe, then end of file."""
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        writer.join(timeout=30)
        os.close(read_fd)
    assert not writer.is_alive()


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4, 3))
    path = tmp_path / "x.tns"
    write_tensor(path, x)
    back = read_tensor(path)
    np.testing.assert_array_equal(back, x)
    write_tensor(tmp_path / "y.tns", back)
    assert (tmp_path / "x.tns").read_bytes() == (tmp_path / "y.tns").read_bytes()


def test_payload_order_is_first_index_fastest(tmp_path):
    x = np.arange(8, dtype=float).reshape(2, 2, 2, order="F")
    path = tmp_path / "x.tns"
    write_tensor(path, x)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<III", raw[4:16]) == (2, 2, 2)
    np.testing.assert_array_equal(np.frombuffer(raw[16:], dtype="<f8"), np.arange(8.0))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="magic") as excinfo:
        read_tensor(path)
    assert excinfo.value.offset == 0


def test_truncated_header(tmp_path):
    path = tmp_path / "short.tns"
    path.write_bytes(b"TNS1\x01")
    with pytest.raises(TensorFormatError, match="truncated header"):
        read_tensor(path)


def test_truncated_payload_offset(tmp_path):
    path = tmp_path / "trunc.tns"
    path.write_bytes(MAGIC + struct.pack("<III", 2, 1, 1) + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="truncated payload") as excinfo:
        read_tensor(path)
    assert excinfo.value.offset == 24


@pytest.mark.parametrize("dims", [(100_000, 100_000, 1), (2**32 - 1,) * 3])
def test_header_claiming_more_than_the_file_holds(tmp_path, dims):
    # reading the claimed payload first would raise MemoryError or OverflowError
    path = tmp_path / "claims.tns"
    path.write_bytes(MAGIC + struct.pack("<III", *dims) + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="truncated payload") as excinfo:
        read_tensor(path)
    assert excinfo.value.offset == 24


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.tns"
    path.write_bytes(MAGIC + struct.pack("<III", 1, 1, 1) + b"\x00" * 9)
    with pytest.raises(TensorFormatError, match="trailing"):
        read_tensor(path)


def test_zero_dimension_rejected(tmp_path):
    path = tmp_path / "dim0.tns"
    path.write_bytes(MAGIC + struct.pack("<III", 0, 1, 1))
    with pytest.raises(TensorFormatError, match="zero dimension"):
        read_tensor(path)


def test_non_finite_payload_detected_with_offset(tmp_path):
    path = tmp_path / "nan.tns"
    payload = struct.pack("<4d", 1.0, float("nan"), 2.0, 3.0)
    path.write_bytes(MAGIC + struct.pack("<III", 2, 2, 1) + payload)
    with pytest.raises(TensorFormatError, match="non-finite") as excinfo:
        read_tensor(path)
    assert excinfo.value.offset == 16 + 8


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        write_tensor(tmp_path / "x.tns", np.full((1, 1, 1), np.inf))


@needs_dev_fd
@pytest.mark.parametrize("dims", [(100_000, 100_000, 1), (2**32 - 1,) * 3])
def test_piped_header_claiming_more_than_the_pipe_holds(dims):
    # a pipe has no size to check first; reading the claimed payload in one
    # call would raise MemoryError or OverflowError
    with pipe_carrying(MAGIC + struct.pack("<III", *dims) + b"\x00" * 8) as path:
        with pytest.raises(TensorFormatError, match="truncated payload") as excinfo:
            read_tensor(path)
    assert excinfo.value.offset == 24


@needs_dev_fd
def test_piped_round_trip_spans_several_chunks(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 64, 100))
    assert 8 * x.size > 3 * tensor_io.READ_CHUNK_BYTES
    write_tensor(tmp_path / "x.tns", x)
    with pipe_carrying((tmp_path / "x.tns").read_bytes()) as path:
        np.testing.assert_array_equal(read_tensor(path), x)


@needs_dev_fd
def test_piped_trailing_bytes_rejected():
    with pipe_carrying(MAGIC + struct.pack("<III", 1, 1, 1) + b"\x00" * 9) as path:
        with pytest.raises(TensorFormatError, match="trailing"):
            read_tensor(path)


def tns_bytes(dims, values) -> bytes:
    return MAGIC + struct.pack("<III", *dims) + struct.pack(f"<{len(values)}d", *values)


@st.composite
def tns_inputs(draw):
    """Arbitrary bytes, or a valid TNS1 file with its header, payload or length mutated."""
    kind = draw(st.sampled_from(["bytes", "header", "payload", "length"]))
    if kind == "bytes":
        return draw(st.binary(max_size=256))
    dims = list(draw(st.tuples(*[st.integers(1, 3)] * 3)))
    count = dims[0] * dims[1] * dims[2]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=count, max_size=count))
    data = bytearray(tns_bytes(dims, values))
    if kind == "header":
        field = draw(st.integers(0, 3))
        if field == 0:
            data[:4] = draw(st.binary(min_size=4, max_size=4))
        else:
            dims[field - 1] = draw(st.integers(0, 2**32 - 1))
            data[4:16] = struct.pack("<III", *dims)
    elif kind == "payload":
        slot = 16 + 8 * draw(st.integers(0, count - 1))
        packed = st.floats().map(lambda v: struct.pack("<d", v))
        data[slot : slot + 8] = draw(st.one_of(packed, st.binary(min_size=8, max_size=8)))
    else:
        cut = draw(st.integers(0, len(data) - 1))
        data = data[:cut] if draw(st.booleans()) else data + draw(st.binary(min_size=1, max_size=24))
    return bytes(data)


def assert_reads_cleanly(path):
    """``read_tensor`` returns a finite third-order float array or raises TensorFormatError."""
    try:
        x = read_tensor(path)
    except TensorFormatError:
        return
    assert isinstance(x, np.ndarray) and x.dtype == float and x.ndim == 3
    assert np.all(np.isfinite(x))


@needs_dev_fd
@settings(max_examples=300)
@given(data=tns_inputs())
def test_malformed_input_raises_only_tensor_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.tns")
        with open(path, "wb") as fh:
            fh.write(data)
        assert_reads_cleanly(path)
    with pipe_carrying(data) as path:
        assert_reads_cleanly(path)


def test_cli_metrics_on_a_malformed_file_exits_one_without_traceback(tmp_path):
    good = tmp_path / "good.tns"
    write_tensor(good, np.ones((2, 2, 1)))
    bad = tmp_path / "bad.tns"
    bad.write_bytes(tns_bytes((2, 2, 1), [1.0, float("inf"), 1.0, 1.0]))
    env = dict(os.environ, PYTHONPATH=str(Path(tensor_io.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ttlearn.cli", "metrics", str(bad), str(good)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "non-finite value (byte offset 24)" in proc.stderr
