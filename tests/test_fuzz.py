"""Parser fuzzing: every reader turns arbitrary bytes into a value or a
FormatError / ValidationError, never another exception; the adapter
checkpoint reader raises only FormatError.

Each test writes its input over one file in a module-wide directory; the
hypothesis profile in conftest.py keeps the examples derandomised.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from warpmatch import (
    FormatError,
    ValidationError,
    load_adapter,
    load_dataset,
    load_matrix,
    load_matrix_csv,
    save_matrix,
)
from warpmatch.adapter import CKPT_MAGIC
from warpmatch.cli import load_run_config
from warpmatch.matrix import FMX_MAGIC

REJECTED = (FormatError, ValidationError)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_matrix(np.full((2, 3, 2), 0.5), d / "m.fmx")
    return d


def read(reader, path, data, allowed=REJECTED):
    """reader(path) on a file holding data; None when it rejects the file."""
    path.write_bytes(data)
    try:
        return reader(path)
    except allowed:
        return None


@st.composite
def payload(draw, n_floats):
    """Either exactly n_floats float64 values of arbitrary bytes, or any bytes."""
    if draw(st.booleans()):
        return draw(st.binary(min_size=8 * n_floats, max_size=8 * n_floats))
    return draw(st.binary(max_size=8 * n_floats + 16))


@st.composite
def fmx_files(draw):
    h, w, c = (draw(st.integers(0, 3)) for _ in range(3))
    return FMX_MAGIC + struct.pack("<III", h, w, c) + draw(payload(h * w * c))


@st.composite
def lfa_files(draw):
    """A valid magic and small layer headers over arbitrary payloads."""
    layers = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    count = draw(st.one_of(st.just(len(layers)), st.integers(0, 4)))
    body = b"".join(struct.pack("<II", rows, cols) + draw(payload(rows * cols + cols))
                    for rows, cols in layers)
    return CKPT_MAGIC + struct.pack("<I", count) + body + draw(st.binary(max_size=8))


def lines(*parts, prefix):
    """Newline-joined lines, each one of parts or prefix plus arbitrary text
    (bytes that are not UTF-8 are the plain st.binary case)."""
    text = st.text(max_size=8).map(lambda t: prefix + t.encode())
    line = st.one_of(st.sampled_from(parts), text)
    return st.lists(line, max_size=5).map(b"\n".join)


csv_text = st.text(alphabet="0123456789.,-+e#nafi \r\n", max_size=40).map(str.encode)
manifest_lines = lines(b"3,m.fmx", b"4, m.fmx", b"3,m.fmx", b"x,m.fmx", b"# seen", b"",
                       prefix=b"3,")
config_lines = lines(b"seed = 3", b"alpha=2", b"dropout_p = 0.2", b"eps = 1e-3", b"topk",
                     b"# run", b"", prefix=b"seed = ")


@given(st.one_of(st.binary(max_size=64), fmx_files()))
def test_fmx_reader(workdir, data):
    read(load_matrix, workdir / "fuzz.fmx", data)


@given(st.one_of(st.binary(max_size=64), lfa_files()))
@example(CKPT_MAGIC + struct.pack("<III2d", 1, 1, 1, np.nan, 0.0))  # non-finite weight
@example(CKPT_MAGIC + struct.pack("<III", 1, 1, 2) + bytes(32))  # 1 in, 2 out
@example(CKPT_MAGIC + struct.pack("<III2d", 2, 1, 1, 0.0, 0.0)
         + struct.pack("<II3d", 2, 1, 0.0, 0.0, 0.0))  # 1 out, then 2 in
def test_lfa_reader(workdir, data):
    # A corrupt checkpoint is a format error, whatever its fault.
    read(load_adapter, workdir / "fuzz.lfa", data, FormatError)


@given(st.one_of(st.binary(max_size=64), csv_text))
@example(b"1,2\n\xff")
def test_csv_reader(workdir, data):
    read(load_matrix_csv, workdir / "fuzz.csv", data)


@given(st.one_of(st.binary(max_size=64), manifest_lines))
@example(b"")
@example(b"3,m.fmx\n\xff")
@example(b"3,\0")
def test_manifest_reader(workdir, data):
    # A line that names a missing file is an I/O error, which the CLI also
    # reports and exits on.
    dataset = read(load_dataset, workdir / "fuzz.manifest", data, REJECTED + (OSError,))
    if dataset is not None:
        assert dataset.channels == 2


@given(st.one_of(st.binary(max_size=64), config_lines))
@example(b"seed = 3\n\xff")
def test_config_reader(workdir, data):
    read(load_run_config, workdir / "fuzz.cfg", data)
