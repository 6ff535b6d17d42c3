import re

import numpy as np
import pytest

from warpmatch import (
    Dataset,
    FeatureMatrix,
    FormatError,
    ValidationError,
    init_adapter,
    load_adapter,
    load_dataset,
    load_matrix,
    load_matrix_csv,
    save_adapter,
    save_dataset,
    save_matrix,
)
from warpmatch.matrix import text_lines


class TestFeatureMatrix:
    def test_2d_input_becomes_scalar_channel(self):
        m = FeatureMatrix(np.zeros((2, 3)))
        assert m.shape == (2, 3, 1)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.zeros((0, 3, 1)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 1))
        bad[1, 1, 0] = np.inf
        with pytest.raises(ValidationError):
            FeatureMatrix(bad)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2, 1), ()], ids=str)
    def test_rejects_wrong_ndim(self, shape):
        with pytest.raises(ValidationError, match=r"expected \(H, W, C\) feature data, got shape"):
            FeatureMatrix(np.zeros(shape))

    def test_immutable(self):
        m = FeatureMatrix(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0, 0] = 5.0

    @pytest.mark.parametrize("make", [lambda base: base, lambda base: base[:],
                                      lambda base: base[:, :, 0]],
                             ids=["array", "view", "two_dimensional"])
    def test_copies_the_callers_array(self, make):
        base = np.zeros((2, 2, 1))
        arr = make(base)
        m = FeatureMatrix(arr)
        assert arr.flags.writeable and base.flags.writeable
        assert not np.shares_memory(base, m.data)
        base[0, 0, 0] = 5.0
        assert m.data[0, 0, 0] == 0.0

    def test_not_equal_to_other_types(self):
        """Against a non-matrix ``__eq__`` returns NotImplemented, so Python
        falls back to identity; an ndarray would answer by itself instead."""
        m = FeatureMatrix(np.ones((1, 1)))
        assert (m == "x") is False
        assert (m != "x") is True


class TestFmxRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(5):
            arr = rng.uniform(-1e9, 1e9, size=rng.integers(1, 5, size=3))
            m = FeatureMatrix(arr)
            p = tmp_path / f"m{trial}.fmx"
            save_matrix(m, p)
            back = load_matrix(p)
            assert back.data.shape == m.data.shape
            assert back.data.tobytes() == m.data.tobytes()

    def test_zero_height_header_rejected(self, tmp_path):
        p = tmp_path / "bad.fmx"
        p.write_bytes(b"FMX1" + (0).to_bytes(4, "little") * 3)
        with pytest.raises(FormatError, match="byte offset 4"):
            load_matrix(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.fmx"
        save_matrix(np.ones((2, 2, 2)), p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_matrix(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.fmx"
        save_matrix(np.ones((1, 1, 1)), p)
        p.write_bytes(b"NOPE" + p.read_bytes()[4:])
        with pytest.raises(FormatError, match="byte offset 0"):
            load_matrix(p)

    def test_non_finite_payload_names_offset(self, tmp_path):
        p = tmp_path / "nan.fmx"
        save_matrix(np.ones((1, 2, 1)), p)
        raw = bytearray(p.read_bytes())
        raw[24:32] = np.float64(np.nan).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte offset 24"):
            load_matrix(p)

    def test_trailing_data_rejected(self, tmp_path):
        p = tmp_path / "long.fmx"
        save_matrix(np.ones((1, 1, 1)), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_matrix(p)


# container -> (writer of a valid file at a path, reader)
CONTAINERS = {
    "fmx": (lambda p: save_matrix(np.ones((1, 2, 1)), p), load_matrix),
    "lfa1": (lambda p: save_adapter(init_adapter(1, 1), p), load_adapter),
}
NAN = np.float64(np.nan).tobytes()
# fault -> (corruption of a valid file's bytes, its message given the valid length n)
FAULTS = {
    "short_header": (lambda raw: raw[:6], lambda n: "truncated header at byte offset 6"),
    "bad_magic": (lambda raw: b"NOPE" + raw[4:], lambda n: "bad magic b'NOPE' at byte offset 0"),
    "truncated_payload": (lambda raw: raw[:-4],
                          lambda n: f"truncated payload at byte offset {n - 4}"),
    "non_finite": (lambda raw: raw[:-8] + NAN,
                   lambda n: f"non-finite value at byte offset {n - 8}"),
    "trailing_data": (lambda raw: raw + b"\0", lambda n: f"trailing data at byte offset {n}"),
}


class TestContainerFaults:
    """FMX and LFA1 share one reader, so each fault reads the same in both."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_fault_message(self, tmp_path, container, fault):
        write, read = CONTAINERS[container]
        corrupt, message = FAULTS[fault]
        p = tmp_path / f"bad.{container}"
        write(p)
        raw = p.read_bytes()
        p.write_bytes(corrupt(raw))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message(len(raw))}')}$"):
            read(p)

    def test_fmx_trailing_data_reported_before_non_finite(self, tmp_path):
        p = tmp_path / "both.fmx"
        save_matrix(np.ones((1, 2, 1)), p)
        p.write_bytes(p.read_bytes()[:-8] + NAN + b"\0\0")
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: trailing data at byte "
                                              "offset 32$"):
            load_matrix(p)


class TestTextLines:
    def test_numbered_stripped_content_lines(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"# head\r\n  1,2 \r\n\n   \n\t# indented\nx = 3")
        assert list(text_lines(p)) == [(2, "1,2"), (6, "x = 3")]


class TestCsvLoader:
    def test_loads_scalar_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# comment\n1,2,3\n4,5,6\n")
        m = load_matrix_csv(p)
        assert m.shape == (2, 3, 1)
        assert m.data[1, 2, 0] == 6.0

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(FormatError):
            load_matrix_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = tmp_path / "m.csv"
        p.write_text(f"1,2\n3,{value}\n")
        with pytest.raises(FormatError, match="m.csv: non-finite value in CSV data"):
            load_matrix_csv(p)

    def test_non_utf8_byte_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(FormatError, match="m.csv: not UTF-8 text at byte offset 6"):
            load_matrix_csv(p)

    def test_leading_bom_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert load_matrix_csv(p).data[:, :, 0].tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_utf8_offset_counts_bom(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,\xff\n")
        with pytest.raises(FormatError, match="m.csv: not UTF-8 text at byte offset 9"):
            load_matrix_csv(p)


def _write_entries(tmp_path, entries, manifest="seen.manifest"):
    lines = ["# test manifest"]
    for cid, arr in entries:
        rel = f"f{cid}.fmx"
        save_matrix(arr, tmp_path / rel)
        lines.append(f"{cid},{rel}")
    p = tmp_path / manifest
    p.write_text("\n".join(lines) + "\n")
    return p


class TestDataset:
    def test_manifest_order_preserved(self, tmp_path):
        p = _write_entries(tmp_path, [(7, np.ones((2, 2))), (3, np.zeros((2, 2))),
                                      (5, np.full((2, 2), 2.0))])
        ds = load_dataset(p)
        assert ds.class_ids == (7, 3, 5)
        assert ds.name == "seen"

    @pytest.mark.parametrize("value", [np.ones((2, 2)), "m.fmx", None], ids=["array", "str", "none"])
    def test_entry_must_be_feature_matrix(self, value):
        with pytest.raises(ValidationError, match="dataset entries must hold FeatureMatrix values"):
            Dataset("seen", ((0, FeatureMatrix(np.ones((2, 2)))), (1, value)))

    @pytest.mark.parametrize("cid", [1.5, 2.0, "3", None], ids=repr)
    def test_non_integer_class_id_rejected(self, cid):
        with pytest.raises(ValidationError, match="class_id must be an integer, got"):
            Dataset("seen", ((cid, FeatureMatrix(np.ones((2, 2)))),))

    def test_numpy_class_ids_become_ints(self):
        m = FeatureMatrix(np.ones((2, 2)))
        ds = Dataset("seen", ((np.int64(7), m), (np.uint8(3), m)))
        assert ds.class_ids == (7, 3) and all(type(c) is int for c in ds.class_ids)

    def test_duplicate_class_id_rejected(self, tmp_path):
        save_matrix(np.ones((1, 1)), tmp_path / "a.fmx")
        save_matrix(np.ones((1, 1)), tmp_path / "b.fmx")
        p = tmp_path / "dup.manifest"
        p.write_text("7,a.fmx\n7,b.fmx\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(p)

    def test_channel_mismatch_rejected(self, tmp_path):
        save_matrix(np.ones((1, 1, 2)), tmp_path / "a.fmx")
        save_matrix(np.ones((1, 1, 3)), tmp_path / "b.fmx")
        p = tmp_path / "chan.manifest"
        p.write_text("1,a.fmx\n2,b.fmx\n")
        with pytest.raises(ValidationError, match="channel"):
            load_dataset(p)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="no entries"):
            Dataset("seen", ())

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "seen.manifest"
        p.write_text("# modality: seen\n")
        with pytest.raises(ValidationError, match="no entries"):
            load_dataset(p)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        p = _write_entries(tmp_path, [(1, np.ones((2, 2)))])
        p.write_bytes(p.read_bytes() + b"# \xff\n")
        with pytest.raises(FormatError, match="seen.manifest: not UTF-8 text"):
            load_dataset(p)

    def test_leading_bom_skipped(self, tmp_path):
        p = _write_entries(tmp_path, [(0, np.ones((2, 2))), (4, np.zeros((2, 2)))])
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes().split(b"\n", 1)[1])
        assert load_dataset(p).class_ids == (0, 4)

    def test_malformed_line_names_lineno(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text("not-a-line\n")
        with pytest.raises(FormatError, match=":1"):
            load_dataset(p)

    @pytest.mark.parametrize("name", ["../up", "a/b", "a\\b", "a\0b", "", ".", "..", None, 5],
                             ids=repr)
    def test_name_must_be_plain_file_name(self, tmp_path, name):
        with pytest.raises(ValidationError, match="^name must be a plain file name, got "):
            save_dataset(Dataset(name, ((0, FeatureMatrix(np.ones((2, 2)))),)), tmp_path / "out")
        assert not any(tmp_path.iterdir())

    def test_save_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset("toy", tuple(
            (i, FeatureMatrix(rng.uniform(0, 1, (3, 4, 2)))) for i in range(3)))
        manifest = save_dataset(ds, tmp_path / "out")
        back = load_dataset(manifest)
        assert back.class_ids == ds.class_ids
        for (_, a), (_, b) in zip(ds.entries, back.entries):
            assert a.data.tobytes() == b.data.tobytes()
