"""Feature-matrix value types and dataset/file I/O.

A feature matrix is an H x W grid of C-dimensional feature elements kept
as an immutable float64 array of shape (H, W, C).  Matrices travel on disk
in the FMX container (little-endian, explicit magic and version) and in
line-oriented dataset manifests; plain CSV is accepted for scalar (C=1)
matrices.

Both binary containers, FMX and the adapter's LFA1, are read by one checked
reader (:func:`_container`, :func:`_finite_f8`); every CSV-style table,
manifests included, comes from one formatter (:func:`_csv_lines`); every
text input is read by :func:`text_lines`.
"""

from __future__ import annotations

import io
import math
import numbers
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FMX_MAGIC = b"FMX1"


def as_feature_array(m) -> np.ndarray:
    """Coerce a FeatureMatrix or array-like into a float64 (H, W, C) array.

    2-D input is treated as a scalar-element matrix (C=1).
    """
    if isinstance(m, FeatureMatrix):
        return m.data
    arr = _as_float_array(m, "feature matrix")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValidationError(f"expected (H, W, C) feature data, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"feature matrix dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("feature matrix contains non-finite values")
    return arr


def _as_float_array(value, what: str) -> np.ndarray:
    """``value`` as a float64 array; ragged nesting and any dtype but bool, int and
    float (complex, strings, objects) raise ValidationError naming ``what``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{what} must be a numeric array") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be numeric, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _as_pairs(items, what: str) -> list:
    """``items`` as a list of 2-tuples; anything else raises ValidationError ``what``."""
    try:
        return [(a, b) for a, b in items]
    except (TypeError, ValueError):
        raise ValidationError(what) from None


def _check_type(value, cls, name: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def _check_file_name(value, name: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is a plain file
    name: a str other than "", "." and "..", with no '/', '\\' or NUL."""
    if not isinstance(value, str) or value in ("", ".", "..") or set(value) & set("/\\\0"):
        raise ValidationError(f"{name} must be a plain file name, got {value!r}")


def _as_matrix_list(items, name: str) -> list:
    """``items`` as a list; anything not iterable raises ValidationError naming ``name``."""
    try:
        return list(items)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of feature matrices, "
                              f"got {type(items).__name__}") from None


def _as_index(value, name: str = "index", low: int | None = None) -> int:
    """``value`` as an int of at least ``low``; integers pass (numpy's too), floats,
    strings and arrays do not.  The error names ``value`` as ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return value


def _as_real(value, name: str, interval: str) -> float:
    """``value`` as a float in ``interval``, written like ``"[0, 1)"`` with open
    ends at infinity; ints and numpy reals pass, strings, None, arrays and
    non-finite values do not.  The error names ``value`` as ``name``."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number in {interval}, got {value!r}")
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    try:
        x = float(value)
    except OverflowError:  # an int too large for a float
        x = math.nan
    if not ((lo <= x if interval[0] == "[" else lo < x)
            and (x <= hi if interval[-1] == "]" else x < hi)):
        raise ValidationError(f"{name} must be in {interval}, got {value!r}")
    return x


def _check_fields(obj, **rules) -> None:
    """Pass each named field of the frozen dataclass ``obj`` through its rule, in
    the order given, and store the result: an int is the minimum for
    :func:`_as_index`, a str the interval for :func:`_as_real`."""
    for name, rule in rules.items():
        check = _as_real if isinstance(rule, str) else _as_index
        object.__setattr__(obj, name, check(getattr(obj, name), name, rule))


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Immutable H x W grid of C-dimensional feature elements.

    ``data`` is a read-only copy of what it was built from: the caller's
    array stays writable, and later writes to it do not reach the matrix.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(as_feature_array(self.data), order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def row(self, h: int) -> np.ndarray:
        """Row h as a (W, C) element sequence, 0-based."""
        return self.data[h]

    def __eq__(self, other):
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return self.data.shape == other.data.shape and np.array_equal(self.data, other.data)

    __hash__ = None


# ---------------------------------------------------------------------------
# FMX binary container

def _container(path, magic: bytes, n: int) -> tuple[bytes, tuple]:
    """``path``'s bytes and the ``n`` little-endian u32 header fields after its
    4-byte ``magic``; a short header or another magic raises FormatError."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 + 4 * n:
        raise FormatError(f"{path}: truncated header at byte offset {len(raw)}")
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r} at byte offset 0")
    return raw, struct.unpack_from(f"<{n}I", raw, 4)


def _finite_f8(raw: bytes, pos: int, count: int, path) -> np.ndarray:
    """The ``count`` little-endian float64 values of ``raw`` from byte ``pos``;
    a short file or a non-finite value raises FormatError naming its offset."""
    if len(raw) < pos + 8 * count:
        raise FormatError(f"{path}: truncated payload at byte offset {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FormatError(f"{path}: non-finite value at byte offset {pos + 8 * int(bad[0])}")
    return flat


def save_matrix(m, path) -> None:
    """Write a feature matrix to an FMX container file."""
    arr = as_feature_array(m)
    with open(path, "wb") as f:
        f.write(FMX_MAGIC + struct.pack("<III", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_matrix(path) -> FeatureMatrix:
    """Read a feature matrix from an FMX container file.

    Malformed files raise FormatError naming the offending byte offset;
    trailing data is reported before a short or non-finite payload.
    """
    raw, (h, w, c) = _container(path, FMX_MAGIC, 3)
    for offset, name, value in ((4, "H", h), (8, "W", w), (12, "C", c)):
        if value == 0:
            raise FormatError(f"{path}: zero {name} in header at byte offset {offset}")
    end = 16 + 8 * h * w * c
    if len(raw) > end:
        raise FormatError(f"{path}: trailing data at byte offset {end}")
    return FeatureMatrix(_finite_f8(raw, 16, h * w * c, path).reshape(h, w, c))


def text_lines(path):
    """Numbered content lines of a UTF-8 text file, stripped, as text mode
    reads them; a leading BOM, blank lines and '#' lines are skipped.  A
    byte that is not UTF-8 raises FormatError naming its file offset."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        if (s := line.strip()) and not s.startswith("#"):
            yield lineno, s


def _csv_lines(header: str, rows) -> list[str]:
    """``header``, then one comma-joined line per row, each value written by ``str``."""
    return [header, *(",".join(map(str, row)) for row in rows)]


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix_csv(path) -> FeatureMatrix:
    """Read a scalar (C=1) feature matrix from a CSV file of numbers.

    Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    width = None
    for lineno, s in text_lines(path):
        try:
            values = [float(tok) for tok in s.split(",")]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} values, "
                              f"found {len(values)}")
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite value in CSV data")
    return FeatureMatrix(arr)


# ---------------------------------------------------------------------------
# Datasets

@dataclass(frozen=True)
class Dataset:
    """A named modality: (class_id, FeatureMatrix) entries with unique ids."""

    name: str
    entries: tuple

    def __post_init__(self):
        _check_file_name(self.name, "name")
        entries = tuple((_as_index(cid, "class_id"), m) for cid, m in _as_pairs(
            self.entries, "dataset entries must be (class_id, FeatureMatrix) pairs"))
        seen_ids = set()
        channels = None
        for cid, m in entries:
            if not isinstance(m, FeatureMatrix):
                raise ValidationError("dataset entries must hold FeatureMatrix values")
            if cid in seen_ids:
                raise ValidationError(f"duplicate class_id {cid} in dataset {self.name!r}")
            seen_ids.add(cid)
            if channels is None:
                channels = m.channels
            elif m.channels != channels:
                raise ValidationError(
                    f"channel mismatch in dataset {self.name!r}: class_id {cid} "
                    f"has C={m.channels}, expected C={channels}"
                )
        if not entries:
            raise ValidationError(f"dataset {self.name!r} has no entries")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def channels(self) -> int:
        return self.entries[0][1].channels

    @property
    def class_ids(self) -> tuple:
        return tuple(cid for cid, _ in self.entries)

    @property
    def matrices(self) -> tuple:
        return tuple(m for _, m in self.entries)


def load_dataset(manifest_path) -> Dataset:
    """Load the dataset named by the manifest's stem from its lines of
    `class_id,relative_path`: entries keep manifest order, '#' lines are
    comments, and paths resolve relative to the manifest's directory."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    entries = []
    for lineno, s in text_lines(manifest_path):
        head, sep, rel = s.partition(",")
        if not sep or not rel.strip() or "\0" in rel:
            raise FormatError(f"{manifest_path}:{lineno}: "
                              "expected '<class_id>,<relative_path>'")
        try:
            cid = int(head.strip())
        except ValueError:
            raise FormatError(f"{manifest_path}:{lineno}: class_id {head.strip()!r} "
                              "is not an integer") from None
        entries.append((cid, load_matrix(base / rel.strip())))
    return Dataset(manifest_path.stem, tuple(entries))


def save_dataset(dataset: Dataset, directory) -> Path:
    """Write every matrix as an FMX file plus the manifest `<name>.manifest`,
    which :func:`load_dataset` names `name` again; returns the manifest path."""
    _check_type(dataset, Dataset, "dataset")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = [(cid, f"{dataset.name}_{cid:04d}.fmx") for cid in dataset.class_ids]
    for (_, rel), m in zip(rows, dataset.matrices):
        save_matrix(m, directory / rel)
    manifest = directory / f"{dataset.name}.manifest"
    _write_lines(manifest, _csv_lines(f"# modality: {dataset.name}", rows))
    return manifest
