"""Feature-matrix value types and dataset/file I/O.

A feature matrix is an H x W grid of C-dimensional feature elements kept
as an immutable float64 array of shape (H, W, C).  Matrices travel on disk
in the FMX container (little-endian, explicit magic and version) and in
line-oriented dataset manifests; plain CSV is accepted for scalar (C=1)
matrices.
"""

from __future__ import annotations

import io
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FMX_MAGIC = b"FMX1"
_HEADER = struct.Struct("<4sIII")


def as_feature_array(m) -> np.ndarray:
    """Coerce a FeatureMatrix or array-like into a float64 (H, W, C) array.

    2-D input is treated as a scalar-element matrix (C=1).
    """
    if isinstance(m, FeatureMatrix):
        return m.data
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValidationError(f"expected (H, W, C) feature data, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"feature matrix dimensions must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("feature matrix contains non-finite values")
    return arr


def _as_index(value) -> int:
    """``value`` as an int; integers pass (numpy's too), floats, strings and arrays do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"index must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Immutable H x W grid of C-dimensional feature elements."""

    data: np.ndarray

    def __post_init__(self):
        arr = as_feature_array(self.data)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def element(self, h: int, w: int) -> np.ndarray:
        """The C-vector at grid position (h, w), 0-based."""
        return self.data[h, w]

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

def save_matrix(m, path) -> None:
    """Write a feature matrix to an FMX container file."""
    arr = as_feature_array(m)
    h, w, c = arr.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(FMX_MAGIC, h, w, c))
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_matrix(path) -> FeatureMatrix:
    """Read a feature matrix from an FMX container file.

    Malformed files raise FormatError naming the offending byte offset.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header at byte offset {len(raw)}")
    magic, h, w, c = _HEADER.unpack_from(raw)
    if magic != FMX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
    for offset, name, value in ((4, "H", h), (8, "W", w), (12, "C", c)):
        if value == 0:
            raise FormatError(f"{path}: zero {name} in header at byte offset {offset}")
    need = h * w * c * 8
    payload = raw[_HEADER.size:]
    if len(payload) < need:
        raise FormatError(
            f"{path}: payload truncated at byte offset {_HEADER.size + len(payload)}"
            f" (expected {need} payload bytes, found {len(payload)})"
        )
    if len(payload) > need:
        raise FormatError(f"{path}: trailing data at byte offset {_HEADER.size + need}")
    flat = np.frombuffer(payload, dtype="<f8")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FormatError(
            f"{path}: non-finite value at byte offset {_HEADER.size + 8 * int(bad[0])}"
        )
    return FeatureMatrix(flat.reshape(h, w, c))


def text_lines(path):
    """Numbered lines of a UTF-8 text file, read as text mode reads them;
    a byte that is not UTF-8 raises FormatError naming its offset."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return enumerate(io.StringIO(text, newline=None), 1)


def load_matrix_csv(path) -> FeatureMatrix:
    """Read a scalar (C=1) feature matrix from a CSV file of numbers.

    Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    width = None
    for lineno, line in text_lines(path):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        try:
            values = [float(tok) for tok in s.split(",")]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(
                f"{path}:{lineno}: expected {width} values, found {len(values)}"
            )
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
        entries = tuple((int(cid), m) for cid, m in self.entries)
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


def load_dataset(manifest_path, name: str | None = None) -> Dataset:
    """Load a dataset from a line-oriented manifest of `class_id,relative_path`.

    Entries keep manifest order; '#' lines are comments.  Paths resolve
    relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    entries = []
    for lineno, line in text_lines(manifest_path):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        head, sep, rel = s.partition(",")
        if not sep or not rel.strip() or "\0" in rel:
            raise FormatError(
                f"{manifest_path}:{lineno}: expected '<class_id>,<relative_path>'"
            )
        try:
            cid = int(head.strip())
        except ValueError:
            raise FormatError(
                f"{manifest_path}:{lineno}: class_id {head.strip()!r} is not an integer"
            ) from None
        entries.append((cid, load_matrix(base / rel.strip())))
    return Dataset(name or manifest_path.stem, tuple(entries))


def save_dataset(dataset: Dataset, directory, manifest_name: str | None = None) -> Path:
    """Write every matrix as an FMX file plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / (manifest_name or f"{dataset.name}.manifest")
    lines = [f"# modality: {dataset.name}"]
    for cid, m in dataset.entries:
        rel = f"{dataset.name}_{cid:04d}.fmx"
        save_matrix(m, directory / rel)
        lines.append(f"{cid},{rel}")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
