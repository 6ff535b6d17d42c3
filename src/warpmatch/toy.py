"""Bundled 8x8 toy images for the alignment demos and golden tests.

Both gray images contain the same J-shaped stroke pattern; the second is
a derivant of the first under translation, stretching and compression of
rows and columns, plus per-pixel value jitter.  The pair is constructed
so that the order-preserving alignment distance between them is exactly
654 while the naive pointwise L1 distance is 1118 - the gap is what the
alignment is for.
"""

from __future__ import annotations

import numpy as np

from .matrix import FeatureMatrix

TOY_S = np.array([
    [ 21,  30,  32,  19,  22,  40,  20,  21],
    [ 41,  33, 124, 126, 132, 112, 131,  37],
    [ 34,  30,  38,  31,  42, 119,  31,  30],
    [ 26,  32,  24,  37,  39, 121,  29,  25],
    [ 20,  40,  28,  22,  34, 132,  40,  23],
    [ 19,  23,  95,  29,  40, 139,  26,  18],
    [ 22,  42, 125, 121, 103, 113,  38,  32],
    [ 25,  26,  20,  22,  19,  38,  29,  21],
], dtype=np.float64)

TOY_E = np.array([
    [ 20,   9,  26,  17,  23,  27,  47,  11],
    [ 43,  20, 142, 126, 138, 113, 105,  40],
    [ 19,  23,  36,  32,  44,  68, 111,  41],
    [ 21,  36,  29,  34,  49,  42, 104,  37],
    [ 33,  40,  29,  18,   5,  55, 108,   5],
    [ 10,  22,  96,  29,  11,  56, 103,  12],
    [ 19,  37, 113, 117, 109,  95,  98,  14],
    [ 25,  25,  19,  30,  11,  12,  33,  37],
], dtype=np.float64)


def toy_pair() -> tuple[FeatureMatrix, FeatureMatrix]:
    """The bundled scalar image pair used across demos and tests."""
    return FeatureMatrix(TOY_S), FeatureMatrix(TOY_E)

