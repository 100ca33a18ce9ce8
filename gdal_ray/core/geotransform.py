"""Affine geotransform: the 6-coefficient pixel→world mapping.

Semantics follow the GDAL geotransform contract
(reference: gcore/gdal_geotransform.h:27-62,150-228):

    X = gt[0] + col * gt[1] + row * gt[2]
    Y = gt[3] + col * gt[4] + row * gt[5]

where (col, row) address the *top-left corner* of a pixel; the pixel
center is (col + 0.5, row + 0.5). Stored as a plain 6-tuple of floats so
it serializes naturally into a ``fixed_size_list<float64, 6>`` Arrow
column.
"""

from __future__ import annotations

import numpy as np

GT = tuple[float, float, float, float, float, float]


def apply(gt: GT, col, row):
    """Pixel (col,row) → world (x,y). Accepts scalars or numpy arrays."""
    x = gt[0] + col * gt[1] + row * gt[2]
    y = gt[3] + col * gt[4] + row * gt[5]
    return x, y


def inverse(gt: GT) -> GT:
    """Invert the affine transform (gcore/gdal_geotransform.h:206 semantics).

    Raises ZeroDivisionError on a singular transform.
    """
    det = gt[1] * gt[5] - gt[2] * gt[4]
    if det == 0.0:
        raise ZeroDivisionError("singular geotransform")
    inv_det = 1.0 / det
    # world→pixel affine
    a = gt[5] * inv_det
    b = -gt[2] * inv_det
    d = -gt[4] * inv_det
    e = gt[1] * inv_det
    c = -(gt[0] * a + gt[3] * b)
    f = -(gt[0] * d + gt[3] * e)
    return (c, a, b, f, d, e)


def apply_inverse(gt: GT, x, y):
    """World (x,y) → pixel (col,row)."""
    inv = inverse(gt)
    return apply(inv, x, y)


def window_envelope(gt: GT, col0: float, row0: float, ncols: float, nrows: float):
    """Pixel window → world bounding box (minx, miny, maxx, maxy).

    Walks all four corners so rotated transforms are handled
    (windows↔envelopes, gdal_geotransform.h:162-170).
    """
    cols = np.array([col0, col0 + ncols, col0, col0 + ncols], dtype=np.float64)
    rows = np.array([row0, row0, row0 + nrows, row0 + nrows], dtype=np.float64)
    xs, ys = apply(gt, cols, rows)
    return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


def from_bounds(minx: float, miny: float, maxx: float, maxy: float,
                width: int, height: int) -> GT:
    """North-up geotransform covering [minx,maxx]×[miny,maxy] with a
    width×height grid. Row 0 is the top (maxy) edge."""
    return (minx, (maxx - minx) / width, 0.0,
            maxy, 0.0, -(maxy - miny) / height)
