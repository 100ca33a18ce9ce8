"""Band algebra — the `gdal raster calc` / muparser analog.

Reference: apps/gdalalg_raster_calc.cpp:582,931 (muparser expressions
like "(A + B) / 2" over named inputs). We reuse the OGR-SQL expression
parser (functions/sql.py) — same arithmetic grammar, bands bound as
variables, evaluation fully vectorized over flattened pixel planes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sql import _P, _eval_arrow, _parse_add, tokenize


def parse_expr(expr: str):
    p = _P(tokenize(expr))
    ast = _parse_add(p)
    if p.peek()[0] != "end":
        raise ValueError(f"trailing tokens in expression {expr!r}")
    return ast


def band_calc(bands: dict, expr: str) -> np.ndarray:
    """Evaluate `expr` (e.g. "(A + B) / 2") over named 2-D bands.

    All bands must share a shape; output is float64 of that shape."""
    shapes = {v.shape for v in bands.values()}
    if len(shapes) != 1:
        raise ValueError(f"band shapes differ: {shapes}")
    (shape,) = shapes
    table = pa.table({k: np.asarray(v, np.float64).ravel()
                      for k, v in bands.items()})
    out = _eval_arrow(parse_expr(expr), table)
    arr = np.asarray(out, np.float64)
    if arr.ndim == 0:          # constant expression
        return np.full(shape, float(arr))
    return arr.reshape(shape)


def image_calc(px: np.ndarray, expr: str,
               names: str = "ABCDEFGH") -> np.ndarray:
    """Convenience: bands of one (h, w, nb) image bound as A, B, C…"""
    if px.ndim == 2:
        px = px[:, :, None]
    bands = {names[i]: px[:, :, i] for i in range(px.shape[2])}
    return band_calc(bands, expr)
