"""Deterministic georeferencing formulas — shared between the Ray
pipelines and the DuckDB oracle SQL.

Everything here is closed-form integer/float arithmetic on a row index
so the *same* formula can be written in ANSI SQL (see ``sql_*`` snippet
builders). This is what lets the driver's DuckDB oracle verify our
spatial operators exactly: both sides derive identical coordinates.

Placement: pseudo-random via multiplicative hashing (Knuth constants),
with a deliberate ~10% hot-spot cluster (every i % 10 == 7) piled into
one metro-area box to exercise hot-cell salting (FIXTURES.md T1).
"""

from __future__ import annotations

import numpy as np

from ..core.mercator import ORIGIN_SHIFT

# usable world band (avoid the singular poles region)
WORLD_X0, WORLD_X1 = -0.8 * ORIGIN_SHIFT, 0.8 * ORIGIN_SHIFT
WORLD_Y0, WORLD_Y1 = -0.8 * ORIGIN_SHIFT, 0.8 * ORIGIN_SHIFT
# the hot "metro" box (~20 km square) for skew tests
METRO_X0, METRO_Y0 = 255000.0, 6250000.0
METRO_W = 20000.0

_KA = 2654435761  # Knuth multiplicative hash constants (public)
_KB = 2246822519
_M32 = 2**32


def unit_hash(i, mult):
    """((i * mult + 12345) mod 2^32) / 2^32 — uniform in [0, 1)."""
    i = np.asarray(i, dtype=np.int64)
    return ((i * mult + 12345) % _M32) / _M32


def point_xy(i):
    """EPSG:3857 location for row index i (vectorized).

    i % 10 == 7 → inside the metro hot box; else uniform in the world
    band."""
    i = np.asarray(i, dtype=np.int64)
    u = unit_hash(i, _KA)
    v = unit_hash(i, _KB)
    hot = (i % 10) == 7
    x = np.where(hot, METRO_X0 + u * METRO_W, WORLD_X0 + u * (WORLD_X1 - WORLD_X0))
    y = np.where(hot, METRO_Y0 + v * METRO_W, WORLD_Y0 + v * (WORLD_Y1 - WORLD_Y0))
    return x, y


def image_resolution(i):
    """Meters/pixel for image i: cycle {2, 4, 8, 16}."""
    i = np.asarray(i, dtype=np.int64)
    return (2.0 ** (1 + (i % 4))).astype(np.float64)


def image_geotransform(i, w, h):
    """North-up EPSG:3857 geotransform for image i (vectorized →
    (n, 6) array). Anchor (point_xy) is the image's *top-left* corner."""
    x0, y1 = point_xy(i)
    res = image_resolution(i)
    n = len(np.atleast_1d(np.asarray(i)))
    gt = np.zeros((n, 6), dtype=np.float64)
    gt[:, 0] = x0
    gt[:, 1] = res
    gt[:, 3] = y1
    gt[:, 5] = -res
    return gt


# ---------------------------------------------------------------------------
# SQL snippet builders — the same formulas in DuckDB SQL
# ---------------------------------------------------------------------------

def sql_unit_hash(expr: str, mult: int) -> str:
    return f"(((({expr}) * {mult} + 12345) % {_M32}) / {float(_M32)})"


def sql_point_xy(expr: str) -> tuple[str, str]:
    """SQL expressions for (x, y) of row-index expression `expr`."""
    u = sql_unit_hash(expr, _KA)
    v = sql_unit_hash(expr, _KB)
    x = (f"CASE WHEN (({expr}) % 10) = 7 THEN {METRO_X0} + {u} * {METRO_W} "
         f"ELSE {WORLD_X0} + {u} * ({WORLD_X1} - {WORLD_X0}) END")
    y = (f"CASE WHEN (({expr}) % 10) = 7 THEN {METRO_Y0} + {v} * {METRO_W} "
         f"ELSE {WORLD_Y0} + {v} * ({WORLD_Y1} - {WORLD_Y0}) END")
    return x, y


def sql_tile_xy(x_expr: str, y_expr: str, zoom: int) -> tuple[str, str]:
    """SQL for the XYZ tile address of a mercator point at `zoom`,
    matching mercator.point_tiles exactly (no clip: the points lie inside):
    tx = ceil(px/256) - 1 with px = (mx + OS)/res."""
    res = (2 * np.pi * 6378137 / 256) / (2.0**zoom)
    n = 2**zoom
    tx = f"CAST(ceil((({x_expr}) + {ORIGIN_SHIFT!r}) / {res!r} / 256.0) AS BIGINT) - 1"
    ty_tms = f"CAST(ceil((({y_expr}) + {ORIGIN_SHIFT!r}) / {res!r} / 256.0) AS BIGINT) - 1"
    ty_xyz = f"({n} - 1 - ({ty_tms}))"
    return tx, ty_xyz
