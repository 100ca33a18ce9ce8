"""Deterministic synthetic vector layers (FIXTURES.md T2/T3).

T2 ``polygons``: WKB polygons (axis-aligned squares, rotated squares,
L-shapes, one multipolygon, one polygon with a hole) seeded over the
same world band the images occupy, with denormalized envelope columns —
the layer schema our vector model uses everywhere (WKB binary geometry
+ minx/miny/maxx/maxy, matching OGR's Arrow WKB convention,
reference ogr/ogrsf_frmts/generic/ogrlayerarrow.cpp:498).

T3 ``points``: EPSG:3857 points, uniform + one dense cluster.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb
from . import geo

POLY_SCHEMA = pa.schema([
    ("fid", pa.int64()),
    ("wkb", pa.binary()),
    ("minx", pa.float64()), ("miny", pa.float64()),
    ("maxx", pa.float64()), ("maxy", pa.float64()),
    ("name", pa.string()),
    ("category", pa.string()),
])

POINT_SCHEMA = pa.schema([
    ("fid", pa.int64()),
    ("x", pa.float64()), ("y", pa.float64()),
    ("wkb", pa.binary()),
    ("value", pa.float64()),
])

# the denormalized envelope columns, in the order every layer carries them
ENVELOPE = ("minx", "miny", "maxx", "maxy")


def attribute_names(names) -> list[str]:
    """A source's attribute field names → the layer's attribute column
    names, in order: a name equal to ``fid``, ``wkb`` or an
    ``ENVELOPE`` column (compared case-insensitively) becomes
    ``attr_<name>``, and a repeated name gets ``_`` suffixes, so no
    attribute collides with the columns ``with_geometry`` builds."""
    reserved = {"fid", "wkb", *ENVELOPE}
    taken = set(reserved)
    out = []
    for nm in names:
        if nm.lower() in reserved:
            nm = f"attr_{nm}"
        while nm in taken:
            nm += "_"
        taken.add(nm)
        out.append(nm)
    return out

_CATS = ("a", "b", "c")


def with_geometry(table: pa.Table, geoms) -> pa.Table:
    """``table`` with the layer's geometry columns appended: ``wkb``
    (binary), then the float64 ``ENVELOPE`` columns. ``geoms`` holds
    one entry per row: a ``wkb.Geometry``, a WKB buffer, or None (a
    null WKB and a NaN envelope). The schema metadata of ``table`` is
    kept. Every vector reader and every stage that rewrites a layer's
    WKB builds its geometry columns here, so this is the one place that
    knows the layout."""
    env = np.full((len(geoms), 4), np.nan)
    wkbs, held = [], []
    for i, g in enumerate(geoms):
        if g is None:
            wkbs.append(None)
        elif isinstance(g, wkb.Geometry):
            wkbs.append(wkb.dumps(g))
            env[i] = g.envelope()
        else:
            wkbs.append(g)
            held.append(i)
    if held:
        env[held] = wkb.envelopes_of_wkb([wkbs[i] for i in held])
    schema = pa.schema([*table.schema, pa.field("wkb", pa.binary()),
                        *(pa.field(n, pa.float64()) for n in ENVELOPE)],
                       metadata=table.schema.metadata)
    return pa.Table.from_arrays(
        [*table.columns, pa.array(wkbs, pa.binary()),
         *(pa.array(env[:, j]) for j in range(4))], schema=schema)


def make_polygon(j: int) -> wkb.Geometry:
    """Deterministic polygon j; shape class cycles by j % 5."""
    cx, cy = geo.point_xy(np.int64(j * 3 + 1))
    cx, cy = float(cx), float(cy)
    size = 5000.0 * (1 + (j * 7) % 5)  # 5–25 km
    k = j % 5
    if k == 0:  # axis-aligned square
        return wkb.box(cx - size, cy - size, cx + size, cy + size)
    if k == 1:  # rotated square (45°)
        ring = [(cx, cy - size), (cx + size, cy), (cx, cy + size), (cx - size, cy)]
        return wkb.polygon(ring)
    if k == 2:  # L-shape (concave)
        s = size
        ring = [(cx - s, cy - s), (cx + s, cy - s), (cx + s, cy), (cx, cy),
                (cx, cy + s), (cx - s, cy + s)]
        return wkb.polygon(ring)
    if k == 3:  # square with a hole
        return wkb.polygon(
            [(cx - size, cy - size), (cx + size, cy - size),
             (cx + size, cy + size), (cx - size, cy + size)],
            holes=[[(cx - size / 3, cy - size / 3), (cx + size / 3, cy - size / 3),
                    (cx + size / 3, cy + size / 3), (cx - size / 3, cy + size / 3)]])
    # k == 4: multipolygon of two squares
    off = size * 1.5
    return wkb.multipolygon([
        wkb.box(cx - size, cy - size, cx, cy),
        wkb.box(cx + off, cy + off, cx + off + size, cy + off + size)])


def polygons_table(m: int) -> pa.Table:
    rows = []
    for j in range(m):
        g = make_polygon(j)
        env = g.envelope()
        rows.append({
            "fid": j, "wkb": wkb.dumps(g),
            "minx": env[0], "miny": env[1], "maxx": env[2], "maxy": env[3],
            "name": f"zone{j}", "category": _CATS[j % 3],
        })
    return pa.Table.from_pylist(rows, schema=POLY_SCHEMA)


def points_table(k: int) -> pa.Table:
    idx = np.arange(k, dtype=np.int64)
    x, y = geo.point_xy(idx * 7 + 3)
    # dense cluster: every 5th point lands in the metro box
    dense = idx % 5 == 2
    u = geo.unit_hash(idx, 97003)
    v = geo.unit_hash(idx, 57301)
    x = np.where(dense, geo.METRO_X0 + u * geo.METRO_W, x)
    y = np.where(dense, geo.METRO_Y0 + v * geo.METRO_W, y)
    rows = []
    for i in range(k):
        rows.append({
            "fid": int(idx[i]), "x": float(x[i]), "y": float(y[i]),
            "wkb": wkb.dumps(wkb.point(float(x[i]), float(y[i]))),
            "value": float(np.sin(float(idx[i]))),
        })
    return pa.Table.from_pylist(rows, schema=POINT_SCHEMA)


def polygons_dataset(m: int):
    import ray.data as rd
    return rd.from_arrow(polygons_table(m))


def points_dataset(k: int):
    import ray.data as rd
    return rd.from_arrow(points_table(k))


def tile_rects_table(zoom: int, minx: float, miny: float,
                     maxx: float, maxy: float) -> pa.Table:
    """Polygon layer of XYZ tile rectangles covering a bbox — a
    deterministic second layer for layer-algebra pipelines (fid = cell
    id). Tile rects partition the plane, so per-feature intersection
    areas against this layer must sum to the feature's area."""
    from ..core import mercator as merc

    _, cells = merc.cover_envelopes(minx, miny, maxx, maxy, zoom,
                                    max_cells=1 << 20)
    _, xx, yy = merc.cell_decode(cells)
    bounds = merc.tile_bounds(xx, merc.xyz_to_tms(yy, zoom), zoom)
    return with_geometry(pa.table({"fid": cells.astype(np.int64)}),
                         [wkb.box(*b) for b in zip(*bounds)])


def tile_rects_dataset(zoom: int, minx: float, miny: float,
                       maxx: float, maxy: float):
    import ray.data as rd
    return rd.from_arrow(tile_rects_table(zoom, minx, miny, maxx, maxy))


def boxes_table(m: int, *, seed_mult: int = 5, seed_add: int = 2) -> pa.Table:
    """Second deterministic polygon layer: AXIS-ALIGNED boxes only
    (closed-form box algebra in the SQL oracle). Box j is centered at
    point_xy(j*seed_mult + seed_add) with half-size 4-12 km."""
    rows = []
    for j in range(m):
        cx, cy = geo.point_xy(np.int64(j * seed_mult + seed_add))
        cx, cy = float(cx), float(cy)
        s = 4000.0 * (1 + (j * 11) % 3)
        g = wkb.box(cx - s, cy - s, cx + s, cy + s)
        env = g.envelope()
        rows.append({
            "fid": j, "wkb": wkb.dumps(g),
            "minx": env[0], "miny": env[1], "maxx": env[2], "maxy": env[3],
            "name": f"box{j}", "category": _CATS[j % 3],
        })
    return pa.Table.from_pylist(rows, schema=POLY_SCHEMA)


def boxes_dataset(m: int):
    import ray.data as rd
    return rd.from_arrow(boxes_table(m))
