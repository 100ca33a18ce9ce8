"""KML superoverlay sink — the gdal2tiles `-k` output layout.

Reference semantics: gdal2tiles.py ``generate_kml`` (swig/python/
gdal-utils/osgeo_utils/gdal2tiles.py, KML superoverlay mode) and the
public KML 2.2 Region/NetworkLink spec: one ``doc.kml`` root that
links the top-level tiles, and one ``z/x/y.kml`` per tile containing

  * a <Region> whose <LatLonAltBox> is the tile's geodetic bounds and
    a <Lod> with minLodPixels=128 (the superoverlay fade-in contract),
  * a <GroundOverlay> draping the tile PNG over that box,
  * one <NetworkLink> per existing child tile at z+1 with
    onRegion view refresh — Earth-style clients stream deeper zooms
    only when the region is on screen.

Written from the published KML spec + the gdal2tiles layout; no
reference code consulted.

Scale shape: per-tile KML generation is a pure function of (z, x, y)
plus the set of existing children, so the sink runs as map_batches
over the tile datasets with a broadcast child-membership set per
level (tile counts per level are bounded by the render itself).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import mercator as merc

_LOD = 128


def tile_latlon_bounds(z: int, x: int, y_xyz: int):
    """Geodetic (south, west, north, east) of an XYZ tile."""
    ty_tms = (1 << z) - 1 - y_xyz
    minx, miny, maxx, maxy = merc.tile_bounds(x, ty_tms, z)
    s, w = merc.meters_to_latlon(minx, miny)
    n, e = merc.meters_to_latlon(maxx, maxy)
    return float(s), float(w), float(n), float(e)


def _box(s, w, n, e, indent="      "):
    return (f"{indent}<LatLonAltBox>\n"
            f"{indent}  <north>{n:.14f}</north>\n"
            f"{indent}  <south>{s:.14f}</south>\n"
            f"{indent}  <east>{e:.14f}</east>\n"
            f"{indent}  <west>{w:.14f}</west>\n"
            f"{indent}</LatLonAltBox>\n")


def tile_kml(z: int, x: int, y: int, children, *, ext: str = "png",
             max_zoom: int | None = None) -> str:
    """KML document for one tile. ``children`` = iterable of (x, y) at
    z+1 that actually exist (blank children get no link)."""
    s, w, n, e = tile_latlon_bounds(z, x, y)
    # deepest level keeps tiles visible at any range (maxLodPixels -1)
    max_px = -1 if (max_zoom is not None and z >= max_zoom) else 2048
    parts = [
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<kml xmlns="http://www.opengis.net/kml/2.2">\n'
        f'  <Document>\n    <name>{z}/{x}/{y}.kml</name>\n'
        '    <Region>\n'
        f'      <Lod><minLodPixels>{_LOD}</minLodPixels>'
        f'<maxLodPixels>{max_px}</maxLodPixels></Lod>\n',
        _box(s, w, n, e),
        '    </Region>\n'
        '    <GroundOverlay>\n'
        f'      <drawOrder>{z}</drawOrder>\n'
        f'      <Icon><href>{y}.{ext}</href></Icon>\n',
        _box(s, w, n, e),
        '    </GroundOverlay>\n',
    ]
    for cx, cy in sorted(children):
        cs, cw, cn, ce = tile_latlon_bounds(z + 1, cx, cy)
        parts.append(
            '    <NetworkLink>\n'
            f'      <name>{z + 1}/{cx}/{cy}</name>\n'
            '      <Region>\n'
            f'        <Lod><minLodPixels>{_LOD}</minLodPixels>'
            '<maxLodPixels>-1</maxLodPixels></Lod>\n'
            + _box(cs, cw, cn, ce, "        ") +
            '      </Region>\n'
            '      <Link>\n'
            f'        <href>../../{z + 1}/{cx}/{cy}.kml</href>\n'
            '        <viewRefreshMode>onRegion</viewRefreshMode>\n'
            '      </Link>\n'
            '    </NetworkLink>\n')
    parts.append('  </Document>\n</kml>\n')
    return "".join(parts)


def doc_kml(top_tiles, min_z: int) -> str:
    """Root doc.kml: NetworkLinks to every min-zoom tile."""
    parts = ['<?xml version="1.0" encoding="utf-8"?>\n'
             '<kml xmlns="http://www.opengis.net/kml/2.2">\n'
             '  <Document>\n    <name>superoverlay</name>\n']
    for x, y in sorted(top_tiles):
        s, w, n, e = tile_latlon_bounds(min_z, x, y)
        parts.append(
            '    <NetworkLink>\n'
            f'      <name>{min_z}/{x}/{y}</name>\n'
            '      <Region>\n'
            f'        <Lod><minLodPixels>{_LOD}</minLodPixels>'
            '<maxLodPixels>-1</maxLodPixels></Lod>\n'
            + _box(s, w, n, e, "        ") +
            '      </Region>\n'
            '      <Link>\n'
            f'        <href>{min_z}/{x}/{y}.kml</href>\n'
            '        <viewRefreshMode>onRegion</viewRefreshMode>\n'
            '      </Link>\n'
            '    </NetworkLink>\n')
    parts.append('  </Document>\n</kml>\n')
    return "".join(parts)


def _xy_rows(x, y, cx, cy) -> pa.Table:
    """(x, y, cx, cy) rows keyed by their level-z tile: k = x << 32 | y."""
    k = (x.astype(np.uint64) << np.uint64(32)) | y.astype(np.uint64)
    return pa.table({"x": x, "y": y, "cx": cx, "cy": cy, "k": k})


def _self_rows(t: pa.Table) -> pa.Table:
    """Level-z tiles as (x, y, cx=-1, cy=-1) marker rows."""
    neg = np.full(t.num_rows, -1, np.int64)
    return _xy_rows(t["x"].to_numpy().astype(np.int64),
                    t["y"].to_numpy().astype(np.int64), neg, neg)


def _child_rows(t: pa.Table) -> pa.Table:
    """Level-(z+1) tiles keyed by their parent at z: (x, y, cx, cy)."""
    cx = t["x"].to_numpy().astype(np.int64)
    cy = t["y"].to_numpy().astype(np.int64)
    return _xy_rows(cx // 2, cy // 2, cx, cy)


def write_superoverlay(levels: dict, out_dir: str, ext: str = "png"):
    """Tile pyramid → z/x/y.png + z/x/y.kml tree + doc.kml (the
    gdal2tiles -k superoverlay). Distributed end to end: PNGs go
    through write_tile_tree; per-tile KML needs the tile's EXISTING
    children at z+1, so child membership is computed as a shuffle —
    level z+1 coordinates map to their parent key and meet the level-z
    self rows in the group exchange (coordinates only cross the
    exchange, never tile bytes; no driver-side coordinate pull)."""
    from pyarrow import fs as pafs

    from ..stages.exchange import bucket_groups, key_slices
    from .tiles import write_tile_tree

    manifest = write_tile_tree(levels, out_dir, ext=ext)

    try:
        fsys, root = pafs.FileSystem.from_uri(out_dir)
    except (ValueError, pafs.lib.ArrowInvalid):
        fsys, root = pafs.LocalFileSystem(), out_dir

    zooms = sorted(levels)
    max_z = zooms[-1]

    for z in zooms:
        rows = levels[z].select_columns(["x", "y"]) \
            .map_batches(_self_rows, batch_format="pyarrow")
        if z + 1 in levels:
            kids = levels[z + 1].select_columns(["x", "y"]) \
                .map_batches(_child_rows, batch_format="pyarrow")
            rows = rows.union(kids)

        def write_kml_group(t: pa.Table, z=z) -> pa.Table:
            n = 0
            for g in key_slices(t, t["k"].to_numpy()):
                cx, cy = g["cx"].to_numpy(), g["cy"].to_numpy()
                if not (cx < 0).any():
                    continue  # child rows whose parent tile wasn't rendered
                x, y = g["x"][0].as_py(), g["y"][0].as_py()
                kids = cx >= 0
                body = tile_kml(z, x, y,
                                list(zip(cx[kids].tolist(), cy[kids].tolist())),
                                ext=ext, max_zoom=max_z)
                with fsys.open_output_stream(f"{root}/{z}/{x}/{y}.kml") as f:
                    f.write(body.encode())
                n += 1
            return pa.table({"n": pa.array([n], pa.int64())})

        cnt = bucket_groups(rows, write_kml_group, key="k").sum("n")
        manifest[f"z={z}"]["n_kml"] = int(cnt)

    # doc.kml links every min-zoom tile: bounded by construction (a
    # superoverlay root beyond 64k links is unusable; gdal2tiles roots
    # are a handful of tiles), enforced with an explicit limit().
    top = levels[zooms[0]].select_columns(["x", "y"]).limit(65536)
    top_xy = [(r["x"], r["y"]) for r in top.take_all()]
    with fsys.open_output_stream(f"{root}/doc.kml") as f:
        f.write(doc_kml(top_xy, zooms[0]).encode())
    return manifest
