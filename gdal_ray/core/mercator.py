"""Web-Mercator (EPSG:3857) math + XYZ/TMS tile grid + quadkey cell index.

Formulas reproduce the published GlobalMercator tile math of gdal2tiles
(reference: swig/python/gdal-utils/osgeo_utils/gdal2tiles.py:416-530):
sphere radius 6378137, originShift = π·R, Resolution(z) = 2πR/(tile·2^z).
All functions are numpy-vectorized: scalars or arrays in, same out.

Cell index: our H3/S2 stand-in is a uint64 **quadkey cell id** — zoom in
the top 6 bits, below it the bit-interleaved (x, y) Morton code of the
XYZ tile address. Morton order is hilbert-ish space-filling (locality:
reference ogr/ogrsf_frmts/flatgeobuf/packedrtree.h:78-112 uses the same
idea for feature locality) and makes parent/child derivation a shift.

The engine keys features to cells only through this module: a batch of
envelopes with ``cover_envelopes`` (flat ``(row, cell)`` arrays), points
with ``point_tiles`` / ``point_cells``.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS = 6378137.0
ORIGIN_SHIFT = np.pi * EARTH_RADIUS  # 20037508.342789244
TILE_SIZE = 256
MAX_ZOOM = 30


def resolution(zoom, tile_size: int = TILE_SIZE):
    """Meters per pixel at zoom (gdal2tiles.py:498-502)."""
    return (2 * np.pi * EARTH_RADIUS / tile_size) / (2.0 ** np.asarray(zoom))


def latlon_to_meters(lat, lon):
    """WGS84 lat/lon → EPSG:3857 meters (gdal2tiles.py:423-430)."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    mx = lon * ORIGIN_SHIFT / 180.0
    my = np.log(np.tan((90.0 + lat) * np.pi / 360.0)) / (np.pi / 180.0)
    my = my * ORIGIN_SHIFT / 180.0
    return mx, my


def meters_to_latlon(mx, my):
    """EPSG:3857 meters → WGS84 lat/lon (gdal2tiles.py:432-443)."""
    mx = np.asarray(mx, dtype=np.float64)
    my = np.asarray(my, dtype=np.float64)
    lon = (mx / ORIGIN_SHIFT) * 180.0
    lat = (my / ORIGIN_SHIFT) * 180.0
    lat = 180.0 / np.pi * (2.0 * np.arctan(np.exp(lat * np.pi / 180.0)) - np.pi / 2.0)
    return lat, lon


def meters_to_pixels(mx, my, zoom, tile_size: int = TILE_SIZE):
    """EPSG:3857 → global pixel coords at zoom (gdal2tiles.py:452-458).

    Pixel origin is the bottom-left corner (TMS convention)."""
    res = resolution(zoom, tile_size)
    px = (np.asarray(mx, dtype=np.float64) + ORIGIN_SHIFT) / res
    py = (np.asarray(my, dtype=np.float64) + ORIGIN_SHIFT) / res
    return px, py


def pixels_to_meters(px, py, zoom, tile_size: int = TILE_SIZE):
    """Global pixel coords at zoom → EPSG:3857 (gdal2tiles.py:445-450)."""
    res = resolution(zoom, tile_size)
    mx = np.asarray(px, dtype=np.float64) * res - ORIGIN_SHIFT
    my = np.asarray(py, dtype=np.float64) * res - ORIGIN_SHIFT
    return mx, my


def pixels_to_tile(px, py, tile_size: int = TILE_SIZE):
    """Pixel coords → TMS tile address (gdal2tiles.py:461-466):
    tx = ceil(px/tile)-1 (a point exactly on a tile's left/bottom edge
    belongs to the tile *below/left* except at 0)."""
    tx = (np.ceil(np.asarray(px, dtype=np.float64) / tile_size) - 1).astype(np.int64)
    ty = (np.ceil(np.asarray(py, dtype=np.float64) / tile_size) - 1).astype(np.int64)
    return tx, ty


def meters_to_tile(mx, my, zoom, tile_size: int = TILE_SIZE):
    """EPSG:3857 point → TMS tile (gdal2tiles.py:473-477)."""
    px, py = meters_to_pixels(mx, my, zoom, tile_size)
    return pixels_to_tile(px, py, tile_size)


def tile_bounds(tx, ty, zoom, tile_size: int = TILE_SIZE):
    """TMS tile → EPSG:3857 (minx, miny, maxx, maxy) (gdal2tiles.py:480-487)."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    minx, miny = pixels_to_meters(tx * tile_size, ty * tile_size, zoom, tile_size)
    maxx, maxy = pixels_to_meters((tx + 1) * tile_size, (ty + 1) * tile_size, zoom, tile_size)
    return minx, miny, maxx, maxy


def tms_to_xyz(ty, zoom):
    """Flip the y axis between TMS (origin bottom-left) and XYZ/Google
    (origin top-left) conventions (gdal2tiles.py:512-516). Involutive."""
    return (2 ** np.asarray(zoom)) - 1 - np.asarray(ty)


xyz_to_tms = tms_to_xyz  # the flip is its own inverse


def quadkey_str(tx, ty_tms, zoom: int) -> str:
    """Bing-style quadkey string for one tile (gdal2tiles.py:518-530)."""
    ty = (2**zoom - 1) - int(ty_tms)
    tx = int(tx)
    out = []
    for i in range(zoom, 0, -1):
        digit = 0
        mask = 1 << (i - 1)
        if tx & mask:
            digit += 1
        if ty & mask:
            digit += 2
        out.append(str(digit))
    return "".join(out)


def zoom_for_pixel_size(pixel_size, tile_size: int = TILE_SIZE):
    """Max scaledown zoom whose resolution is finer than pixel_size
    (gdal2tiles.py:504-510): never scale up."""
    ps = np.asarray(pixel_size, dtype=np.float64)
    res = resolution(np.arange(MAX_ZOOM), tile_size)  # descending
    # first i with ps > res[i]; answer max(0, i-1); if none → MAX_ZOOM-1
    hits = ps[..., None] > res  # broadcast
    first = np.argmax(hits, axis=-1)
    any_hit = hits.any(axis=-1)
    out = np.where(any_hit, np.maximum(0, first - 1), MAX_ZOOM - 1)
    return out if out.ndim else int(out)


# ---------------------------------------------------------------------------
# uint64 quadkey cell ids (H3/S2 stand-in)
# ---------------------------------------------------------------------------

_B = [0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
      0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF]


def _part1by1(v):
    """Spread the low 32 bits of v into even bit positions (Morton)."""
    v = np.asarray(v, dtype=np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(_B[4])
    v = (v | (v << np.uint64(8))) & np.uint64(_B[3])
    v = (v | (v << np.uint64(4))) & np.uint64(_B[2])
    v = (v | (v << np.uint64(2))) & np.uint64(_B[1])
    v = (v | (v << np.uint64(1))) & np.uint64(_B[0])
    return v


def _compact1by1(v):
    v = np.asarray(v, dtype=np.uint64) & np.uint64(_B[0])
    v = (v | (v >> np.uint64(1))) & np.uint64(_B[1])
    v = (v | (v >> np.uint64(2))) & np.uint64(_B[2])
    v = (v | (v >> np.uint64(4))) & np.uint64(_B[3])
    v = (v | (v >> np.uint64(8))) & np.uint64(_B[4])
    v = (v | (v >> np.uint64(16))) & np.uint64(0xFFFFFFFF)
    return v


def cell_id(zoom, tx, ty_xyz):
    """(zoom, x, y_xyz) → uint64 cell id: zoom<<58 | morton(x, y).

    XYZ y-convention (origin top-left) so ids sort north-west first.
    Vectorized; zoom ≤ 29 (x,y < 2^29 each)."""
    z = np.asarray(zoom, dtype=np.uint64)
    m = _part1by1(tx) | (_part1by1(ty_xyz) << np.uint64(1))
    return (z << np.uint64(58)) | m


def cell_decode(cid):
    """uint64 cell id → (zoom, x, y_xyz)."""
    cid = np.asarray(cid, dtype=np.uint64)
    z = (cid >> np.uint64(58)).astype(np.int64)
    m = cid & np.uint64((1 << 58) - 1)
    x = _compact1by1(m).astype(np.int64)
    y = _compact1by1(m >> np.uint64(1)).astype(np.int64)
    return z, x, y


def cell_parent(zoom, tx, ty_xyz):
    """Cell id of the parent (one zoom up) of each XYZ tile; a zoom-0
    tile is its own parent. Vectorized like cell_id."""
    z = np.asarray(zoom)
    return cell_id(np.maximum(z - 1, 0), np.asarray(tx) >> 1,
                   np.asarray(ty_xyz) >> 1)


def point_tiles(x, y, zoom):
    """XYZ tile address (x, y_xyz) of each mercator point at ``zoom``,
    clipped to the grid so points on or past the world edge land in an
    edge tile. ``zoom`` may be a scalar or one zoom per point."""
    n = 2 ** np.asarray(zoom, dtype=np.int64)
    tx, ty = meters_to_tile(x, y, zoom)
    return np.clip(tx, 0, n - 1), tms_to_xyz(np.clip(ty, 0, n - 1), zoom)


def point_cells(x, y, zoom):
    """Cell id of the tile holding each mercator point (point_tiles)."""
    return cell_id(zoom, *point_tiles(x, y, zoom))


def cover_envelopes(minx, miny, maxx, maxy, zoom, max_cells: int = 4096):
    """Every cell (XYZ convention) whose tile intersects each mercator
    envelope, as two flat arrays ``(row, cell)``: ``row`` indexes the
    input envelope, ascending. A row's cells start at its south-west
    tile and run west to east, then south to north. ``zoom`` is a
    scalar or one zoom per envelope. Envelopes clamp to the world
    bounds; an inverted or NaN envelope (a missing geometry) covers no
    cell. Raises ValueError when one envelope covers more than
    ``max_cells`` cells."""
    x0, y0, x1, y1 = (np.atleast_1d(np.asarray(a, dtype=np.float64))
                      for a in (minx, miny, maxx, maxy))
    x0 = np.maximum(x0, -ORIGIN_SHIFT); y0 = np.maximum(y0, -ORIGIN_SHIFT)
    x1 = np.minimum(x1, ORIGIN_SHIFT); y1 = np.minimum(y1, ORIGIN_SHIFT)
    rows = np.flatnonzero((x0 <= x1) & (y0 <= y1))
    z = np.broadcast_to(np.asarray(zoom, dtype=np.int64), x0.shape)[rows]
    # nudge the corners inward so an edge on a tile boundary does not
    # pull in the neighbouring tile
    eps = resolution(z) * 1e-6
    n = 2 ** z
    tx0, ty0 = (np.clip(t, 0, n - 1) for t in
                meters_to_tile(x0[rows] + eps, y0[rows] + eps, z))
    tx1, ty1 = (np.clip(t, 0, n - 1) for t in
                meters_to_tile(x1[rows] - eps, y1[rows] - eps, z))
    # degenerate / sub-eps envelopes on a tile boundary: the nudges can
    # invert the range — every feature still covers the cell of its
    # (nudged) min corner, never zero cells
    nx = np.maximum(tx1, tx0) - tx0 + 1
    count = nx * (np.maximum(ty1, ty0) - ty0 + 1)
    over = np.flatnonzero(count > max_cells)
    if len(over):
        i = over[0]
        raise ValueError(f"envelope covers {count[i]} cells at z{z[i]} "
                         f"> max_cells={max_cells}")
    row = np.repeat(rows, count)
    k = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    nx, z = np.repeat(nx, count), np.repeat(z, count)
    tx = np.repeat(tx0, count) + k % nx
    ty = np.repeat(ty0, count) + k // nx
    return row, cell_id(z, tx, tms_to_xyz(ty, z))


def cells_for_envelope(minx, miny, maxx, maxy, zoom, max_cells: int = 4096):
    """All cell ids whose tiles intersect one mercator envelope, as a
    1-D uint64 array: cover_envelopes of a single row."""
    return cover_envelopes(minx, miny, maxx, maxy, zoom, max_cells)[1]
