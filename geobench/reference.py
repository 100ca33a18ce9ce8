"""Expected outputs, computed without Ray and without the engine's
kernels under test.

* ``pyramid``: numpy code of this module warps each image's pixels, taken
  from the corpus pattern rather than decoded from its bytes, onto Web
  Mercator tiles, composites them and averages the overview levels; the
  written tiles are decoded by this module's own PNG reader.
* ``join``: brute force over every footprint × polygon pair with this
  module's own WKB reader and box/polygon predicate.
* ``sql``: DuckDB runs the same statement strings over the same files.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

# ---------------------------------------------------------------------------
# pyramid
# ---------------------------------------------------------------------------

ORIGIN_SHIFT = 2 * math.pi * 6378137 / 2.0
TILE = 256
# Largest per-channel difference allowed between a produced tile and the
# reference.  PNG sources are lossless and bilinear weights are convex,
# so their pixels differ by at most 1 (rounding).  The GRJ1 JPEG
# stand-in is lossy: on the corpus gradients its decode is off by at
# most 8 levels, and a convex warp and a box average keep that bound.
PIXEL_TOL = 10


def _tile_size(z: int) -> float:
    return 2 * ORIGIN_SHIFT / 2 ** z


def _bilinear_axis(s: np.ndarray, n: int):
    """Taps and weights along one axis for sample positions ``s`` in
    source pixel units (0.5 is the first pixel centre).  A tap outside
    the source gets weight 0; the pair is renormalised, so a position
    within half a pixel of the edge still takes the edge pixel."""
    f = s - 0.5
    i0 = np.floor(f).astype(np.int64)
    t = f - i0
    w0 = np.where((i0 >= 0) & (i0 < n), 1.0 - t, 0.0)
    w1 = np.where((i0 + 1 >= 0) & (i0 + 1 < n), t, 0.0)
    tot = w0 + w1
    ok = tot > 0
    w0 = np.where(ok, w0 / np.where(ok, tot, 1.0), 0.0)
    w1 = np.where(ok, w1 / np.where(ok, tot, 1.0), 0.0)
    return np.clip(i0, 0, n - 1), np.clip(i0 + 1, 0, n - 1), w0, w1, ok


def _to_byte(a: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(a + 0.5), 0, 255).astype(np.uint8)


def _warp_into_tile(px: np.ndarray, gt, z: int, x: int, y: int):
    """Bilinear samples of image ``px`` (h, w, 3) at the pixel centres
    of XYZ tile (z, x, y): (rgb float (256, 256, 3), valid (256, 256))."""
    size = _tile_size(z)
    res = size / TILE
    centre = (np.arange(TILE) + 0.5) * res
    sx = (-ORIGIN_SHIFT + x * size + centre - gt[0]) / gt[1]
    sy = (ORIGIN_SHIFT - y * size - centre - gt[3]) / gt[5]
    h, w = px.shape[:2]
    xa, xb, wxa, wxb, okx = _bilinear_axis(sx, w)
    ya, yb, wya, wyb, oky = _bilinear_axis(sy, h)
    src = px.astype(np.float64)
    rows = (src[ya] * wya[:, None, None] + src[yb] * wyb[:, None, None])
    out = rows[:, xa] * wxa[None, :, None] + rows[:, xb] * wxb[None, :, None]
    return out, oky[:, None] & okx[None, :]


def source_pixels(images: pa.Table) -> list[np.ndarray]:
    """Each image's pixels from the corpus pattern that generated it,
    not from decoding its bytes."""
    from gdal_ray.sources.images import render_pixels

    return [render_pixels(int(s[3:]))
            for s in images["image_id"].to_pylist()]


def pyramid_reference(images: pa.Table, zoom: int,
                      min_z: int) -> dict[int, dict[tuple, tuple]]:
    """{z: {(x, y): (rgba uint8 (256, 256, 4), n_src)}} for zoom..min_z.

    The base level warps each image (bilinear, pixel centres) into every
    tile its footprint touches; images composite in ascending image_id,
    a later valid pixel winning; alpha marks pixels any image covers; an
    all-blank tile is not produced.  Each overview level averages 2x2
    blocks of the level below over all four channels, missing children
    reading as zero."""
    boxes = footprint_boxes(images)
    gts = image_gts(images)
    order = np.argsort(np.array(images["image_id"].to_pylist()),
                       kind="stable")
    pixels = source_pixels(images)
    acc: dict[tuple, list] = {}
    for i in order:
        for xy in sorted(_tiles_touching(boxes[i], zoom)):
            rgb, valid = _warp_into_tile(pixels[i], gts[i], zoom, *xy)
            if not valid.any():
                continue
            t = acc.setdefault(xy, [np.zeros((TILE, TILE, 3), np.uint8),
                                    np.zeros((TILE, TILE), bool), 0])
            t[0][valid] = _to_byte(rgb)[valid]
            t[1] |= valid
            t[2] += 1
    level = {xy: (np.dstack([rgb, alpha.astype(np.uint8) * 255]), n)
             for xy, (rgb, alpha, n) in acc.items()}
    out = {zoom: level}
    for z in range(zoom - 1, min_z - 1, -1):
        parents: dict[tuple, list] = {}
        for (x, y), (rgba, n) in level.items():
            p = parents.setdefault((x >> 1, y >> 1), [
                np.zeros((2 * TILE, 2 * TILE, 4), np.uint8), 0])
            p[0][(y & 1) * TILE:(y & 1) * TILE + TILE,
                 (x & 1) * TILE:(x & 1) * TILE + TILE] = rgba
            p[1] += n
        level = {xy: (_to_byte(m.reshape(TILE, 2, TILE, 2, 4)
                               .astype(np.float64).mean(axis=(1, 3))), n)
                 for xy, (m, n) in parents.items()}
        out[z] = level
    return out


def _tiles_touching(box, z: int) -> set[tuple[int, int]]:
    size = _tile_size(z)
    x0, y0, x1, y1 = box
    c0 = int((x0 + ORIGIN_SHIFT) // size)
    c1 = int((x1 + ORIGIN_SHIFT) // size)
    r0 = int((ORIGIN_SHIFT - y1) // size)
    r1 = int((ORIGIN_SHIFT - y0) // size)
    return {(c, r) for c in range(c0, c1 + 1) for r in range(r0, r1 + 1)}


PRIMES = np.array([7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43], np.int64)


def band_checksum(band: np.ndarray) -> int:
    """GDAL's image checksum of one byte band: the sum over pixels in
    row-major order of value mod primes[k % 11], kept to 16 bits."""
    v = band.astype(np.int64).ravel()
    return int((v % PRIMES[np.arange(v.size) % 11]).sum() & 0xFFFF)


def png_pixels(buf: bytes) -> np.ndarray:
    """Decode an 8-bit RGB or RGBA, non-interlaced PNG to (h, w, bands)
    uint8, with zlib and the five scanline filters of the PNG spec."""
    if buf[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos, idat, head = 8, [], None
    while pos < len(buf):
        (n,) = struct.unpack_from(">I", buf, pos)
        kind = buf[pos + 4:pos + 8]
        body = buf[pos + 8:pos + 8 + n]
        if kind == b"IHDR":
            head = struct.unpack(">IIBBBBB", body)
        elif kind == b"IDAT":
            idat.append(body)
        elif kind == b"IEND":
            break
        pos += 12 + n
    w, h, depth, color, _, _, interlace = head
    if depth != 8 or color not in (2, 6) or interlace:
        raise ValueError(f"unsupported PNG: depth {depth}, colour {color}")
    bpp = 3 if color == 2 else 4
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    raw = raw.reshape(h, 1 + w * bpp)
    out = np.zeros((h, w * bpp), np.uint8)
    prev = np.zeros(w * bpp, np.uint8)
    for r in range(h):
        f, line = raw[r, 0], raw[r, 1:]
        if f == 0:
            cur = line.copy()
        elif f == 1:
            cur = np.cumsum(line.reshape(w, bpp), axis=0,
                            dtype=np.uint8).ravel()
        elif f == 2:
            cur = line + prev
        elif f in (3, 4):
            cur = np.zeros_like(line)
            for i in range(len(line)):
                a = int(cur[i - bpp]) if i >= bpp else 0
                b = int(prev[i])
                if f == 3:
                    pred = (a + b) // 2
                else:
                    c = int(prev[i - bpp]) if i >= bpp else 0
                    p = a + b - c
                    pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa_ <= pb and pa_ <= pc else (
                        b if pb <= pc else c)
                cur[i] = (int(line[i]) + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[r] = prev = cur
    return out.reshape(h, w, bpp)


def tile_differs(got: np.ndarray, want: np.ndarray) -> str | None:
    """Why a decoded RGBA tile is not the reference tile, or None."""
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    d = np.abs(got.astype(np.int16) - want.astype(np.int16))
    if d.max() > PIXEL_TOL:
        r, c, b = np.unravel_index(int(d.argmax()), d.shape)
        return (f"pixel ({r}, {c}) band {b}: {got[r, c, b]} vs "
                f"{want[r, c, b]}")
    return None


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------

def _read_rings(buf: bytes, off: int, le: str):
    (nr,) = struct.unpack_from(le + "I", buf, off)
    off += 4
    rings = []
    for _ in range(nr):
        (npt,) = struct.unpack_from(le + "I", buf, off)
        off += 4
        rings.append(np.frombuffer(buf, le + "f8", npt * 2, off)
                     .reshape(npt, 2))
        off += 16 * npt
    return rings, off


def polygon_parts(buf: bytes) -> list[list[np.ndarray]]:
    """2-D WKB Polygon / MultiPolygon → list of parts, each a list of
    closed rings (shell first)."""
    le = "<" if buf[0] == 1 else ">"
    (kind,) = struct.unpack_from(le + "I", buf, 1)
    if kind == 3:
        rings, _ = _read_rings(buf, 5, le)
        return [rings]
    if kind == 6:
        (n,) = struct.unpack_from(le + "I", buf, 5)
        off, parts = 9, []
        for _ in range(n):
            ple = "<" if buf[off] == 1 else ">"
            rings, off = _read_rings(buf, off + 5, ple)
            parts.append(rings)
        return parts
    raise ValueError(f"unexpected WKB type {kind}")


def _inside(px, py, rings) -> np.ndarray:
    """Even-odd rule over all rings of one part."""
    inside = np.zeros(len(px), bool)
    for r in rings:
        x0, y0 = r[:-1, 0], r[:-1, 1]
        x1, y1 = r[1:, 0], r[1:, 1]
        up = (y0[None, :] > py[:, None]) != (y1[None, :] > py[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x0 + (py[:, None] - y0) * (x1 - x0) / (y1 - y0)
        inside ^= (up & (px[:, None] < xc)).sum(axis=1) % 2 == 1
    return inside


def _orient(ax, ay, bx, by, cx, cy):
    return np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _edges_cross_box(rings, b) -> np.ndarray:
    """Any ring edge properly crossing any box side, per box."""
    segs = np.concatenate([np.hstack([r[:-1], r[1:]]) for r in rings])
    px0, py0, px1, py1 = (segs[None, :, k] for k in range(4))
    hit = np.zeros(len(b), bool)
    mnx, mny, mxx, mxy = (b[:, k:k + 1] for k in range(4))
    for qx0, qy0, qx1, qy1 in ((mnx, mny, mxx, mny), (mxx, mny, mxx, mxy),
                               (mxx, mxy, mnx, mxy), (mnx, mxy, mnx, mny)):
        d1 = _orient(px0, py0, px1, py1, qx0, qy0)
        d2 = _orient(px0, py0, px1, py1, qx1, qy1)
        d3 = _orient(qx0, qy0, qx1, qy1, px0, py0)
        d4 = _orient(qx0, qy0, qx1, qy1, px1, py1)
        hit |= ((d1 * d2 < 0) & (d3 * d4 < 0)).any(axis=1)
    return hit


def boxes_hit_part(b: np.ndarray, rings) -> np.ndarray:
    """Axis-aligned boxes (k, 4: minx, miny, maxx, maxy) intersecting
    one polygon part: a part vertex in the box, a box corner in the
    part, or crossing edges."""
    pts = np.concatenate(rings)
    hit = ((pts[None, :, 0] >= b[:, :1]) & (pts[None, :, 0] <= b[:, 2:3])
           & (pts[None, :, 1] >= b[:, 1:2]) & (pts[None, :, 1] <= b[:, 3:4])
           ).any(axis=1)
    for cx, cy in ((0, 1), (2, 1), (0, 3), (2, 3)):
        todo = ~hit
        if todo.any():
            hit[todo] |= _inside(b[todo, cx], b[todo, cy], rings)
    todo = ~hit
    if todo.any():
        hit[todo] |= _edges_cross_box(rings, b[todo])
    return hit


def image_gts(footprints: pa.Table) -> np.ndarray:
    """(n, 6) geotransforms from the corpus placement formula."""
    from gdal_ray.sources.geo import image_geotransform

    idx = np.array([int(s[3:]) for s in footprints["image_id"].to_pylist()])
    return image_geotransform(idx, footprints["w"].to_numpy(),
                              footprints["h"].to_numpy())


def footprint_boxes(footprints: pa.Table) -> np.ndarray:
    """(n, 4) footprint envelopes (minx, miny, maxx, maxy)."""
    gt = image_gts(footprints)
    w = footprints["w"].to_numpy().astype(np.int64)
    h = footprints["h"].to_numpy().astype(np.int64)
    return np.column_stack([gt[:, 0], gt[:, 3] + h * gt[:, 5],
                            gt[:, 0] + w * gt[:, 1], gt[:, 3]])


def join_reference(footprints: pa.Table, polygons: pa.Table) -> pd.DataFrame:
    """Every (image_id, fid, name, category) whose footprint intersects
    the polygon, sorted by (image_id, fid)."""
    boxes = footprint_boxes(footprints)
    ids = np.array(footprints["image_id"].to_pylist(), dtype=object)
    rows = []
    for fid, buf, name, cat in zip(polygons["fid"].to_pylist(),
                                   polygons["wkb"].to_pylist(),
                                   polygons["name"].to_pylist(),
                                   polygons["category"].to_pylist()):
        parts = polygon_parts(buf)
        pts = np.concatenate([np.concatenate(p) for p in parts])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        cand = np.flatnonzero((boxes[:, 0] <= hi[0]) & (boxes[:, 2] >= lo[0])
                              & (boxes[:, 1] <= hi[1])
                              & (boxes[:, 3] >= lo[1]))
        if not len(cand):
            continue
        hit = np.zeros(len(cand), bool)
        for rings in parts:
            hit |= boxes_hit_part(boxes[cand], rings)
        rows.extend((i, fid, name, cat) for i in ids[cand[hit]])
    df = pd.DataFrame(rows, columns=["image_id", "fid", "name", "category"])
    return df.sort_values(["image_id", "fid"], ignore_index=True)


# ---------------------------------------------------------------------------
# sql
# ---------------------------------------------------------------------------

def sql_reference(statements: dict[str, str],
                  paths: dict[str, str]) -> dict[str, pd.DataFrame]:
    """Run each statement string in DuckDB over the parquet files."""
    import duckdb

    con = duckdb.connect()
    try:
        for name, path in paths.items():
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                        f"read_parquet('{path}')")
        return {k: con.execute(s).df() for k, s in statements.items()}
    finally:
        con.close()


def frames_differ(got: pd.DataFrame, want: pd.DataFrame,
                  abs_tol: float = 0.0) -> str | None:
    """First difference between two ordered result frames, or None.
    Numbers match within ``abs_tol``; everything else matches exactly."""
    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} != {list(want.columns)}"
    if len(got) != len(want):
        return f"{len(got)} rows != {len(want)}"
    for c in want.columns:
        a, b = got[c].to_numpy(), want[c].to_numpy()
        if b.dtype.kind in "fiu" and a.dtype.kind in "fiu":
            a, b = a.astype(np.float64), b.astype(np.float64)
            bad = ~(np.abs(a - b) <= abs_tol)
        else:
            bad = np.array([x != y for x, y in zip(a.tolist(), b.tolist())],
                           dtype=bool)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return f"column {c} row {i}: {a[i]!r} != {b[i]!r}"
    return None
