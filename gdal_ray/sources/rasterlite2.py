"""RasterLite2 (.rl2 / SpatiaLite raster coverage) reader.

Independent implementation of the librasterlite2 storage layout (the
reference wraps the library, ogr/ogrsf_frmts/sqlite/rasterlite2.cpp):
a SQLite DB with ``raster_coverages`` plus per-coverage ``_sections``
/ ``_levels`` / ``_tiles`` / ``_tile_data`` tables.  Each tile is a
pair of blobs:

* odd block — 0x00 0xfa, endian, compression code, sample type
  (0xa1 1-bit … 0xab double), pixel type (0x11 monochrome, 0x12
  palette, 0x13 grayscale, 0x14 rgb, 0x16 datagrid), u8 band count,
  u16 width/height/row-stride/odd-row-count, u32 odd uncompressed /
  odd compressed / mask uncompressed / mask compressed sizes, 0xc8,
  payload (then the transparency mask, which this reader skips).
* even block — same magic with 0xdb, a crc32, u32 even sizes at
  +17/+21, payload at +26.

DEFLATE payloads are zlib streams of the horizontally-differenced
bytes (TIFF-predictor-style, lag = bytes-per-pixel, little-endian
samples); the odd block holds rows 0,2,4…, the even block rows
1,3,5… (lossy JPEG/WEBP tiles keep every row in the odd block).
Sub-byte samples are packed MSB-first.  Coverage ``palette`` blobs
carry u16 entry count at +3 and RGB triplets at +6; ``nodata_pixel``
blobs carry the per-band sample values at +8.

Pyramid: physical levels come from ``_levels`` rows > 0 with their
own tiles; the 1:2/1:4/1:8 sub-resolutions of each level are nearest
decimations (autotest rl2.py: byte overview checksum 1087 = base
[::2, ::2]).
"""

from __future__ import annotations

import sqlite3
import struct
import zlib

import numpy as np

from ..codecs._bits import unpack_rows

__all__ = ["list_rl2_coverages", "read_rl2"]

_SAMPLE = {0xa1: ("u1", 1), 0xa2: ("u1", 2), 0xa3: ("u1", 4),
           0xa4: ("i1", 8), 0xa5: ("u1", 8), 0xa6: ("i2", 16),
           0xa7: ("u2", 16), 0xa8: ("i4", 32), 0xa9: ("u4", 32),
           0xaa: ("f4", 32), 0xab: ("f8", 64)}

_PIXEL = {0x11: "MONOCHROME", 0x12: "PALETTE", 0x13: "GRAYSCALE",
          0x14: "RGB", 0x15: "MULTIBAND", 0x16: "DATAGRID"}


def _undelta(arr8: np.ndarray, lag: int) -> np.ndarray:
    """Inverse horizontal byte differencing with the given lag."""
    if lag == 1:
        return np.cumsum(arr8, axis=1, dtype=np.uint64).astype(np.uint8)
    out = arr8.astype(np.int64)
    for i in range(lag, out.shape[1]):
        out[:, i] = (out[:, i] + out[:, i - lag]) & 0xFF
    return out.astype(np.uint8)


def _decode_payload(comp: int, data: bytes,
                    scale: int = 1) -> bytes | np.ndarray:
    if data[:2] == b"\x78\x9c" or data[:1] == b"\x78":
        return zlib.decompress(data)
    if data[:2] == b"\xff\xd8":                  # JPEG
        from ..codecs import jpeg
        return jpeg.decode(data, scale=scale)
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        from ..codecs import png
        return png.decode(data)
    if data[:4] == b"RIFF":
        from ..codecs.webp import decode_webp
        return decode_webp(data)
    if comp == 0x21 or comp == 0x20:             # NONE
        return data
    return zlib.decompress(data)                 # default: deflate


def decode_rl2_tile(odd: bytes, even: bytes | None, scale: int = 1):
    """→ (pixels (h, w[, bands]), meta dict).  ``scale`` ∈ {1,2,4,8}
    decodes lossy tiles through libjpeg's reduced-IDCT path (the
    librasterlite2 pyramid sub-resolutions) and decimates lossless
    tiles (the transparency mask is parsed past, not applied)."""
    if odd[0] != 0 or odd[1] != 0xFA:
        raise ValueError("not an RL2 odd tile block")
    comp, sample, pixel = odd[3], odd[4], odd[5]
    nbands = odd[6]
    w, h = struct.unpack_from("<HH", odd, 7)
    stride, orows = struct.unpack_from("<HH", odd, 11)
    ou, oc, _mu, _mc = struct.unpack_from("<IIII", odd, 15)
    if sample not in _SAMPLE:
        raise NotImplementedError(f"RL2 sample type 0x{sample:02x}")
    dt, bits = _SAMPLE[sample]
    bps = np.dtype(dt).itemsize

    od = _decode_payload(comp, odd[32:32 + oc], scale)
    if isinstance(od, np.ndarray):               # self-describing image
        px = od
        if px.ndim == 3 and px.shape[2] == 1:
            px = px[:, :, 0]
        sw, sh = -(-w // scale), -(-h // scale)
        return px[:sh, :sw], {"pixel": _PIXEL.get(pixel),
                              "bands": nbands}

    rows8 = [np.frombuffer(od, np.uint8).reshape(orows, stride)]
    if even is not None and orows < h:
        eu, ec = struct.unpack_from("<II", even, 17)
        ed = _decode_payload(comp, even[26:26 + ec])
        rows8.append(np.frombuffer(ed, np.uint8).reshape(h - orows,
                                                         stride))
    full8 = np.empty((h, stride), np.uint8)
    if len(rows8) == 2:
        full8[0::2] = rows8[0]
        full8[1::2] = rows8[1]
    else:
        full8[:orows] = rows8[0]
        if orows < h:
            full8[orows:] = 0

    if bits < 8:
        px = unpack_rows(full8, bits, w)
        if pixel == 0x11:                 # MONOCHROME: 0=white, 1=black
            px = np.where(px == 0, 255, 0).astype(np.uint8)
        elif pixel == 0x13 and bits in (1, 2, 4):
            px = (px * (255 // ((1 << bits) - 1))).astype(np.uint8)
    else:
        full8 = _undelta(full8, bps * nbands)
        px = full8.view("<" + dt)
        px = px.reshape(h, w, nbands) if nbands > 1 else \
            px.reshape(h, w)
    if scale > 1:
        px = px[::scale, ::scale]
    return px, {"pixel": _PIXEL.get(pixel), "bands": nbands}


def _mbr(blob: bytes):
    """SpatiaLite geometry blob → (minx, miny, maxx, maxy)."""
    return struct.unpack_from("<4d", blob, 6)


def _palette(blob: bytes):
    if not blob or len(blob) < 9:
        return None
    n, = struct.unpack_from("<H", blob, 3)
    out = []
    p = 6
    for _ in range(n):
        out.append((blob[p], blob[p + 1], blob[p + 2], 255))
        p += 3
    return out


def _nodata(blob: bytes, dt: str, nbands: int):
    if not blob or len(blob) < 9:
        return None
    try:
        v = np.frombuffer(blob, "<" + dt, count=1, offset=8)[0]
        return float(v)
    except ValueError:
        return None


def list_rl2_coverages(path: str) -> list[str]:
    db = sqlite3.connect(path)
    try:
        # rowid order = registration order (a bare name SELECT would
        # walk the coverage_name index alphabetically instead)
        return [r[0] for r in db.execute(
            "SELECT coverage_name FROM raster_coverages ORDER BY rowid")]
    finally:
        db.close()


def read_rl2(path: str, coverage: str | None = None,
             section: str | None = None, level: int = 0,
             scale: int = 1):
    """→ (pixels, geotransform, nodata, meta).  ``level`` selects a
    physical pyramid level, ``scale`` ∈ {1,2,4,8} a nearest-decimated
    sub-resolution of it; ``section`` restricts the mosaic to one
    section (the driver's RASTERLITE2:db:coverage:id:section
    subdatasets)."""
    db = sqlite3.connect(path)
    try:
        cov = None
        if coverage is None:
            coverage = list_rl2_coverages(path)[0]
        cov = db.execute(
            "SELECT sample_type, pixel_type, num_bands, compression, "
            "tile_width, tile_height, horz_resolution, vert_resolution,"
            " srid, nodata_pixel, palette, extent_minx, extent_miny, "
            "extent_maxx, extent_maxy FROM raster_coverages WHERE "
            "coverage_name=?", (coverage,)).fetchone()
        if cov is None:
            raise KeyError(f"RL2 coverage {coverage!r} absent")
        (s_type, p_type, nbands, comp_name, tw, th, xres, yres, srid,
         nd_blob, pal_blob, minx, miny, maxx, maxy) = cov

        lv = db.execute(
            f'SELECT x_resolution_1_1, y_resolution_1_1 FROM '
            f'"{coverage}_levels" WHERE pyramid_level=?',
            (level,)).fetchone()
        if lv is None:
            raise KeyError(f"RL2 pyramid level {level} absent")
        xres, yres = lv

        sec_filter = ""
        args: list = [level]
        if section is not None:
            sid = db.execute(
                f'SELECT section_id FROM "{coverage}_sections" WHERE '
                f'section_name=?', (section,)).fetchone()
            if sid is None:
                raise KeyError(f"RL2 section {section!r} absent")
            sec_filter = " AND t.section_id=?"
            args.append(sid[0])
            g = db.execute(
                f'SELECT geometry FROM "{coverage}_sections" WHERE '
                f'section_id=?', (sid[0],)).fetchone()[0]
            minx, miny, maxx, maxy = _mbr(g)

        if scale not in (1, 2, 4, 8):
            raise ValueError("RL2 scale must be 1, 2, 4 or 8")
        xres *= scale
        yres *= scale
        w = int(0.5 + (maxx - minx) / xres)
        h = int(0.5 + (maxy - miny) / yres)

        dt = None
        px = None
        nodata = None
        rows = db.execute(
            f'SELECT t.geometry, d.tile_data_odd, d.tile_data_even '
            f'FROM "{coverage}_tiles" t JOIN "{coverage}_tile_data" d '
            f'ON t.tile_id = d.tile_id WHERE t.pyramid_level=?'
            + sec_filter, args).fetchall()
        for geom, oddb, evenb in rows:
            tile, tmeta = decode_rl2_tile(oddb, evenb, scale)
            if px is None:
                dt = tile.dtype
                shape = (h, w) if tile.ndim == 2 else (h, w,
                                                       tile.shape[2])
                nodata = _nodata(nd_blob, _SAMPLE.get(
                    oddb[4], ("u1",))[0], nbands)
                px = np.full(shape, 0 if nodata is None else nodata,
                             dt)
            tminx, tminy, tmaxx, tmaxy = _mbr(geom)
            x0 = int(round((tminx - minx) / xres))
            y0 = int(round((maxy - tmaxy) / yres))
            t_h, t_w = tile.shape[:2]
            cx1 = min(x0 + t_w, w)
            cy1 = min(y0 + t_h, h)
            if x0 >= w or y0 >= h or cx1 <= max(x0, 0) or \
                    cy1 <= max(y0, 0):
                continue
            sx0, sy0 = max(-x0, 0), max(-y0, 0)
            px[max(y0, 0):cy1, max(x0, 0):cx1] = \
                tile[sy0:sy0 + (cy1 - max(y0, 0)),
                     sx0:sx0 + (cx1 - max(x0, 0))]
        if px is None:
            raise ValueError("RL2 coverage has no tiles at this level")

        gt = (minx, xres, 0.0, maxy, 0.0, -yres)
        meta = {"driver": "RasterLite2", "coverage": coverage,
                "pixel_type": p_type, "crs": f"EPSG:{srid}",
                "coverages": list_rl2_coverages(path)}
        pal = _palette(pal_blob)
        if pal:
            meta["palette"] = pal
        nlv = db.execute(
            f'SELECT COUNT(*) FROM "{coverage}_levels" WHERE '
            f'pyramid_level > 0').fetchone()[0]
        meta["overview_levels"] = nlv
        return px, gt, nodata, meta
    finally:
        db.close()


# ---------------------------------------------------------------------------
# writer (CreateCopy symmetry: rl2_6..rl2_11 — DEFLATE coverages)
# ---------------------------------------------------------------------------

_SAMPLE_CODES = {"u1": (0xa5, "UINT8"), "i1": (0xa4, "INT8"),
                 "u2": (0xa7, "UINT16"), "i2": (0xa6, "INT16"),
                 "u4": (0xa9, "UINT32"), "i4": (0xa8, "INT32"),
                 "f4": (0xaa, "FLOAT"), "f8": (0xab, "DOUBLE")}


def _delta(arr8: np.ndarray, lag: int) -> np.ndarray:
    out = arr8.astype(np.int64)
    if lag == 1:
        out[:, 1:] -= out[:, :-1].copy()
    else:
        out[:, lag:] = out[:, lag:] - arr8[:, :-lag].astype(np.int64)
    return (out & 0xFF).astype(np.uint8)


def _encode_tile(px: np.ndarray) -> tuple[bytes, bytes]:
    """(h, w[, bands]) → (odd blob, even blob): the DEFLATE layout
    the reader documents (odd/even row split, lag-bps byte delta)."""
    h, w = px.shape[:2]
    nbands = px.shape[2] if px.ndim == 3 else 1
    dt = px.dtype.newbyteorder("<")
    key = dt.char.replace("B", "u").lower()
    key = {"b": "i1", "h": "i2", "d": "f8", "f": "f4",
           "i": "i4", "l": "i8"}.get(dt.char, None) or None
    code = None
    for k, (c, _n) in _SAMPLE_CODES.items():
        if np.dtype(k) == px.dtype:
            code = c
            break
    if code is None:
        raise NotImplementedError(f"RL2 write: dtype {px.dtype}")
    pixel = 0x14 if nbands == 3 else (0x16 if px.dtype != np.uint8
                                      else 0x13)
    bps = px.dtype.itemsize
    stride = w * bps * nbands
    flat = np.ascontiguousarray(px.astype(dt)).view(np.uint8) \
        .reshape(h, stride)
    lag = bps * nbands
    orows = (h + 1) // 2
    odd_rows = _delta(flat[0::2], lag)
    even_rows = _delta(flat[1::2], lag)
    oz = zlib.compress(odd_rows.tobytes(), 9)
    ez = zlib.compress(even_rows.tobytes(), 9)

    odd = bytearray()
    odd += bytes([0, 0xFA, 1, 0x22, code, pixel, nbands])
    odd += struct.pack("<HHHH", w, h, stride, orows)
    odd += struct.pack("<IIII", odd_rows.size, len(oz), 0, 0)
    odd += b"\xc8" + oz
    even = bytearray()
    even += bytes([0, 0xDB, 1, 0x22, code, pixel, nbands])
    even += struct.pack("<HH", w, h)
    even += bytes([1, 0])
    even += struct.pack("<I", zlib.crc32(ez))
    even += struct.pack("<II", even_rows.size, len(ez))
    even += b"\xc8" + ez
    return bytes(odd), bytes(even)


def _spatialite_poly(minx, miny, maxx, maxy, srid) -> bytes:
    """Minimal SpatiaLite polygon blob (the reader's _mbr contract:
    MBR doubles at offset 6)."""
    out = bytearray()
    out += b"\x00\x01" + struct.pack("<i", srid)
    out += struct.pack("<4d", minx, miny, maxx, maxy)
    out += b"\x7c" + struct.pack("<i", 3)        # polygon
    out += struct.pack("<i", 1)                  # 1 ring
    out += struct.pack("<i", 5)
    for x, y in ((minx, miny), (minx, maxy), (maxx, maxy),
                 (maxx, miny), (minx, miny)):
        out += struct.pack("<2d", x, y)
    out += b"\xfe"
    return bytes(out)


def write_rl2(px: np.ndarray, path: str, *, coverage: str = "coverage",
              geotransform=(0, 1, 0, 0, 0, -1), srid: int = 4326,
              tile: int = 512) -> None:
    """(h, w[, bands]) → single-section DEFLATE RasterLite2 DB
    (level 0 only; masks omitted — all pixels valid)."""
    import os
    if os.path.exists(path):
        os.remove(path)
    h, w = px.shape[:2]
    nbands = px.shape[2] if px.ndim == 3 else 1
    code = None
    stype = None
    for k, (c, n) in _SAMPLE_CODES.items():
        if np.dtype(k) == px.dtype:
            code, stype = c, n
            break
    if code is None:
        raise NotImplementedError(f"RL2 write: dtype {px.dtype}")
    ptype = "RGB" if nbands == 3 else (
        "GRAYSCALE" if px.dtype == np.uint8 else "DATAGRID")
    gt = geotransform
    minx, maxy = gt[0], gt[3]
    maxx = minx + w * gt[1]
    miny = maxy + h * gt[5]
    xres, yres = gt[1], -gt[5]

    db = sqlite3.connect(path)
    try:
        db.execute("PRAGMA application_id = 0x47504B47")
        db.execute("""CREATE TABLE raster_coverages (
            coverage_name TEXT, title TEXT, abstract TEXT,
            sample_type TEXT, pixel_type TEXT, num_bands INTEGER,
            compression TEXT, quality INTEGER, tile_width INTEGER,
            tile_height INTEGER, horz_resolution DOUBLE,
            vert_resolution DOUBLE, srid INTEGER, nodata_pixel BLOB,
            palette BLOB, statistics BLOB, geo_minx DOUBLE,
            geo_miny DOUBLE, geo_maxx DOUBLE, geo_maxy DOUBLE,
            extent_minx DOUBLE, extent_miny DOUBLE,
            extent_maxx DOUBLE, extent_maxy DOUBLE,
            strict_resolution INTEGER, mixed_resolutions INTEGER,
            section_paths INTEGER, section_md5 INTEGER,
            section_summary INTEGER, is_queryable INTEGER,
            red_band_index INTEGER, green_band_index INTEGER,
            blue_band_index INTEGER, nir_band_index INTEGER,
            enable_auto_ndvi INTEGER)""")
        db.execute(
            "INSERT INTO raster_coverages (coverage_name, sample_type,"
            " pixel_type, num_bands, compression, quality, tile_width,"
            " tile_height, horz_resolution, vert_resolution, srid,"
            " extent_minx, extent_miny, extent_maxx, extent_maxy)"
            " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (coverage, stype, ptype, nbands, "DEFLATE", 100, tile,
             tile, xres, yres, srid, minx, miny, maxx, maxy))
        db.execute(f'''CREATE TABLE "{coverage}_levels" (
            pyramid_level INTEGER, x_resolution_1_1 DOUBLE,
            y_resolution_1_1 DOUBLE, x_resolution_1_2 DOUBLE,
            y_resolution_1_2 DOUBLE, x_resolution_1_4 DOUBLE,
            y_resolution_1_4 DOUBLE, x_resolution_1_8 DOUBLE,
            y_resolution_1_8 DOUBLE)''')
        db.execute(f'INSERT INTO "{coverage}_levels" VALUES '
                   f'(0,?,?,?,?,?,?,?,?)',
                   (xres, yres, xres * 2, yres * 2, xres * 4,
                    yres * 4, xres * 8, yres * 8))
        db.execute(f'''CREATE TABLE "{coverage}_sections" (
            section_id INTEGER PRIMARY KEY, section_name TEXT,
            width INTEGER, height INTEGER, file_path TEXT,
            md5_checksum TEXT, summary TEXT, statistics BLOB,
            geometry BLOB)''')
        db.execute(f'INSERT INTO "{coverage}_sections" (section_id, '
                   f'section_name, width, height, geometry) VALUES '
                   f'(1,?,?,?,?)',
                   (coverage, w, h,
                    _spatialite_poly(minx, miny, maxx, maxy, srid)))
        db.execute(f'''CREATE TABLE "{coverage}_tiles" (
            tile_id INTEGER PRIMARY KEY, pyramid_level INTEGER,
            section_id INTEGER, geometry BLOB)''')
        db.execute(f'''CREATE TABLE "{coverage}_tile_data" (
            tile_id INTEGER PRIMARY KEY, tile_data_odd BLOB,
            tile_data_even BLOB)''')
        tid = 1
        for y0 in range(0, h, tile):
            for x0 in range(0, w, tile):
                sub = px[y0:y0 + tile, x0:x0 + tile]
                th, tw = sub.shape[:2]
                if (th, tw) != (tile, tile):     # pad to full tile
                    pad = [(0, tile - th), (0, tile - tw)] + \
                        ([(0, 0)] if sub.ndim == 3 else [])
                    sub = np.pad(sub, pad)
                odd, even = _encode_tile(sub)
                tminx = minx + x0 * xres
                tmaxy = maxy - y0 * yres
                g = _spatialite_poly(tminx, tmaxy - tile * yres,
                                     tminx + tile * xres, tmaxy, srid)
                db.execute(f'INSERT INTO "{coverage}_tiles" VALUES '
                           f'(?,0,1,?)', (tid, g))
                db.execute(f'INSERT INTO "{coverage}_tile_data" '
                           f'VALUES (?,?,?)', (tid, odd, even))
                tid += 1
        db.commit()
    finally:
        db.close()
