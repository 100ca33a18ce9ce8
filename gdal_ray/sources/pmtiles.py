"""PMTiles v3 single-file tile archives (public spec,
github.com/protomaps/PMTiles/blob/main/spec/v3) — read side.

Reference driver: ogr/ogrsf_frmts/pmtiles/. Layout: 127-byte header
("PMTiles" + version 3, little-endian u64 section offsets/lengths,
compression/type bytes, e7-scaled bounds), gzip- or raw-compressed
varint directories (tile-id deltas, run lengths, lengths, offsets),
Hilbert-curve tile ids per zoom, MVT tile payloads.

``read_pmtiles_table(path, zoom)`` decodes every tile at one zoom
level into the repo's vector schema via sources/mvt.py;
``read_pmtiles`` wraps it as a Ray Dataset with one decode task per
tile. Goldens in tests/test_mvt.py from autotest/ogr/ogr_pmtiles.py
(poly.pmtiles: 8 features at maxzoom 5, 1 at zoom 0, metadata
minzoom/maxzoom/format, attribute AREA/EAS_ID/PRFEDEA values).
"""

from __future__ import annotations

import gzip
import json
import struct

import pyarrow as pa

from .mvt import decode_mvt

__all__ = ["read_pmtiles_header", "pmtiles_tiles", "read_pmtiles_table",
           "read_pmtiles", "read_pmtiles_metadata", "tileid_to_zxy",
           "zxy_to_tileid"]


def read_pmtiles_header(buf: bytes) -> dict:
    if buf[:7] != b"PMTiles" or buf[7] != 3:
        raise ValueError("not a PMTiles v3 archive")
    f = struct.unpack_from("<8q", buf, 8)
    (root_off, root_len, meta_off, meta_len, leaf_off, leaf_len,
     data_off, data_len) = f
    (n_addressed, n_entries, n_contents) = struct.unpack_from(
        "<3q", buf, 72)
    clustered, int_comp, tile_comp, tile_type = buf[96:100]
    min_zoom, max_zoom = buf[100], buf[101]
    min_lon, min_lat, max_lon, max_lat = struct.unpack_from(
        "<4i", buf, 102)
    return {
        "root_off": root_off, "root_len": root_len,
        "meta_off": meta_off, "meta_len": meta_len,
        "leaf_off": leaf_off, "leaf_len": leaf_len,
        "data_off": data_off, "data_len": data_len,
        "n_addressed": n_addressed, "n_entries": n_entries,
        "clustered": bool(clustered),
        "internal_compression": int_comp,
        "tile_compression": tile_comp, "tile_type": tile_type,
        "min_zoom": min_zoom, "max_zoom": max_zoom,
        "bounds": (min_lon / 1e7, min_lat / 1e7,
                   max_lon / 1e7, max_lat / 1e7),
    }


def _decompress(data: bytes, comp: int) -> bytes:
    if comp in (0, 1):  # unknown/none
        return data
    if comp == 2:
        return gzip.decompress(data)
    raise ValueError(f"PMTiles compression {comp} not supported "
                     "(brotli/zstd absent in this environment)")


def _read_varint(buf: bytes, off: int):
    v = 0
    shift = 0
    while True:
        b = buf[off]
        off += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, off
        shift += 7


def _parse_directory(data: bytes) -> list[tuple[int, int, int, int]]:
    """-> [(tile_id, offset, length, run_length)] sorted by tile_id."""
    n, off = _read_varint(data, 0)
    ids = []
    last = 0
    for _ in range(n):
        d, off = _read_varint(data, off)
        last += d
        ids.append(last)
    runs = []
    for _ in range(n):
        r, off = _read_varint(data, off)
        runs.append(r)
    lens = []
    for _ in range(n):
        ln, off = _read_varint(data, off)
        lens.append(ln)
    offs = []
    for i in range(n):
        o, off = _read_varint(data, off)
        if o == 0 and i > 0:
            offs.append(offs[-1] + lens[i - 1])
        else:
            offs.append(o - 1)
    return [(ids[i], offs[i], lens[i], runs[i]) for i in range(n)]


# ----------------------------------------------------- hilbert tileid
def _rotate(n, x, y, rx, ry):
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


def zxy_to_tileid(z: int, x: int, y: int) -> int:
    acc = sum(1 << (2 * i) for i in range(z))
    n = 1 << z
    rx = ry = 0
    d = 0
    s = n >> 1
    while s > 0:
        rx = 1 if (x & s) else 0
        ry = 1 if (y & s) else 0
        d += s * s * ((3 * rx) ^ ry)
        x, y = _rotate(s, x, y, rx, ry)
        s >>= 1
    return acc + d


def tileid_to_zxy(tid: int) -> tuple[int, int, int]:
    z = 0
    acc = 0
    while True:
        num = 1 << (2 * z)
        if acc + num > tid:
            break
        acc += num
        z += 1
    d = tid - acc
    n = 1 << z
    x = y = 0
    s = 1
    while s < n:
        rx = 1 & (d // 2)
        ry = 1 & (d ^ rx)
        x, y = _rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        d //= 4
        s <<= 1
    return z, x, y


def _runs(buf: bytes, h: dict, zoom: int | None):
    """Yield each tile-data run as (lo, hi, payload): its tile-id span
    [lo, hi), intersected with ``zoom``'s id range when a zoom is given,
    and its still-compressed tile bytes. Walks the root directory,
    descending into leaf directories; empty spans are skipped."""
    if zoom is not None:
        zlo = sum(1 << (2 * i) for i in range(zoom))
        zhi = zlo + (1 << (2 * zoom))

    def walk(entries):
        for tid, off, ln, run in entries:
            if run == 0:  # leaf directory pointer
                leaf = _decompress(
                    buf[h["leaf_off"] + off:h["leaf_off"] + off + ln],
                    h["internal_compression"])
                yield from walk(_parse_directory(leaf))
                continue
            lo, hi = tid, tid + run
            if zoom is not None:
                lo, hi = max(lo, zlo), min(hi, zhi)
            if hi > lo:
                yield lo, hi, buf[h["data_off"] + off:
                                  h["data_off"] + off + ln]

    root = _decompress(buf[h["root_off"]:h["root_off"] + h["root_len"]],
                       h["internal_compression"])
    yield from walk(_parse_directory(root))


def _expand(runs, tile_comp: int):
    """(z, x, y, tile bytes) of every tile id of every run, lazily; a
    run's payload is decompressed once and shared by all its tiles."""
    for lo, hi, data in runs:
        dec = _decompress(data, tile_comp)
        for k in range(lo, hi):
            z, x, y = tileid_to_zxy(k)
            yield z, x, y, dec


# Memory backstop of the readers that keep every tile of a zoom.
_MAX_TILES = 1 << 22


def pmtiles_tiles(path: str, zoom: int | None = None, *,
                  max_tiles: int | None = None):
    """Iterate the archive's tiles as (z, x, y, raw_tile_bytes), lazily,
    optionally only those at ``zoom``. A run-length entry can legally
    span billions of tile ids (run_length_max.pmtiles: 2^32); its tiles
    are produced one at a time and share the run's one payload.

    The header is checked before the iterator is returned. With
    ``max_tiles``, more tiles than that raise a ValueError before any
    run is expanded: the readers that keep every tile they read pass
    ``_MAX_TILES``."""
    with open(path, "rb") as f:
        buf = f.read()
    h = read_pmtiles_header(buf)
    runs = _runs(buf, h, zoom)
    if max_tiles is not None:
        runs = list(runs)
        n = sum(hi - lo for lo, hi, _ in runs)
        if n > max_tiles:
            raise ValueError(f"pmtiles: {n} tiles exceed the expansion "
                             f"cap of {max_tiles}")
    return _expand(runs, h["tile_compression"])


def read_pmtiles_metadata(path: str) -> dict:
    buf = open(path, "rb").read()
    h = read_pmtiles_header(buf)
    if not h["meta_len"]:
        return {}
    raw = _decompress(buf[h["meta_off"]:h["meta_off"] + h["meta_len"]],
                      h["internal_compression"])
    return json.loads(raw)


def read_pmtiles_table(path: str, zoom: int | None = None) -> pa.Table:
    """All MVT tiles at one zoom (default: the archive's maxzoom) ->
    one Arrow table with layer/tile columns."""
    buf = open(path, "rb").read()
    h = read_pmtiles_header(buf)
    if zoom is None:
        zoom = h["max_zoom"]
    if not h["min_zoom"] <= zoom <= h["max_zoom"]:
        raise ValueError(f"Invalid zoom level {zoom}")
    parts = []
    for z, x, y, data in pmtiles_tiles(path, zoom, max_tiles=_MAX_TILES):
        layers = decode_mvt(data, z, x, y)
        for name, t in layers.items():
            t = t.append_column("layer",
                                pa.array([name] * len(t), pa.string()))
            for col, val in (("tile_z", z), ("tile_x", x), ("tile_y", y)):
                t = t.append_column(col, pa.array([val] * len(t),
                                                  pa.int32()))
            parts.append(t)
    if not parts:
        return pa.table({"fid": pa.array([], pa.int64())})
    from .mvt import _concat_promote
    return _concat_promote(parts)


def read_pmtiles(path: str, zoom: int | None = None):
    """PMTiles archive -> ray.data.Dataset, one decode task per tile
    (the directory walk is cheap; tile decode is the parallel part)."""
    import ray.data as rd
    buf_header = open(path, "rb").read(16384)
    h = read_pmtiles_header(buf_header)
    if zoom is None:
        zoom = h["max_zoom"]
    tiles = [(z, x, y) for z, x, y, _ in
             pmtiles_tiles(path, zoom, max_tiles=_MAX_TILES)]

    def _load(batch):
        outs = []
        want = {(int(z), int(x), int(y))
                for z, x, y in zip(batch["z"].to_pylist(),
                                   batch["x"].to_pylist(),
                                   batch["y"].to_pylist())}
        for z, x, y, data in pmtiles_tiles(path, zoom, max_tiles=_MAX_TILES):
            if (z, x, y) not in want:
                continue
            for name, t in decode_mvt(data, z, x, y).items():
                outs.append(t.append_column(
                    "layer", pa.array([name] * len(t), pa.string())))
        if not outs:
            return pa.table({"fid": pa.array([], pa.int64())})
        from .mvt import _concat_promote
        return _concat_promote(outs)

    return rd.from_items(
        [{"z": z, "x": x, "y": y} for z, x, y in tiles]).map_batches(
        _load, batch_format="pyarrow")


# ----------------------------------------------------- raster tiles
def read_pmtiles_raster(path: str, zoom: int | None = None):
    """Raster PMTiles (tile_type 2=PNG, 3=JPEG, 4=WEBP, 5=AVIF):
    decode every tile at one zoom (default maxzoom) through the codec
    sniffers and mosaic into the pixel window covering the header
    bounds, WebMercator georeferencing (the reference's raster
    PMTiles driver shape). → (pixels, geotransform, nodata, meta)."""
    import math

    import numpy as np

    from ..codecs import decode as _decode

    buf = open(path, "rb").read()
    h = read_pmtiles_header(buf)
    if h["tile_type"] not in (2, 3, 4, 5):
        raise ValueError("not a raster PMTiles archive "
                         f"(tile_type {h['tile_type']})")
    if zoom is None:
        zoom = h["max_zoom"]
    R = 6378137.0
    res = 2 * math.pi * R / 256.0 / (1 << zoom)
    ox, oy = -math.pi * R, math.pi * R

    def merc(lon, lat):
        return (R * math.radians(lon),
                R * math.log(math.tan(math.pi / 4
                                      + math.radians(lat) / 2)))

    minx, miny = merc(h["bounds"][0], h["bounds"][1])
    maxx, maxy = merc(h["bounds"][2], h["bounds"][3])
    px0 = int(math.floor((minx - ox) / res + 0.001))
    py0 = int(math.floor((oy - maxy) / res + 0.001))
    px1 = int(math.ceil((maxx - ox) / res - 0.001))
    py1 = int(math.ceil((oy - miny) / res - 0.001))
    w, hgt = px1 - px0, py1 - py0
    if w <= 0 or hgt <= 0 or w * hgt > (1 << 30):
        raise ValueError("pmtiles: bad raster window")

    tiles = pmtiles_tiles(path, zoom, max_tiles=_MAX_TILES)
    nb = 0
    out = None
    for z, x, y, data in tiles:
        if z != zoom or not data:
            continue
        px = _decode(data)
        if px.ndim == 2:
            px = px[:, :, None]
        if out is None:
            nb = px.shape[2]
            out = np.zeros((hgt, w, nb), px.dtype)
        tx0 = x * 256 - px0
        ty0 = y * 256 - py0
        sx0 = max(0, -tx0)
        sy0 = max(0, -ty0)
        dx0 = max(0, tx0)
        dy0 = max(0, ty0)
        cw = min(px.shape[1] - sx0, w - dx0)
        ch = min(px.shape[0] - sy0, hgt - dy0)
        if cw > 0 and ch > 0:
            out[dy0:dy0 + ch, dx0:dx0 + cw, :nb] = \
                px[sy0:sy0 + ch, sx0:sx0 + cw, :nb]
    if out is None:
        raise ValueError("pmtiles: no tiles at zoom "
                         f"{zoom}")
    gt = (ox + px0 * res, res, 0.0, oy - py0 * res, 0.0, -res)
    if out.shape[2] == 1:
        out = out[:, :, 0]
    return out, gt, None, {"driver": "PMTiles", "crs": "EPSG:3857",
                           "zoom": zoom}
