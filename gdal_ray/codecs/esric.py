"""Esri Compact Cache V2 reader (``conf.xml`` + ``_alllayers/Lxx/
RyyyyCxxxx.bundle``) — the bundled tile cache ArcGIS exports.

Reference frmts/esric/esric_dataset.cpp: bundle files hold a 64-byte
header (magic words 3 @0, 5 @12, 40 @32, 0 @36, index size @60) and a
128x128 little-endian uint64 tile index where the low 40 bits are the
tile's file offset and the high 24 bits its size (0 = missing tile);
bundle names use the hex row/col of the 128-tile block.  Extent and
per-LOD resolutions come from conf.xml's TileCacheInfo; missing tiles
read as zeros; JPEG caches expose 3 bands, everything else 4
(grayscale tiles replicate, missing alpha is opaque).
"""

from __future__ import annotations

import os
import re
import struct
import xml.etree.ElementTree as ET

import numpy as np


def _local(tag):
    return tag.rsplit("}", 1)[-1]


def parse_esric_conf(conf_path: str) -> dict:
    root = ET.parse(conf_path).getroot()
    for el in root.iter():
        el.tag = _local(el.tag)
    tci = root.find(".//TileCacheInfo")
    fmt = root.findtext(".//TileImageInfo/CacheTileFormat", "JPEG")
    storage = root.findtext(".//CacheStorageInfo/StorageFormat", "")
    if "CompactV2" not in storage:
        raise ValueError("ESRIC: not an esri V2 bundled cache")
    bsz = int(float(root.findtext(".//CacheStorageInfo/PacketSize",
                                  "128")))
    tsz = int(float(tci.findtext("TileCols", "256")))
    minx = float(tci.findtext("TileOrigin/X", "-180"))
    maxy = float(tci.findtext("TileOrigin/Y", "90"))
    maxx = float(tci.findtext("TileEnd/X", str(-minx)))
    miny = float(tci.findtext("TileEnd/Y", str(-maxy)))
    lods = {}
    for li in tci.iter("LODInfo"):
        lods[int(li.findtext("LevelID"))] = float(
            li.findtext("Resolution"))
    wkt = tci.findtext("SpatialReference/WKT", "")
    wkid = tci.findtext("SpatialReference/WKID", "")
    return {"bsz": bsz, "tsz": tsz, "minx": minx, "maxy": maxy,
            "maxx": maxx, "miny": miny, "lods": lods, "format": fmt,
            "crs": f"EPSG:{wkid}" if wkid else wkt}


def _read_bundle_index(path: str, bsz: int):
    buf = open(path, "rb").read()
    if len(buf) < 64 + bsz * bsz * 8:
        return None, None
    magic = struct.unpack_from("<4I", buf, 0)
    if magic[0] != 3 or magic[3] != 5:
        return None, None
    if struct.unpack_from("<I", buf, 60)[0] != bsz * bsz * 8:
        return None, None
    idx = np.frombuffer(buf, "<u8", bsz * bsz, 64)
    return idx, buf


def _decode_tile(blob: bytes) -> np.ndarray:
    if blob[:8] == b"\x89PNG\r\n\x1a\n":
        from .png import decode as png_decode
        return np.asarray(png_decode(blob, expand_palette=True))
    if blob[:2] == b"\xff\xd8":
        from .jpeg import decode as jpeg_decode
        return np.asarray(jpeg_decode(blob))
    raise ValueError("ESRIC: unknown tile payload")


def decode_esric(conf_path: str, lod: int | None = None):
    """-> (pixels (h, w, 3|4) uint8 for the requested LOD, gt,
    None, meta)."""
    conf = parse_esric_conf(conf_path)
    lods = conf["lods"]
    if lod is None:
        lod = max(lods)
    if lod not in lods:
        raise ValueError(f"ESRIC: no LOD {lod}")
    res = lods[lod]
    tsz, bsz = conf["tsz"], conf["bsz"]
    w = int(round((conf["maxx"] - conf["minx"]) / res))
    h = int(round((conf["maxy"] - conf["miny"]) / res))
    ntx = (w + tsz - 1) // tsz
    nty = (h + tsz - 1) // tsz
    nbands = 3 if conf["format"].upper() == "JPEG" else 4
    out = np.zeros((h, w, nbands), np.uint8)
    layers = os.path.join(os.path.dirname(conf_path), "_alllayers")
    cache: dict = {}
    for ty in range(nty):
        for tx in range(ntx):
            bname = os.path.join(
                layers, f"L{lod:02d}",
                f"R{(ty // bsz) * bsz:04x}C{(tx // bsz) * bsz:04x}"
                ".bundle")
            if bname not in cache:
                cache[bname] = (_read_bundle_index(bname, bsz)
                                if os.path.exists(bname)
                                else (None, None))
            idx, buf = cache[bname]
            if idx is None:
                continue
            v = int(idx[(ty % bsz) * bsz + (tx % bsz)])
            off = v & 0xFFFFFFFFFF
            size = v >> 40
            if size == 0:
                continue
            tile = _decode_tile(buf[off:off + size])
            if tile.ndim == 2:
                tile = tile[:, :, None]
            th, tw, tc = tile.shape
            y0, x0 = ty * tsz, tx * tsz
            hh, ww = min(th, h - y0), min(tw, w - x0)
            blk = out[y0:y0 + hh, x0:x0 + ww]
            if tc >= nbands:
                blk[:] = tile[:hh, :ww, :nbands]
            else:
                for b in range(min(3, nbands)):
                    blk[:, :, b] = tile[:hh, :ww, min(b, tc - 1)]
                if nbands == 4:
                    blk[:, :, 3] = (tile[:hh, :ww, 3]
                                    if tc == 4 else 255)
    gt = (conf["minx"], res, 0.0, conf["maxy"], 0.0, -res)
    meta = {"driver": "ESRIC", "crs": conf["crs"], "lod": lod,
            "lods": sorted(lods), "format": conf["format"]}
    return out, gt, None, meta


# ----------------------------------------------------------- TPKX
def _read_bundle_index_bytes(buf: bytes, bsz: int):
    if buf is None or len(buf) < 64 + bsz * bsz * 8:
        return None
    magic = struct.unpack_from("<4I", buf, 0)
    if magic[0] != 3 or magic[3] != 5:
        return None
    if struct.unpack_from("<I", buf, 60)[0] != bsz * bsz * 8:
        return None
    return np.frombuffer(buf, "<u8", bsz * bsz, 64)


def decode_tpkx(path: str, lod: int | None = None,
                extent: str = "FULL_EXTENT"):
    """Esri tile package (.tpkx: ZIP of root.json + CompactV2
    bundles; esric_dataset.cpp's ESRIC:/vsizip path) → (pixels
    (h, w, 4) uint8 for the requested LOD windowed to the full/
    initial extent or the whole tiling scheme, gt, None, meta)."""
    import json
    import zipfile

    z = zipfile.ZipFile(path)
    raw = z.read("root.json")
    # leading whitespace tolerated (the reference ingests more bytes)
    conf = json.loads(raw.decode("utf-8", "replace").strip())
    ti = conf["tileInfo"]
    tsz = int(ti.get("cols", 256))
    ox = float(ti["origin"]["x"])
    oy = float(ti["origin"]["y"])
    lods = {int(l["level"]): float(l["resolution"])
            for l in ti["lods"]}
    min_lod = int(conf.get("minLOD", min(lods)))
    max_lod = int(conf.get("maxLOD", max(lods)))
    if lod is None:
        lod = max_lod
    if lod not in lods or not min_lod <= lod <= max_lod:
        raise ValueError(f"TPKX: no LOD {lod}")
    res = lods[lod]
    bsz = int(conf.get("storageInfo", {}).get("packetSize", 128))
    bundles_path = conf.get("tileBundlesPath", "./tile") \
        .lstrip("./").strip("/")

    import math
    ext_key = {"FULL_EXTENT": "fullExtent",
               "INITIAL_EXTENT": "initialExtent"}.get(extent.upper())
    if ext_key and ext_key in conf:
        e = conf[ext_key]
        # ±0.001 px: an extent on a pixel boundary must not gain a
        # row/column from FP rounding (same window as pmtiles.py)
        px0 = int(math.floor((e["xmin"] - ox) / res + 0.001))
        py0 = int(math.floor((oy - e["ymax"]) / res + 0.001))
        px1 = int(math.ceil((e["xmax"] - ox) / res - 0.001))
        py1 = int(math.ceil((oy - e["ymin"]) / res - 0.001))
    else:                                # whole tiling scheme level
        px0 = py0 = 0
        px1 = py1 = tsz * (1 << lod)
    w, h = px1 - px0, py1 - py0
    if w <= 0 or h <= 0 or w * h > (1 << 31):
        raise ValueError(f"TPKX: LOD {lod} raster {w}x{h} too large")

    out = np.zeros((h, w, 4), np.uint8)
    names = set(z.namelist())
    cache: dict = {}
    tile_cache: dict = {}

    def raw_tile(lv, tx, ty):
        bname = (f"{bundles_path}/L{lv:02d}/"
                 f"R{(ty // bsz) * bsz:04x}"
                 f"C{(tx // bsz) * bsz:04x}.bundle")
        if bname not in cache:
            if bname in names:
                b = z.read(bname)
                cache[bname] = (_read_bundle_index_bytes(b, bsz), b)
            else:
                cache[bname] = (None, None)
        idx, b = cache[bname]
        if idx is None:
            return None
        v = int(idx[(ty % bsz) * bsz + (tx % bsz)])
        size = v >> 40
        if size == 0:
            return None
        off = v & 0xFFFFFFFFFF
        tile = _decode_tile(b[off:off + size])
        if tile.ndim == 2:
            tile = tile[:, :, None]
        return tile

    resample = bool(conf.get("resampling"))

    def get_tile(lv, tx, ty):
        key = (lv, tx, ty)
        if key in tile_cache:
            return tile_cache[key]
        try:
            tile = raw_tile(lv, tx, ty)
        except ValueError:
            tile = None                  # undecodable tile payload
        if tile is None and resample and lv > min_lod:
            # missing tile: upsample the covering quadrant of the
            # parent level (the driver's "resampling" behavior)
            parent = get_tile(lv - 1, tx // 2, ty // 2)
            if parent is not None:
                qy = (ty % 2) * (tsz // 2)
                qx = (tx % 2) * (tsz // 2)
                quad = parent[qy:qy + tsz // 2, qx:qx + tsz // 2]
                tile = np.repeat(np.repeat(quad, 2, 0), 2, 1)
        tile_cache[key] = tile
        return tile

    for ty in range(py0 // tsz, (py1 + tsz - 1) // tsz):
        for tx in range(px0 // tsz, (px1 + tsz - 1) // tsz):
            tile = get_tile(lod, tx, ty)
            if tile is None:
                continue
            th, tw, tc = tile.shape
            y0 = ty * tsz - py0
            x0 = tx * tsz - px0
            sy = max(0, -y0)
            sx = max(0, -x0)
            dy = max(0, y0)
            dx = max(0, x0)
            hh = min(th - sy, h - dy)
            ww = min(tw - sx, w - dx)
            if hh <= 0 or ww <= 0:
                continue
            blk = out[dy:dy + hh, dx:dx + ww]
            sub = tile[sy:sy + hh, sx:sx + ww]
            if tc >= 4:
                blk[:] = sub[:, :, :4]
            else:
                for b in range(3):
                    blk[:, :, b] = sub[:, :, min(b, tc - 1)]
                blk[:, :, 3] = 255
    gt = (ox + px0 * res, res, 0.0, oy - py0 * res, 0.0, -res)
    wkid = conf.get("spatialReference", {}).get("latestWkid") or \
        conf.get("spatialReference", {}).get("wkid")
    meta = {"driver": "ESRIC", "lod": lod,
            "crs": f"EPSG:{wkid}" if wkid else ""}
    return out, gt, None, meta
