"""Cloud-Optimized GeoTIFF writer.

Implements the public COG layout (cogeo.org spec; reference driver
frmts/cog/cogdriver.cpp behavior, written from the spec): a classic
TIFF whose
  * IFDs (full resolution first, overview IFDs chained after, each
    overview flagged NewSubfileType=1) all live at the START of the
    file, before any tile data — a reader learns the full tile map
    from one head fetch;
  * pixel data is tiled (256² default) so any window is a bounded
    number of range-reads;
  * overview tile data precedes full-resolution tile data, smallest
    level first, so a preview renders from the file head.

Overviews are built by repeated 2× downsampling (core/resample.py
kernels — GDAL's overview cascade, gcore/overview.cpp) until the level
fits in one tile.

Scale note: a COG is a per-image artifact. In pipelines it's produced
inside ``map_batches`` (one encode per image row, embarrassingly
parallel) — never a driver-side loop.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

from ..core.resample import downsample2x
from .gtiff import (_DT_TO_TIFF, _T_BITS, _T_COMP, _T_EXTRA_SAMPLES,
                    _T_GEO_KEYS, _T_HEIGHT, _T_NODATA, _T_PHOTO,
                    _T_PIXEL_SCALE, _T_PLANAR, _T_SFMT, _T_SPP,
                    _T_TIEPOINT, _T_TILE_CNT, _T_TILE_H, _T_TILE_OFF,
                    _T_TILE_W, _T_WIDTH, decode_gtiff_all)

_T_SUBFILE = 254          # NewSubfileType; 1 = reduced-resolution


def _level_blocks(px: np.ndarray, ts: int, comp_id: int) -> list[bytes]:
    h, w, spp = px.shape
    dt = px.dtype
    blocks = []
    for ty in range(-(-h // ts)):
        for tx in range(-(-w // ts)):
            tile = np.zeros((ts, ts, spp), dtype=dt)
            sub = px[ty * ts:(ty + 1) * ts, tx * ts:(tx + 1) * ts]
            tile[:sub.shape[0], :sub.shape[1]] = sub
            raw = np.ascontiguousarray(tile).astype(
                dt.newbyteorder("<")).tobytes()
            blocks.append(zlib.compress(raw, 6) if comp_id == 8 else raw)
    return blocks


def _level_entries(px: np.ndarray, ts: int, comp_id: int, n_blocks: int,
                   block_lens: list[int], *, overview: bool,
                   geotransform=None, crs=None, nodata=None):
    """Tag entries for one IFD; TILE_OFF payload patched later."""
    h, w, spp = px.shape
    bits, sfmt = _DT_TO_TIFF[px.dtype]
    entries: list[tuple[int, int, int, bytes]] = []

    def short(t, v):
        entries.append((t, 3, 1, struct.pack("<HH", v, 0)))

    def long_(t, v):
        entries.append((t, 4, 1, struct.pack("<I", v)))

    def longs(t, vals):
        entries.append((t, 4, len(vals), struct.pack(f"<{len(vals)}I", *vals)))

    def shorts(t, vals):
        entries.append((t, 3, len(vals), struct.pack(f"<{len(vals)}H", *vals)))

    def doubles(t, vals):
        entries.append((t, 12, len(vals), struct.pack(f"<{len(vals)}d", *vals)))

    def ascii_(t, s):
        b = s.encode() + b"\x00"
        entries.append((t, 2, len(b), b))

    if overview:
        long_(_T_SUBFILE, 1)
    long_(_T_WIDTH, w)
    long_(_T_HEIGHT, h)
    shorts(_T_BITS, [bits] * spp)
    short(_T_COMP, comp_id)
    short(_T_PHOTO, 2 if spp >= 3 else 1)
    short(_T_SPP, spp)
    short(_T_PLANAR, 1)
    if spp > 3:
        shorts(_T_EXTRA_SAMPLES, [0] * (spp - 3))
    shorts(_T_SFMT, [sfmt] * spp)
    short(_T_TILE_W, ts)
    short(_T_TILE_H, ts)
    longs(_T_TILE_OFF, [0] * n_blocks)
    longs(_T_TILE_CNT, block_lens)
    if not overview:
        if geotransform is not None:
            g = geotransform
            doubles(_T_PIXEL_SCALE, [g[1], -g[5], 0.0])
            doubles(_T_TIEPOINT, [0.0, 0.0, 0.0, g[0], g[3], 0.0])
        if crs is not None and crs.upper().startswith("EPSG:"):
            code = int(crs.split(":")[1])
            from .gtiff import is_geographic_epsg
            is_geo = is_geographic_epsg(code)
            keys = [1, 1, 0, 3,
                    1024, 0, 1, 2 if is_geo else 1,
                    1025, 0, 1, 1]
            keys += ([2048, 0, 1, code] if is_geo else [3072, 0, 1, code])
            keys[3] = (len(keys) - 4) // 4
            shorts(_T_GEO_KEYS, keys)
        if nodata is not None:
            ascii_(_T_NODATA, repr(float(nodata)))
    entries.sort(key=lambda e: e[0])
    return entries


def _as_dtype(level: np.ndarray, dtype: np.dtype) -> np.ndarray:
    if level.dtype == dtype:
        return level
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        level = np.clip(np.floor(level + 0.5), info.min, info.max)
    return level.astype(dtype)


def encode_cog(pixels: np.ndarray, *, geotransform=None, crs=None,
               nodata=None, tile_size: int = 256,
               compress: str = "deflate",
               resampling: str = "average") -> bytes:
    """Encode (h, w[, bands]) → COG bytes: IFD chain at the head,
    overview data first, full-res data last."""
    px = pixels if pixels.ndim == 3 else pixels[:, :, None]
    if px.dtype not in _DT_TO_TIFF:
        raise ValueError(f"unsupported dtype {px.dtype}")
    comp_id = {"none": 1, "deflate": 8}[compress]
    ts = tile_size

    # overview cascade: halve until the level fits one tile; every
    # overview keeps the band type (GDAL overviews do), integers by
    # round-half-up and a clip to the type's range
    levels = [px]
    while max(levels[-1].shape[0], levels[-1].shape[1]) > ts:
        levels.append(_as_dtype(downsample2x(levels[-1], resampling),
                                px.dtype))

    lv_blocks = [_level_blocks(lv, ts, comp_id) for lv in levels]
    lv_entries = [
        _level_entries(lv, ts, comp_id, len(bl), [len(b) for b in bl],
                       overview=(k > 0), geotransform=geotransform,
                       crs=crs, nodata=nodata)
        for k, (lv, bl) in enumerate(zip(levels, lv_blocks))]

    # ---- layout pass: header, all IFDs + their out-of-line tag data,
    # then tile data (smallest overview first, full-res last)
    pos = 8
    ifd_offsets = []
    ool_offsets: list[list[int]] = []
    for entries in lv_entries:
        ifd_offsets.append(pos)
        pos += 2 + 12 * len(entries) + 4
        offs = []
        for t, typ, cnt, payload in entries:
            if len(payload) > 4:
                offs.append(pos)
                pos += len(payload) + (len(payload) & 1)
            else:
                offs.append(-1)
        ool_offsets.append(offs)

    block_offsets: list[list[int]] = [None] * len(levels)
    for k in range(len(levels) - 1, -1, -1):      # smallest level first
        offs = []
        for b in lv_blocks[k]:
            offs.append(pos)
            pos += len(b) + (len(b) & 1)
        block_offsets[k] = offs

    # ---- emit
    buf = bytearray()
    buf += b"II*\x00" + struct.pack("<I", ifd_offsets[0])
    for k, entries in enumerate(lv_entries):
        assert len(buf) == ifd_offsets[k]
        ool_payloads = []
        buf += struct.pack("<H", len(entries))
        for (t, typ, cnt, payload), ooff in zip(entries, ool_offsets[k]):
            if t == _T_TILE_OFF:
                payload = struct.pack(f"<{len(lv_blocks[k])}I",
                                      *block_offsets[k])
            if len(payload) <= 4:
                buf += struct.pack("<HHI", t, typ, cnt) + payload.ljust(4, b"\x00")
            else:
                buf += struct.pack("<HHII", t, typ, cnt, ooff)
                ool_payloads.append((ooff, payload))
        next_ifd = ifd_offsets[k + 1] if k + 1 < len(lv_entries) else 0
        buf += struct.pack("<I", next_ifd)
        for ooff, payload in ool_payloads:
            assert len(buf) == ooff
            buf += payload
            if len(payload) & 1:
                buf += b"\x00"
    for k in range(len(levels) - 1, -1, -1):
        for off, b in zip(block_offsets[k], lv_blocks[k]):
            assert len(buf) == off
            buf += b
            if len(b) & 1:
                buf += b"\x00"
    return bytes(buf)


def cog_is_valid(buf: bytes) -> dict:
    """Structural COG check (the essence of cogeo.org's validate):
    every IFD + tag payload precedes every tile byte, data is tiled,
    overviews present when the image exceeds one tile."""
    mv = bytes(buf)
    bo = "<" if mv[:2] == b"II" else ">"
    (ifd_off,) = struct.unpack_from(bo + "I", mv, 4)
    max_meta_end = 0
    min_data_off = len(mv)
    n_ifds = 0
    tiled = True
    while ifd_off:
        (n_tags,) = struct.unpack_from(bo + "H", mv, ifd_off)
        end = ifd_off + 2 + n_tags * 12 + 4
        max_meta_end = max(max_meta_end, end)
        has_tiles = False
        for i in range(n_tags):
            base = ifd_off + 2 + i * 12
            tag, typ, cnt = struct.unpack_from(bo + "HHI", mv, base)
            tsize = {1: 1, 2: 1, 3: 2, 4: 4, 12: 8}.get(typ, 1) * cnt
            if tsize > 4:
                (voff,) = struct.unpack_from(bo + "I", mv, base + 8)
                max_meta_end = max(max_meta_end, voff + tsize)
            if tag == _T_TILE_OFF:
                has_tiles = True
                vals = (struct.unpack_from(bo + f"{cnt}I", mv, base + 8)
                        if tsize <= 4 else struct.unpack_from(
                            bo + f"{cnt}I", mv,
                            struct.unpack_from(bo + "I", mv, base + 8)[0]))
                min_data_off = min(min_data_off, min(vals))
        tiled &= has_tiles
        n_ifds += 1
        (ifd_off,) = struct.unpack_from(
            bo + "I", mv, ifd_off + 2 + n_tags * 12)
    return {"n_ifds": n_ifds, "tiled": tiled,
            "metadata_before_data": max_meta_end <= min_data_off,
            "meta_end": max_meta_end, "data_start": min_data_off}


def decode_cog(buf: bytes):
    """COG bytes → [GeoTiff full-res, overview1, ...] (IFD order)."""
    return decode_gtiff_all(buf)
