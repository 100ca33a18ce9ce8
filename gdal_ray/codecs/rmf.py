"""Raster Matrix Format (RMF: Panorama .rsw rasters / .mtw DEMs).

Reference driver: frmts/rmf/ (rmfdataset.cpp header layout at
:1324-1400, rmflzw.cpp 12-bit mid-square-hash LZW, rmfdem.cpp
delta-coded DEM packing). From-scratch Python implementation:
- 320-byte header ("RSW\\0" / "MTW\\0" / byte-swapped "\\0WSR" big
  endian), tile table of (offset, size) uint32 pairs, row-major
  tiles, last-tile clipping;
- RSW: depth 8 -> palette band, 16 -> A1R5G5B5 3-band expansion,
  24/32 -> 3 bands stored BGR (band source offset nBands-band,
  rmfdataset.cpp:274);
- MTW: depth 8/16/32/64 -> UInt8/Int16/Int32/Float64 elevation;
- compression 1 = RMF LZW (12-bit codes, mid-square hash chains),
  32 = DEM delta stream (TYPE_ZERO/INT4/8/12/16/24/32 runs);
- georeferencing from dfLLX/dfLLY/dfPixelSize (south-west origin),
  EPSG code at header +132.

Goldens in tests/test_rmf.py from autotest/gdrivers/rmf.py
(byte 4672, byte-lzw 40503, float64.mtw 4672, rgbsmall
21212/21053/21349, rgbsmall-lzw 40503/41429/40238, big-endian
7782/8480/4195, t100.mtw DEM 6388, cucled/invalid-subheader 4672).
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import unpack_fields, unpack_rows

__all__ = ["decode_rmf"]


# --------------------------------------------------------------- LZW
def _lzw_decompress(data: bytes, out_size: int) -> bytes:
    NO_PRED = 0xFFFF
    TABSIZE = 4096
    used = np.zeros(TABSIZE, bool)
    nxt = np.zeros(TABSIZE, np.uint32)
    pred = np.zeros(TABSIZE, np.uint32)
    foll = np.zeros(TABSIZE, np.uint8)

    def signed(b):
        return b - 256 if b >= 128 else b

    def update(ipred, bfollow):
        local = ((ipred + signed(bfollow)) & 0xFFFFFFFF) | 0x0800
        local = ((local * local) & 0xFFFFFFFF) >> 6 & 0x0FFF
        n = local
        if used[local]:
            while True:
                n = int(nxt[local])
                if n == 0:
                    break
                local = n
            n = (local + 101) & 0x0FFF
            while used[n]:
                n += 1
                if n >= TABSIZE:
                    n = 0
            nxt[local] = n
        used[n] = True
        nxt[n] = 0
        pred[n] = ipred
        foll[n] = bfollow

    for code in range(256):
        update(NO_PRED, code)

    out = bytearray(out_size)
    pos = 0
    inp = data
    n_in = len(inp)
    i = 0
    code = ((inp[0] << 4) & 0xFF0)
    i = 1
    code += (inp[1] >> 4) & 0x0F
    old = code
    bitsleft = True
    fin = int(foll[code])
    out[pos] = fin
    pos += 1
    count = TABSIZE - 256
    while i < n_in - 0:
        if bitsleft:
            if i >= n_in:
                break
            code = ((inp[i] & 0x0F) << 8) & 0xF00
            i += 1
            if i >= n_in:
                break
            code += inp[i]
            i += 1
            bitsleft = False
        else:
            if i >= n_in:
                break
            code = (inp[i] << 4) & 0xFF0
            i += 1
            if i >= n_in:
                break
            code += (inp[i] >> 4) & 0x0F
            bitsleft = True
        in_code = code
        last_char = 0
        new_code = False
        if not used[code]:
            code = old
            last_char = fin
            new_code = True
        stack = []
        while pred[code] != NO_PRED:
            stack.append(int(foll[code]))
            code = int(pred[code])
            if len(stack) > TABSIZE:
                return bytes(out[:pos])
        fin = int(foll[code])
        if pos >= out_size:
            break
        out[pos] = fin
        pos += 1
        ns = len(stack)
        if pos + ns > out_size:
            break
        for k in range(ns - 1, -1, -1):
            out[pos] = stack[k]
            pos += 1
        if new_code:
            if pos >= out_size:
                break
            fin = last_char
            out[pos] = fin
            pos += 1
        if count > 0:
            count -= 1
            update(old, fin)
        old = in_code
    return bytes(out[:pos])


# --------------------------------------------------------------- DEM
def _dem_decompress(data: bytes, out_words: int) -> np.ndarray:
    OUT_INT32 = -0x80000000
    out = np.zeros(out_words, np.int64)
    pos = 0
    prev = 0
    i = 0
    n = len(data)
    sdata = np.frombuffer(data, np.int8)
    while i < n and pos < out_words:
        b = data[i]
        count = b & 0x1F
        typ = b & 0xE0
        i += 1
        if count == 0:
            if i >= n:
                break
            count = 32 + data[i]
            i += 1
        if typ == 0x20:  # ZERO
            out[pos:pos + count] = prev
            pos += count
        elif typ == 0x00:  # OUT
            out[pos:pos + count] = OUT_INT32
            pos += count
        elif typ == 0x40:  # INT4
            k = 0
            while k < count and i < n:
                code = data[i] & 0x0F
                if code > 7:
                    code |= -16
                if code == -8:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
                k += 1
                if k >= count:
                    i += 1
                    break
                code = (data[i] >> 4) & 0x0F
                i += 1
                if code > 7:
                    code |= -16
                if code == -8:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
                k += 1
        elif typ == 0x60:  # INT8
            for _ in range(count):
                if i >= n:
                    break
                code = int(sdata[i])
                i += 1
                if code == -128:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
        elif typ == 0x80:  # INT12
            k = 0
            while k < count and i + 1 < n:
                code = struct.unpack_from("<h", data, i)[0] & 0x0FFF
                i += 1
                if code > 0x7FF:
                    code |= -0x1000
                if code == -0x800:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
                k += 1
                if k >= count:
                    i += 1
                    break
                if i + 1 >= n:
                    break
                code = (struct.unpack_from("<h", data, i)[0] >> 4) & 0x0FFF
                i += 2
                if code > 0x7FF:
                    code |= -0x1000
                if code == -0x800:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
                k += 1
        elif typ == 0xA0:  # INT16
            for _ in range(count):
                if i + 1 >= n:
                    break
                code = struct.unpack_from("<h", data, i)[0]
                i += 2
                if code == -0x8000:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
        elif typ == 0xC0:  # INT24
            for _ in range(count):
                if i + 2 >= n:
                    break
                code = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
                i += 3
                if code > 0x7FFFFF:
                    code |= -0x1000000
                if code == -0x800000:
                    out[pos] = OUT_INT32
                else:
                    prev = (prev + code + 2**31) % 2**32 - 2**31
                    out[pos] = prev
                pos += 1
        elif typ == 0xE0:  # INT32
            for _ in range(count):
                if i + 3 >= n:
                    break
                code = struct.unpack_from("<i", data, i)[0]
                i += 4
                prev = (prev + code + 2**31) % 2**32 - 2**31
                out[pos] = prev
                pos += 1
        else:
            break
    return out.astype(np.int32)


def _expand555(v: np.ndarray) -> np.ndarray:
    return np.stack([(((v >> 10) & 31) << 3).astype(np.uint8),
                     (((v >> 5) & 31) << 3).astype(np.uint8),
                     ((v & 31) << 3).astype(np.uint8)], axis=-1)


def decode_rmf(buf: bytes):
    sig = buf[:4]
    if sig == b"MTW\x00":
        is_mtw = True
        bo = "<"
    elif sig == b"RSW\x00":
        is_mtw = False
        bo = "<"
    elif sig == b"\x00WSR":
        is_mtw = False
        bo = ">"
    elif sig == b"\x00WTM":
        is_mtw = True
        bo = ">"
    else:
        raise ValueError("not an RMF file")

    def u32(off):
        return struct.unpack_from(bo + "I", buf, off)[0]

    def f64(off):
        return struct.unpack_from(bo + "d", buf, off)[0]

    depth = u32(52)
    h = u32(56)
    w = u32(60)
    nxt = u32(64)
    nyt = u32(68)
    th = u32(72)
    tw = u32(76)
    lth = u32(80)
    ltw = u32(84)
    clr_off = u32(96)
    clr_size = u32(100)
    tbl_off = u32(104)
    tbl_size = u32(108)
    epsg = struct.unpack_from(bo + "i", buf, 132)[0]
    pixel = f64(152)
    lly = f64(160)
    llx = f64(168)
    compression = buf[208]
    nodata = f64(296)
    version = u32(4)
    off_factor = 256 if version == 0x201 else 1

    ntiles = tbl_size // 8
    table = [(u32(tbl_off + 8 * i) * off_factor, u32(tbl_off + 8 * i + 4))
             for i in range(ntiles)]

    if is_mtw:
        dt = {8: "u1", 16: "i2", 32: "i4", 64: "f8"}.get(depth)
        if dt is None:
            raise ValueError(f"MTW bit depth {depth}")
        nb = 1
    else:
        if depth in (16, 24, 32):
            nb = 3
        elif depth in (1, 4, 8):
            nb = 1
        else:
            raise ValueError(f"RSW bit depth {depth}")
        dt = "u1"
    dtype = np.dtype(bo + dt) if dt != "u1" else np.dtype("u1")
    isz = dtype.itemsize

    out = np.zeros((nyt * th, nxt * tw, nb), dtype.newbyteorder("="))
    if not is_mtw and nodata == 0:
        pass
    for ty in range(nyt):
        for tx in range(nxt):
            idx = ty * nxt + tx
            if idx >= len(table):
                continue
            toff, tsize = table[idx]
            raw_w = ltw if (ltw and tx == nxt - 1) else tw
            raw_h = lth if (lth and ty == nyt - 1) else th
            raw_bytes = raw_w * raw_h * depth // 8
            if toff == 0 or tsize == 0:
                tile_px = np.full((raw_h, raw_w, nb), nodata,
                                  out.dtype)
            else:
                data = buf[toff:toff + tsize]
                if compression == 1:
                    data = _lzw_decompress(data, raw_bytes)
                elif compression == 32:
                    words = _dem_decompress(data, raw_w * raw_h)
                    data = words.astype(bo + "i4").tobytes()
                elif compression not in (0,):
                    raise ValueError(f"RMF compression {compression} "
                                     "not supported (JPEG subset)")
                data = data[:raw_bytes] + b"\x00" * max(
                    0, raw_bytes - len(data))
                if not is_mtw and depth == 16:
                    v = np.frombuffer(data, bo + "u2",
                                      raw_w * raw_h).reshape(raw_h, raw_w)
                    tile_px = _expand555(v)
                elif nb == 3:
                    step = depth // 8
                    a = np.frombuffer(data, np.uint8).reshape(
                        raw_h, raw_w, step)
                    # stored BGR; band n reads source offset nb-n
                    tile_px = a[:, :, [2, 1, 0]]
                elif not is_mtw and depth == 4:
                    # palette indices, two per byte LOW nibble first
                    # (4bit.rsw golden 55221)
                    rowb = (raw_w + 1) // 2
                    v = unpack_fields(data, 4, raw_h * rowb * 2, lsb=True)
                    tile_px = v.reshape(raw_h, -1)[:, :raw_w, None]\
                        .astype(out.dtype)
                elif not is_mtw and depth == 1:
                    rowb = (raw_w + 7) // 8
                    a = np.frombuffer(data, np.uint8,
                                      rowb * raw_h).reshape(raw_h, rowb)
                    tile_px = unpack_rows(a, 1, raw_w)[:, :, None]\
                        .astype(out.dtype)
                else:
                    tile_px = np.frombuffer(data, dtype).reshape(
                        raw_h, raw_w, 1).astype(out.dtype)
            out[ty * th:ty * th + tile_px.shape[0],
                tx * tw:tx * tw + tile_px.shape[1], :] = tile_px
    px = out[:h, :w]
    if nb == 1:
        px = px[:, :, 0]
    meta: dict = {"driver": "RMF",
                  "type": "MTW" if is_mtw else "RSW"}
    if epsg > 0:
        meta["crs"] = f"EPSG:{epsg}"
    # palette for <=8-bit RSW
    if not is_mtw and depth <= 8 and clr_size:
        pal = np.frombuffer(buf, np.uint8, min(clr_size, 1024),
                            clr_off).reshape(-1, 4)
        meta["palette"] = np.column_stack(
            [pal[:, 2], pal[:, 1], pal[:, 0],
             np.full(len(pal), 255, np.uint8)])
    gt = None
    if llx != 0.0 or lly != 0.0:
        gt = (llx, pixel, 0.0, lly + h * pixel, 0.0, -pixel)
    nd = nodata if is_mtw else None
    return np.ascontiguousarray(px), gt, nd, meta
