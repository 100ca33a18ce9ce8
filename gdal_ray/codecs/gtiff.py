"""GeoTIFF reader/writer — pure Python + numpy, no libtiff.

Independently implements the published TIFF 6.0 + GeoTIFF 1.1 formats
(reference behavior: frmts/gtiff/gtiffdataset_read.cpp for strip/tile
layout semantics, gcore/gdal.h:47-67 for the dtype model). Golden-file
conformance is tested against the reference's own fixtures
(autotest/gcore/data/byte.tif checksum 4672 per
autotest/gcore/tiff_read.py:111; autotest/utilities/data/utmsmall.tif
checksum 50054 per autotest/utilities/test_gdalalg_raster_convert.py:33).

Reader: classic TIFF (II/MM), strips and tiles, PlanarConfig chunky,
compression none/deflate/adobe-deflate/LZW/PackBits/ZSTD/LZMA plus
the pixel-block codecs WEBP (50001, own VP8/VP8L) and LERC (34887,
own Lerc1/Lerc2 incl. the deflate/zstd add-compression wrap),
horizontal predictor, u/int 8/16/32, float32/64 via (BitsPerSample,
SampleFormat),
geotransform from ModelPixelScale+ModelTiepoint or ModelTransformation,
CRS from the GeoKey directory (EPSG codes), GDAL_NODATA tag.

Writer: tiled or stripped, deflate or none, same dtype set, geo tags +
nodata — enough for a full read→transform→write GeoTIFF pipeline.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ._bits import lzw_decode, unpack_rows

# TIFF tag ids
_T_WIDTH, _T_HEIGHT = 256, 257
_T_BITS, _T_COMP, _T_PHOTO = 258, 259, 262
_T_STRIP_OFF, _T_SPP, _T_RPS, _T_STRIP_CNT = 273, 277, 278, 279
_T_PLANAR = 284
_T_PREDICTOR = 317
_T_TILE_W, _T_TILE_H, _T_TILE_OFF, _T_TILE_CNT = 322, 323, 324, 325
_T_EXTRA_SAMPLES = 338
_T_SFMT = 339
_T_PIXEL_SCALE, _T_TIEPOINT, _T_TRANSFORM = 33550, 33922, 34264
_T_GEO_KEYS, _T_GEO_DOUBLES, _T_GEO_ASCII = 34735, 34736, 34737
_T_NODATA = 42113

_TYPE_SIZES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
               10: 8, 11: 4, 12: 8, 16: 8, 17: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i",
             11: "f", 12: "d", 16: "Q", 17: "q"}


class GeoTiff:
    """Decoded GeoTIFF: pixels (h, w, bands), geotransform, CRS, nodata."""

    def __init__(self, pixels, geotransform=None, crs=None, nodata=None):
        self.pixels = pixels
        self.geotransform = geotransform
        self.crs = crs
        self.nodata = nodata


def _read_ifd_values(buf, bo, typ, cnt, val_off_raw, big: bool = False):
    size = _TYPE_SIZES.get(typ, 1) * cnt
    inline = 8 if big else 4
    if size <= inline:
        raw = val_off_raw
    else:
        (off,) = struct.unpack(bo + ("Q" if big else "I"), val_off_raw)
        raw = buf[off:off + size]
    if typ == 5:  # RATIONAL
        vals = struct.unpack(bo + f"{2 * cnt}I", raw[:8 * cnt])
        return [vals[2 * i] / max(vals[2 * i + 1], 1) for i in range(cnt)]
    if typ == 10:  # SRATIONAL
        vals = struct.unpack(bo + f"{2 * cnt}i", raw[:8 * cnt])
        return [vals[2 * i] / (vals[2 * i + 1] or 1) for i in range(cnt)]
    fmt = _TYPE_FMT.get(typ)
    if fmt is None:
        return raw
    return list(struct.unpack(bo + f"{cnt}{fmt}", raw[:size * 1]
                              if size > 4 else raw[:struct.calcsize(bo + f"{cnt}{fmt}")]))


def _dtype_of(bits, sfmt, bo):
    """Storage dtype for (BitsPerSample, SampleFormat). Complex int
    (sfmt 5) returns the integer HALF dtype — the decoder reads value
    pairs and combines them (gcore/gdal.h:47-67 CInt16/CInt32 have no
    numpy equivalent, so they surface as complex64/128)."""
    base = {(8, 1): "u1", (8, 4): "u1", (16, 1): "u2", (32, 1): "u4",
            (64, 1): "u8",
            (8, 2): "i1", (16, 2): "i2", (32, 2): "i4", (64, 2): "i8",
            (16, 3): "f2", (32, 3): "f4", (64, 3): "f8",
            (32, 5): "i2", (64, 5): "i4",       # CInt16 / CInt32 halves
            (64, 6): "c8", (128, 6): "c16"}.get((bits, sfmt))
    if base is None:
        raise ValueError(f"unsupported TIFF sample: {bits} bits fmt {sfmt}")
    return np.dtype(base if base == "u1" or base == "i1" else bo + base)


def _packbits_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        i += 1
        if n < 128:
            out += data[i:i + n + 1]
            i += n + 1
        elif n > 128:
            out += data[i:i + 1] * (257 - n)
            i += 1
    return bytes(out)


def _next_decode(data: bytes, rows: int, scanline: int,
                 width: int) -> bytes:
    """NeXT 2-bit grayscale (compression 32766, tif_next.c): rows
    start all-white (0xff); per row a mode byte — 0x00 literal row,
    0x40 literal span (u16 offset + u16 count), else <2-bit
    color><6-bit count> run codes packed MSB-first."""
    out = bytearray(b"\xff" * (rows * scanline))
    pos = 0
    for r in range(rows):
        base = r * scanline
        n = data[pos]
        pos += 1
        if n == 0x00:                    # literal row
            out[base:base + scanline] = data[pos:pos + scanline]
            pos += scanline
        elif n == 0x40:                  # literal span
            off = (data[pos] << 8) | data[pos + 1]
            cnt = (data[pos + 2] << 8) | data[pos + 3]
            out[base + off:base + off + cnt] = \
                data[pos + 4:pos + 4 + cnt]
            pos += 4 + cnt
        else:
            npix = 0
            while True:
                grey = (n >> 6) & 3
                run = n & 0x3F
                while run > 0 and npix < width:
                    byte = base + (npix >> 2)
                    shift = 6 - 2 * (npix & 3)
                    out[byte] = (out[byte]
                                 & ~(3 << shift)) | (grey << shift)
                    npix += 1
                    run -= 1
                if npix >= width:
                    break
                n = data[pos]
                pos += 1
    return bytes(out)


def _thunder_decode(data: bytes, rows: int, width: int) -> bytes:
    """ThunderScan 4-bit (compression 32809, tif_thunder.c): run /
    2-bit-delta / 3-bit-delta / raw codes, one row per strip row,
    packed two pixels per byte high-nibble-first."""
    two = (0, 1, 0, -1)
    three = (0, 1, 2, 3, 0, -3, -2, -1)
    rowbytes = (width + 1) // 2
    out = bytearray(rows * rowbytes)
    pos = 0
    for r in range(rows):
        base = r * rowbytes
        lastpixel = 0
        npix = 0

        def setpix(v):
            nonlocal lastpixel, npix
            lastpixel = v & 0xF
            if npix < width:
                byte = base + (npix >> 1)
                if npix & 1:
                    out[byte] |= lastpixel
                else:
                    out[byte] = lastpixel << 4
                npix += 1

        while pos < len(data) and npix < width:
            n = data[pos]
            pos += 1
            code = n & 0xC0
            if code == 0x00:             # run of lastpixel
                run = n & 0x3F
                for _ in range(run):
                    setpix(lastpixel)
            elif code == 0x40:           # 2-bit deltas
                for sh in (4, 2, 0):
                    d = (n >> sh) & 3
                    if d != 2:
                        setpix(lastpixel + two[d])
            elif code == 0x80:           # 3-bit deltas
                for sh in (3, 0):
                    d = (n >> sh) & 7
                    if d != 4:
                        setpix(lastpixel + three[d])
            else:                        # raw 4-bit value
                setpix(n)
    return bytes(out)


def _sgilog16_decode(data: bytes, rows: int, width: int,
                     bo: str) -> bytes:
    """SGILOG LogL16 (compression 34676, tif_luv.c LogL16Decode):
    per row, two RLE byte-string passes (high byte then low byte);
    run code >= 128 → (code - 126) copies of the next byte, else
    literal count.  Raw 16-bit LogL codes are returned (the
    SGILOGDATAFMT_16BIT passthrough the reference uses)."""
    out = np.zeros(rows * width, dtype=np.uint16)
    pos = 0
    n = len(data)
    for r in range(rows):
        row = out[r * width:(r + 1) * width]
        for shft in (8, 0):
            i = 0
            while i < width and pos < n:
                rc = data[pos]
                if rc >= 128:            # run
                    if pos + 1 >= n:
                        break
                    b = data[pos + 1] << shft
                    pos += 2
                    rc -= 126
                    while rc and i < width:
                        row[i] |= b
                        i += 1
                        rc -= 1
                else:                    # literals
                    pos += 1
                    while pos < n and rc and i < width:
                        row[i] |= data[pos] << shft
                        i += 1
                        pos += 1
                        rc -= 1
    return out.astype(bo + "u2").tobytes()


def _decompress(raw: bytes, comp: int) -> bytes:
    if comp == 1:
        return raw
    if comp in (8, 32946):        # deflate / adobe deflate
        return zlib.decompress(raw)
    if comp == 5:
        return lzw_decode(raw, lsb=False, min_bits=8, early_change=1)
    if comp == 32773:
        return _packbits_decode(raw)
    if comp == 50000:             # ZSTD (own RFC 8878 decoder)
        from .zstd import zstd_decompress
        return zstd_decompress(raw)
    if comp == 34925:             # LZMA
        import lzma
        return lzma.decompress(raw)
    raise ValueError(f"unsupported TIFF compression {comp}")


def _ycbcr_tables(luma, refbw):
    """libtiff TIFFYCbCrToRGBInit's integer tables (tif_color.c:251):
    FIX()ed coefficients, Code2V range mapping in float32, SHIFT-16
    fixed point with ONE_HALF rounding."""
    lr, lg, lb = luma
    fix = lambda x: int(np.float64(x) * 65536 + 0.5)
    clamp2 = lambda f: min(max(f, 0.0), 2.0)
    d1 = fix(clamp2(2 - 2 * lr))
    d2 = -fix(clamp2(lr * (2 - 2 * lr) / lg))
    d3 = fix(clamp2(2 - 2 * lb))
    d4 = -fix(clamp2(lb * (2 - 2 * lb) / lg))

    def code2v(c, rb, rw, cr):
        den = (rw - rb) if rw != rb else 1.0
        return np.float32(c - np.int32(rb)) * np.float32(cr) \
            / np.float32(den)

    x = np.arange(256, dtype=np.int64) - 128
    cr_v = code2v(x, refbw[4] - 128.0, refbw[5] - 128.0, 127) \
        .astype(np.int32).astype(np.int64)
    cb_v = code2v(x, refbw[2] - 128.0, refbw[3] - 128.0, 127) \
        .astype(np.int32).astype(np.int64)
    y_v = code2v(x + 128, refbw[0], refbw[1], 255) \
        .astype(np.int32).astype(np.int64)
    cr_r = (d1 * cr_v + 32768) >> 16
    cb_b = (d3 * cb_v + 32768) >> 16
    cr_g = d2 * cr_v
    cb_g = d4 * cb_v + 32768
    return y_v, cr_r, cb_b, cr_g, cb_g


def _ycbcr_to_rgb(raw: bytes, bh: int, bw: int, sh: int, sv: int,
                  luma, refbw) -> bytes:
    """Packed subsampled YCbCr strip/tile → chunky RGB bytes.
    Units of sh*sv Y samples + Cb + Cr, row-major over the padded
    (ceil(bh/sv)*sv, ceil(bw/sh)*sh) grid (TIFF 6.0 §21)."""
    uy = -(-bh // sv)
    ux = -(-bw // sh)
    unit = sh * sv + 2
    need = uy * ux * unit
    data = np.frombuffer(raw, np.uint8, count=need).astype(np.int64)
    units = data.reshape(uy, ux, unit)
    ys = units[:, :, :sh * sv].reshape(uy, ux, sv, sh)
    # (uy, sv, ux, sh) → padded image Y plane
    ypl = ys.transpose(0, 2, 1, 3).reshape(uy * sv, ux * sh)
    cb = np.repeat(np.repeat(units[:, :, sh * sv], sv, 0)
                   .reshape(uy * sv, ux), sh, 1)
    cr = np.repeat(np.repeat(units[:, :, sh * sv + 1], sv, 0)
                   .reshape(uy * sv, ux), sh, 1)
    y_v, cr_r, cb_b, cr_g, cb_g = _ycbcr_tables(luma, refbw)
    yv = y_v[ypl]
    r = np.clip(yv + cr_r[cr], 0, 255)
    g = np.clip(yv + ((cb_g[cb] + cr_g[cr]) >> 16), 0, 255)
    b = np.clip(yv + cb_b[cb], 0, 255)
    rgb = np.stack([r, g, b], axis=-1).astype(np.uint8)
    return np.ascontiguousarray(rgb[:bh, :bw]).tobytes()


def _ycbcr_planes_to_rgb(y, cb, cr, luma, refbw) -> np.ndarray:
    """Full-size Y/Cb/Cr uint8 planes → (h, w, 3) RGB via the libtiff
    integer tables (shared with the packed-YCbCr path)."""
    y_v, cr_r, cb_b, cr_g, cb_g = _ycbcr_tables(luma, refbw)
    yv = y_v[y.astype(np.int64)]
    cbl = cb.astype(np.int64)
    crl = cr.astype(np.int64)
    r = np.clip(yv + cr_r[crl], 0, 255)
    g = np.clip(yv + ((cb_g[cbl] + cr_g[crl]) >> 16), 0, 255)
    b = np.clip(yv + cb_b[cbl], 0, 255)
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def _decode_ojpeg_block(raw: bytes, buf, tags, bh: int, bw: int,
                        luma, refbw, ss_h: int, ss_v: int) -> bytes:
    """Old-style TIFF JPEG (compression 6, tif_ojpeg.c behavior):
    rebuild a standard baseline stream from the JPEGQTables /
    JPEGDCTables / JPEGACTables tag offsets (raw 64-byte zigzag Q
    tables; 16-count + symbols Huffman tables) around the strip/tile
    entropy data, decode to raw subsampled planes, replicate chroma,
    and convert with the file's YCbCrCoefficients/ReferenceBlackWhite
    (video-range) tables — not JPEG full range. SamplesPerPixel=1 is a
    single-component grayscale stream, returned as one band."""
    if int(tags.get(512, [1])[0]) != 1:
        raise ValueError("OJPEG: only JPEGProc=1 (baseline)")
    if 513 in tags and 514 in tags and not raw[:2] == b"\xff\xd8":
        o = int(tags[513][0])
        ln = int(tags[514][0])
        raw = bytes(buf[o:o + ln])
    ncomp = 1 if int(tags.get(_T_SPP, [1])[0]) == 1 else 3
    if raw[:2] == b"\xff\xd8":
        stream = raw                     # already a full JPEG
    else:
        # component k uses table k, or the last table the file carries
        qts, dcs, acs = (tags.get(t, [])[:ncomp] for t in (519, 520, 521))
        if not (qts and dcs and acs):
            raise ValueError("OJPEG: missing JPEGQ/DC/ACTables tags")
        out = bytearray(b"\xff\xd8")
        for k, qoff in enumerate(qts):
            qoff = int(qoff)
            out += b"\xff\xdb" + struct.pack(">H", 2 + 1 + 64)
            out += bytes([k]) + bytes(buf[qoff:qoff + 64])
        for cls, offs in ((0, dcs), (1, acs)):
            for k, hoff in enumerate(offs):
                hoff = int(hoff)
                bits = bytes(buf[hoff:hoff + 16])
                nsym = sum(bits)
                vals = bytes(buf[hoff + 16:hoff + 16 + nsym])
                out += b"\xff\xc4" + struct.pack(
                    ">H", 2 + 1 + 16 + nsym)
                out += bytes([(cls << 4) | k]) + bits + vals
        out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8,
                                         bh, bw, ncomp)
        for k in range(ncomp):
            # luma carries the file's subsampling; a lone component none
            samp = ((ss_h << 4) | ss_v) if k == 0 and ncomp == 3 \
                else 0x11
            out += bytes([k + 1, samp, min(k, len(qts) - 1)])
        out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
        for k in range(ncomp):
            out += bytes([k + 1, (min(k, len(dcs) - 1) << 4)
                          | min(k, len(acs) - 1)])
        out += bytes([0, 63, 0]) + raw + b"\xff\xd9"
        stream = bytes(out)
    from .jpeg import decode as _jpeg_decode
    planes = _jpeg_decode(stream, raw_planes=True)
    comps = sorted(planes)
    y = planes[comps[0]][0][:bh, :bw]
    hmax = max(p[1] for p in planes.values())
    vmax = max(p[2] for p in planes.values())

    def full(cid):
        p, ch, cv = planes[cid]
        p = np.repeat(np.repeat(p, vmax // cv, 0), hmax // ch, 1)
        return p[:bh, :bw]

    if len(comps) < 3:
        blk = np.repeat(y[:, :, None], ncomp, axis=2)
    else:
        blk = _ycbcr_planes_to_rgb(full(comps[0]), full(comps[1]),
                                   full(comps[2]), luma, refbw)
    padded = np.zeros((bh, bw, ncomp), np.uint8)
    padded[:blk.shape[0], :blk.shape[1]] = blk[:bh, :bw, :ncomp]
    return padded.tobytes()


def _merge_jpegtables(tables: bytes, strip: bytes) -> bytes:
    """Abbreviated TIFF-JPEG streams (tag 347): the JPEGTables blob
    is SOI + table segments + EOI; inject those segments after the
    strip's SOI (strip-local tables then override by appearing
    later, matching libjpeg's last-wins semantics)."""
    if not tables or len(tables) < 4 or strip[:2] != b"\xff\xd8":
        return strip
    body = tables
    if body[:2] == b"\xff\xd8":
        body = body[2:]
    if body[-2:] == b"\xff\xd9":
        body = body[:-2]
    return strip[:2] + body + strip[2:]


def _decode_pixel_block(raw: bytes, comp: int, bh: int, bw: int,
                        bspp: int, dt, jpegtables: bytes | None = None
                        ) -> bytes:
    """JPEG (7) / WEBP (50001) / LERC (34887) blocks decode to
    pixels, not a byte stream; re-embed into the full (bh, bw, bspp)
    chunky block so the common placement path applies (edge blocks
    may carry clipped dimensions)."""
    if comp == 7:
        from .jpeg import decode as _jpeg_decode
        px = _jpeg_decode(_merge_jpegtables(jpegtables or b"", raw))
        if px.ndim == 3 and px.shape[2] > bspp:
            px = px[:, :, :bspp]
    elif comp == 50001:
        from .webp import decode_webp
        px = decode_webp(raw)[:, :, :bspp]
    else:
        from .lerc import decode_lerc1, decode_lerc2
        body = raw
        if body[:6] not in (b"Lerc2 ", b"CntZIm"):
            # LERC_ADD_COMPRESSION: deflate or zstd over the blob
            try:
                body = zlib.decompress(body)
            except zlib.error:
                from .zstd import zstd_decompress
                body = zstd_decompress(body)
        px = decode_lerc2(body) if body[:6] == b"Lerc2 " \
            else decode_lerc1(body)
    if px.ndim == 2:
        px = px[:, :, None]
    blk = np.zeros((bh, bw, bspp), dtype=dt.newbyteorder("="))
    eh = min(bh, px.shape[0])
    ew = min(bw, px.shape[1])
    blk[:eh, :ew, :] = px[:eh, :ew, :bspp]
    return blk.astype(dt).tobytes()


def _tiff_header(mv: bytes):
    """Classic (magic 42) and BigTIFF (magic 43, 8-byte offsets —
    frmts/gtiff bBigTIFF paths / the published BigTIFF spec) headers.
    Returns (byte order, first IFD offset, is_bigtiff)."""
    if mv[:2] == b"II":
        bo = "<"
    elif mv[:2] == b"MM":
        bo = ">"
    else:
        raise ValueError("not a TIFF (bad byte order mark)")
    (magic,) = struct.unpack_from(bo + "H", mv, 2)
    if magic == 42:
        (ifd_off,) = struct.unpack_from(bo + "I", mv, 4)
        return bo, ifd_off, False
    if magic == 43:
        offsize, zero = struct.unpack_from(bo + "HH", mv, 4)
        if offsize != 8 or zero != 0:
            raise ValueError(f"bad BigTIFF header ({offsize}, {zero})")
        (ifd_off,) = struct.unpack_from(bo + "Q", mv, 8)
        return bo, ifd_off, True
    raise ValueError(f"not a TIFF (magic {magic})")


def tiff_block_offsets(buf: bytes) -> list[int]:
    """Strip/tile byte offsets of the first IFD (the reference's
    BLOCK_OFFSET_x_y metadata, autotest/gcore/tiff_read.py:3834-3860
    exercises SHORT/LONG/LONG8 offset tags across classic/BigTIFF and
    both byte orders)."""
    mv = bytes(buf)
    bo, ifd_off, big = _tiff_header(mv)
    if big:
        (n_tags,) = struct.unpack_from(bo + "Q", mv, ifd_off)
        entry0, esize = ifd_off + 8, 20
    else:
        (n_tags,) = struct.unpack_from(bo + "H", mv, ifd_off)
        entry0, esize = ifd_off + 2, 12
    for i in range(int(n_tags)):
        base = entry0 + i * esize
        if big:
            tag, typ = struct.unpack_from(bo + "HH", mv, base)
            (cnt,) = struct.unpack_from(bo + "Q", mv, base + 4)
            val_raw = mv[base + 12:base + 20]
        else:
            tag, typ, cnt = struct.unpack_from(bo + "HHI", mv, base)
            val_raw = mv[base + 8:base + 12]
        if tag in (273, 324):                # StripOffsets / TileOffsets
            return [int(v) for v in
                    _read_ifd_values(mv, bo, typ, int(cnt), val_raw, big)]
    return []


def decode_gtiff(buf: bytes) -> GeoTiff:
    """Decode a classic or BigTIFF GeoTIFF byte stream (first IFD)."""
    mv = bytes(buf)
    bo, ifd_off, big = _tiff_header(mv)
    return _decode_ifd(mv, bo, ifd_off, big)[0]


def decode_gtiff_all(buf: bytes) -> list[GeoTiff]:
    """Decode every IFD in the chain (full resolution + overviews —
    the COG / gdaladdo layout, frmts/gtiff/gtiffdataset_read.cpp
    overview enumeration)."""
    mv = bytes(buf)
    bo, ifd_off, big = _tiff_header(mv)
    out = []
    while ifd_off:
        g, ifd_off = _decode_ifd(mv, bo, ifd_off, big)
        out.append(g)
    return out


def _decode_ifd(mv: bytes, bo: str, ifd_off: int, big: bool = False):
    if big:
        (n_tags,) = struct.unpack_from(bo + "Q", mv, ifd_off)
        entry0, esize = ifd_off + 8, 20
    else:
        (n_tags,) = struct.unpack_from(bo + "H", mv, ifd_off)
        entry0, esize = ifd_off + 2, 12
    tags: dict[int, list] = {}
    for i in range(int(n_tags)):
        base = entry0 + i * esize
        if big:
            tag, typ = struct.unpack_from(bo + "HH", mv, base)
            (cnt,) = struct.unpack_from(bo + "Q", mv, base + 4)
            val_raw = mv[base + 12:base + 20]
        else:
            tag, typ, cnt = struct.unpack_from(bo + "HHI", mv, base)
            val_raw = mv[base + 8:base + 12]
        tags[tag] = _read_ifd_values(mv, bo, typ, int(cnt), val_raw, big)

    w = int(tags[_T_WIDTH][0])
    h = int(tags[_T_HEIGHT][0])
    spp = int(tags.get(_T_SPP, [1])[0])
    if w <= 0 or h <= 0 or w * h * max(spp, 1) > (1 << 34):
        # decode_gtiff materializes the full raster; refuse
        # pathological dimensions fast instead of hanging (the
        # reference opens such files lazily and never reads them)
        raise ValueError(f"TIFF raster too large to decode: {w}x{h}"
                         f"x{spp}")
    bits_list = tags.get(_T_BITS, [8])
    bits = int(bits_list[0] if isinstance(bits_list, list) else bits_list)
    comp = int(tags.get(_T_COMP, [1])[0])
    sfmt_l = tags.get(_T_SFMT, [1])
    sfmt = int(sfmt_l[0] if isinstance(sfmt_l, list) else sfmt_l)
    planar = int(tags.get(_T_PLANAR, [1])[0])
    pred = int(tags.get(_T_PREDICTOR, [1])[0])
    jt = tags.get(347)                  # JPEGTables (abbreviated JPEG)
    jpegtables = bytes(jt) if isinstance(jt, (bytes, bytearray)) \
        else (bytes(jt) if isinstance(jt, list) and jt
              and isinstance(jt[0], int) else None)
    photo = int(tags.get(_T_PHOTO, [1])[0])
    ycbcr_packed = photo == 6 and comp not in (6, 7)
    if photo == 6 and comp != 7:
        if ycbcr_packed and bits != 8:
            raise ValueError("YCbCr TIFF: only 8-bit supported")
        ss = tags.get(530, [2, 2])
        ss_h, ss_v = int(ss[0]), int(ss[1])
        if ycbcr_packed and ss_v == 4 and ss_h != 4:
            # matches the reference suite: 1x4 / 2x4 raise, 4x4 reads
            raise ValueError(
                f"YCbCr subsampling {ss_h}x{ss_v} not supported")
        yc_luma = tuple(float(v) for v in tags.get(
            529, [0.299, 0.587, 0.114]))
        yc_refbw = tuple(float(v) for v in tags.get(
            532, [0.0, 255.0, 128.0, 255.0, 128.0, 255.0]))
    else:
        ss_h = ss_v = 2
        yc_luma = (0.299, 0.587, 0.114)
        yc_refbw = (0.0, 255.0, 128.0, 255.0, 128.0, 255.0)
    is_bilevel = bits == 1
    if is_bilevel:
        bits = 8  # expand 1-bit rows to one byte per pixel below
    # odd bit depths (2/4/10/12/24...): bit-packed MSB-first rows,
    # promoted like the reference (<=8 -> Byte, <=16 -> (U)Int16,
    # <=32 -> (U)Int32, 24-bit float -> Float32)
    odd_bits = bits % 8 != 0 or (bits == 24)
    if odd_bits:
        if sfmt == 3:
            if bits != 24:
                raise ValueError(f"unsupported TIFF sample: {bits} "
                                 "bits fmt 3")
            dt = np.dtype("=f4")
        elif bits <= 8:
            dt = np.dtype("u1" if sfmt != 2 else "i1")
        elif bits <= 16:
            dt = np.dtype("=u2" if sfmt != 2 else "=i2")
        elif bits <= 32:
            dt = np.dtype("=u4" if sfmt != 2 else "=i4")
        else:
            raise ValueError(f"unsupported TIFF sample: {bits} bits")
    else:
        dt = _dtype_of(bits, sfmt, bo)
    cint = sfmt == 5              # complex int: value PAIRS of dt
    odt = (np.dtype("c8") if bits == 32 else np.dtype("c16")) if cint \
        else dt.newbyteorder("=")
    # planar=2 (separate): each block carries ONE band, bands iterate
    # in the outer block dimension
    bspp = spp if planar == 1 else 1

    out = np.zeros((h, w, spp), dtype=odt)

    def unpack_odd(raw: bytes, bh: int, bw: int) -> bytes:
        """Bit-packed (or 3-byte) samples → native ``dt`` bytes."""
        spr = bw * bspp                   # samples per row
        if bits == 24:
            rowbytes = spr * 3
            need = rowbytes * bh
            if len(raw) < need:
                raw = raw + b"\x00" * (need - len(raw))
            a = np.frombuffer(raw, np.uint8, count=need) \
                .reshape(-1, 3).astype(np.uint32)
            if sfmt == 3:
                # 24-bit float, little-endian bytes: 1 sign / 7 exp
                # (bias 63) / 16 mantissa (layout verified against
                # the reference's float24.tif → byte.tif values)
                u24 = (a[:, 0] | (a[:, 1] << 8) | (a[:, 2] << 16)) \
                    if bo == "<" else (a[:, 2] | (a[:, 1] << 8)
                                       | (a[:, 0] << 16))
                s = np.where(u24 & 0x800000, -1.0, 1.0)
                e = ((u24 >> 16) & 0x7F).astype(np.int64)
                m = (u24 & 0xFFFF).astype(np.float64)
                v = np.where(
                    e == 0, m / 65536.0 * 2.0 ** -62,
                    np.where(e == 0x7F,
                             np.where(m == 0, np.inf, np.nan),
                             (1.0 + m / 65536.0)
                             * np.exp2(e.astype(np.float64) - 63)))
                return (s * v).astype("=f4").tobytes()
            # 24-bit ints: MSB-first sample bytes regardless of the
            # container byte order (reference int24.tif: 107 stored
            # as 00 00 6B in an II file)
            u24 = a[:, 2] | (a[:, 1] << 8) | (a[:, 0] << 16)
            if sfmt == 2:                 # sign extend 24 -> 32
                v = u24.astype(np.int64)
                v = np.where(v & 0x800000, v - (1 << 24), v)
                return v.astype("=i4").tobytes()
            return u24.astype("=u4").tobytes()
        rowbytes = (spr * bits + 7) // 8
        need = rowbytes * bh
        if len(raw) < need:
            raw = raw + b"\x00" * (need - len(raw))
        rows = np.frombuffer(raw, np.uint8, count=need) \
            .reshape(bh, rowbytes)
        vals = unpack_rows(rows, bits, spr).astype(np.int64)
        if sfmt == 2:
            vals = np.where(vals & (1 << (bits - 1)),
                            vals - (1 << bits), vals)
        return vals.astype(dt).tobytes()

    def place(block_bytes, row0, col0, bh, bw, band0):
        if odd_bits:
            block_bytes = unpack_odd(block_bytes, bh, bw)
        vals_per = 2 if cint else 1
        need = bh * bw * bspp * dt.itemsize * vals_per
        if len(block_bytes) < need:
            # writers may truncate edge blocks — pad with zeros
            block_bytes = block_bytes + b"\x00" * (need - len(block_bytes))
        if cint:
            if pred == 2:
                raise ValueError("predictor on complex-int TIFF")
            pair = np.frombuffer(block_bytes, dtype=dt,
                                 count=bh * bw * bspp * 2) \
                .reshape(bh, bw, bspp, 2).astype(dt.newbyteorder("="))
            arr = (pair[..., 0].astype(odt)
                   + np.complex64(1j) * pair[..., 1].astype(odt))
        else:
            arr = np.frombuffer(block_bytes, dtype=dt,
                                count=bh * bw * bspp).reshape(bh, bw, bspp)
            arr = arr.astype(dt.newbyteorder("="))
        if pred == 2 and not cint:
            a = np.cumsum(arr.astype(np.int64), axis=1) \
                if not np.issubdtype(arr.dtype, np.floating) \
                else np.cumsum(arr, axis=1)
            arr = a.astype(dt.newbyteorder("="))
        eh = min(bh, h - row0)
        ew = min(bw, w - col0)
        out[row0:row0 + eh, col0:col0 + ew,
            band0:band0 + bspp] = arr[:eh, :ew]

    def expand(raw, bh, bw):
        """Strip payload → byte-per-pixel rows for 1-bit TIFFs:
        CCITT fax (comp 2/3/4 via codecs/fax.py) or byte-aligned
        packed rows (uncompressed/deflate/LZW/PackBits)."""
        if comp in (2, 3, 4):
            from .fax import decode_g3, decode_g4
            if comp == 4:
                rows = decode_g4(raw, bw, bh)
            elif comp == 3:
                g3opt = int(tags.get(292, [0])[0])
                rows = decode_g3(raw, bw, bh, two_d=bool(g3opt & 1))
            else:  # 2: modified huffman, per-row byte-aligned, no EOL
                from .fax import decode_mh
                rows = decode_mh(raw, bw, bh)
            # fax emits black=1; photometric min-is-white (0) means
            # black is 0 in the sample space → GDAL returns the raw
            # bits, so keep 1=black unless min-is-black flips it
            if int(tags.get(_T_PHOTO, [0])[0]) == 1:
                rows = 1 - rows
            return rows.tobytes()
        raw = _decompress(raw, comp)
        spb = bw * bspp  # samples per row (chunky interleave)
        rowbytes = (spb + 7) // 8
        a = np.frombuffer(raw, np.uint8,
                          count=min(len(raw), rowbytes * bh))
        if a.size < rowbytes * bh:
            a = np.pad(a, (0, rowbytes * bh - a.size))
        return unpack_rows(a.reshape(bh, rowbytes), 1, spb).tobytes()

    if _T_TILE_OFF in tags:
        tw = int(tags[_T_TILE_W][0])
        tl = int(tags[_T_TILE_H][0])
        offs = tags[_T_TILE_OFF]
        cnts = tags[_T_TILE_CNT]
        tiles_across = -(-w // tw)
        tiles_per_band = tiles_across * (-(-h // tl))
        for ti, (o, c) in enumerate(zip(offs, cnts)):
            if o == 0:
                continue                 # sparse block (unwritten)
            if c == 0:                   # zeroed count: infer from
                nxt = [oo for oo in offs if oo > o]   # neighbours
                c = (min(nxt) if nxt else len(mv)) - o
            band0 = 0 if planar == 1 else ti // tiles_per_band
            bi = ti if planar == 1 else ti % tiles_per_band
            row0 = (bi // tiles_across) * tl
            col0 = (bi % tiles_across) * tw
            if comp == 6:                # old-style JPEG
                blk = _decode_ojpeg_block(bytes(mv[o:o + c]), mv,
                                          tags, tl, tw, yc_luma,
                                          yc_refbw, ss_h, ss_v)
            elif comp in (7, 50001, 34887):
                blk = _decode_pixel_block(mv[o:o + c], comp, tl, tw,
                                          bspp, dt, jpegtables)
            elif is_bilevel:
                blk = expand(mv[o:o + c], tl, tw)
            elif ycbcr_packed:
                blk = _ycbcr_to_rgb(_decompress(mv[o:o + c], comp),
                                    tl, tw, ss_h, ss_v, yc_luma,
                                    yc_refbw)
            else:
                blk = _decompress(mv[o:o + c], comp)
            place(blk, row0, col0, tl, tw, band0)
    else:
        rps = int(tags.get(_T_RPS, [h])[0])
        offs = tags[_T_STRIP_OFF]
        cnts = tags[_T_STRIP_CNT]
        strips_per_band = -(-h // rps)
        for si, (o, c) in enumerate(zip(offs, cnts)):
            if o == 0:
                continue                 # sparse block (unwritten)
            if c == 0:
                nxt = [oo for oo in offs if oo > o]
                c = (min(nxt) if nxt else len(mv)) - o
            band0 = 0 if planar == 1 else si // strips_per_band
            bi = si if planar == 1 else si % strips_per_band
            row0 = bi * rps
            bh = min(rps, h - row0)
            if comp == 6:                # old-style JPEG
                blk = _decode_ojpeg_block(bytes(mv[o:o + c]), mv,
                                          tags, bh, w, yc_luma,
                                          yc_refbw, ss_h, ss_v)
            elif comp in (7, 50001, 34887):
                blk = _decode_pixel_block(mv[o:o + c], comp, bh, w,
                                          bspp, dt, jpegtables)
            elif is_bilevel:
                blk = expand(mv[o:o + c], bh, w)
            elif ycbcr_packed:
                blk = _ycbcr_to_rgb(_decompress(mv[o:o + c], comp),
                                    bh, w, ss_h, ss_v, yc_luma,
                                    yc_refbw)
            elif comp == 32766:          # NeXT 2-bit
                blk = _next_decode(bytes(mv[o:o + c]), bh,
                                   (w * bits * bspp + 7) // 8, w)
            elif comp == 32809:          # ThunderScan 4-bit
                blk = _thunder_decode(bytes(mv[o:o + c]), bh, w)
            elif comp == 34676:          # SGILOG LogL16
                if photo != 32844 or bits != 16:
                    raise ValueError("SGILOG: only LogL 16-bit "
                                     "grayscale supported")
                blk = _sgilog16_decode(bytes(mv[o:o + c]), bh, w, bo)
            else:
                blk = _decompress(mv[o:o + c], comp)
            place(blk, row0, 0, bh, w, band0)

    gt = None
    if _T_TRANSFORM in tags:
        m = tags[_T_TRANSFORM]
        gt = (m[3], m[0], m[1], m[7], m[4], m[5])
    elif _T_PIXEL_SCALE in tags and _T_TIEPOINT in tags:
        sx, sy = tags[_T_PIXEL_SCALE][0], tags[_T_PIXEL_SCALE][1]
        tp = tags[_T_TIEPOINT]
        # tiepoint: (i, j, k, X, Y, Z) — raster (i,j) maps to world (X,Y)
        gt = (tp[3] - tp[0] * sx, sx, 0.0, tp[4] + tp[1] * sy, 0.0, -sy)

    crs = None
    if _T_GEO_KEYS in tags:
        gk = tags[_T_GEO_KEYS]
        for i in range(4, len(gk), 4):
            key, loc, cnt, val = gk[i:i + 4]
            if key == 3072 and loc == 0:          # ProjectedCSTypeGeoKey
                crs = f"EPSG:{val}"
            elif key == 2048 and loc == 0 and crs is None:  # GeographicType
                crs = f"EPSG:{val}"

    nodata = None
    if _T_NODATA in tags:
        raw = tags[_T_NODATA]
        s = raw.split(b"\x00")[0].decode() if isinstance(raw, (bytes, bytearray)) \
            else "".join(chr(c) for c in raw if c).strip()
        try:
            nodata = float(s)
        except ValueError:
            nodata = None

    px = out[:, :, 0] if spp == 1 else out
    (next_off,) = struct.unpack_from(
        bo + ("Q" if big else "I"), mv, entry0 + int(n_tags) * esize)
    return GeoTiff(px, gt, crs, nodata), next_off


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

_DT_TO_TIFF = {
    np.dtype("u1"): (8, 1), np.dtype("u2"): (16, 1), np.dtype("u4"): (32, 1),
    np.dtype("u8"): (64, 1),
    np.dtype("i1"): (8, 2), np.dtype("i2"): (16, 2), np.dtype("i4"): (32, 2),
    np.dtype("i8"): (64, 2),
    np.dtype("f2"): (16, 3), np.dtype("f4"): (32, 3), np.dtype("f8"): (64, 3),
    # complex writes as CFloat32/CFloat64 (sfmt 6) — same policy as the
    # reference, which only creates CInt on explicit request
    np.dtype("c8"): (64, 6), np.dtype("c16"): (128, 6),
}

# EPSG codes 4001-4999 are (with a handful of exceptions) geographic
# 2D CRS — the classification GeoTIFF needs to pick GeographicTypeGeoKey
# (2048) vs ProjectedCSTypeGeoKey (3072). The exceptions in that range
# that are NOT geographic: 4087/4088 (World Equidistant Cylindrical,
# projected) and 4978 (WGS84 geocentric).
_NON_GEOGRAPHIC_4XXX = {4087, 4088, 4978}


def is_geographic_epsg(code: int) -> bool:
    """True if the EPSG code names a geographic (lon/lat) CRS."""
    return 4001 <= code <= 4999 and code not in _NON_GEOGRAPHIC_4XXX


def encode_gtiff(pixels: np.ndarray, *, geotransform=None, crs=None,
                 nodata=None, tile_size: int = 256,
                 compress: str = "deflate", bigtiff: bool = False) -> bytes:
    """Encode (h, w[, bands]) → tiled little-endian GeoTIFF bytes.
    ``bigtiff=True`` writes the BigTIFF layout (magic 43, 8-byte
    offsets, LONG8 tile offsets — the >4 GB output path; the
    reference's CreationOption BIGTIFF=YES, frmts/gtiff)."""
    px = pixels if pixels.ndim == 3 else pixels[:, :, None]
    h, w, spp = px.shape
    dt = px.dtype
    if dt not in _DT_TO_TIFF:
        raise ValueError(f"unsupported dtype {dt}")
    bits, sfmt = _DT_TO_TIFF[dt]
    comp_id = {"none": 1, "deflate": 8}[compress]

    ts = tile_size
    tiles_across = -(-w // ts)
    tiles_down = -(-h // ts)
    blocks = []
    for ty in range(tiles_down):
        for tx in range(tiles_across):
            tile = np.zeros((ts, ts, spp), dtype=dt)
            sub = px[ty * ts:(ty + 1) * ts, tx * ts:(tx + 1) * ts]
            tile[:sub.shape[0], :sub.shape[1]] = sub
            raw = np.ascontiguousarray(tile).astype(
                dt.newbyteorder("<")).tobytes()
            blocks.append(zlib.compress(raw, 6) if comp_id == 8 else raw)

    # --- assemble tag data ---
    entries: list[tuple[int, int, int, bytes]] = []   # (tag, type, count, payload)

    def tag_short(t, v):
        entries.append((t, 3, 1, struct.pack("<HH", v, 0)))

    def tag_long(t, v):
        entries.append((t, 4, 1, struct.pack("<I", v)))

    def tag_longs(t, vals):
        entries.append((t, 4, len(vals),
                        struct.pack(f"<{len(vals)}I", *vals)))

    def tag_doubles(t, vals):
        entries.append((t, 12, len(vals),
                        struct.pack(f"<{len(vals)}d", *vals)))

    def tag_ascii(t, s):
        b = s.encode() + b"\x00"
        entries.append((t, 2, len(b), b))

    def tag_shorts(t, vals):
        entries.append((t, 3, len(vals),
                        struct.pack(f"<{len(vals)}H", *vals)))

    tag_long(_T_WIDTH, w)
    tag_long(_T_HEIGHT, h)
    tag_shorts(_T_BITS, [bits] * spp)
    tag_short(_T_COMP, comp_id)
    tag_short(_T_PHOTO, 2 if spp >= 3 else 1)
    tag_short(_T_SPP, spp)
    tag_short(_T_PLANAR, 1)
    if spp > 3:
        tag_shorts(_T_EXTRA_SAMPLES, [0] * (spp - 3))
    tag_shorts(_T_SFMT, [sfmt] * spp)
    tag_short(_T_TILE_W, ts)
    tag_short(_T_TILE_H, ts)
    # offsets patched later
    tag_longs(_T_TILE_OFF, [0] * len(blocks))
    tag_longs(_T_TILE_CNT, [len(b) for b in blocks])
    if geotransform is not None:
        g = geotransform
        tag_doubles(_T_PIXEL_SCALE, [g[1], -g[5], 0.0])
        tag_doubles(_T_TIEPOINT, [0.0, 0.0, 0.0, g[0], g[3], 0.0])
    if crs is not None and crs.upper().startswith("EPSG:"):
        code = int(crs.split(":")[1])
        is_geo = is_geographic_epsg(code)
        keys = [1, 1, 0, 3,
                1024, 0, 1, 2 if is_geo else 1,   # GTModelType
                1025, 0, 1, 1]                    # RasterPixelIsArea
        keys += ([2048, 0, 1, code] if is_geo else [3072, 0, 1, code])
        keys[3] = (len(keys) - 4) // 4
        tag_shorts(_T_GEO_KEYS, keys)
    if nodata is not None:
        tag_ascii(_T_NODATA, repr(float(nodata)))

    entries.sort(key=lambda e: e[0])

    # layout: header + IFD + out-of-line tag data + blocks
    inline = 8 if bigtiff else 4
    if bigtiff:
        ifd_off = 16
        ifd_size = 8 + 20 * len(entries) + 8
    else:
        ifd_off = 8
        ifd_size = 2 + 12 * len(entries) + 4
    data_off = ifd_off + ifd_size
    out_of_line = []
    fixed = []
    for t, typ, cnt, payload in entries:
        if bigtiff and t == _T_TILE_OFF:
            typ = 16                                 # LONG8 offsets
            payload = struct.pack(f"<{cnt}Q", *([0] * cnt))
        size = len(payload)
        if size <= inline:
            fixed.append((t, typ, cnt, payload.ljust(inline, b"\x00"), None))
        else:
            fixed.append((t, typ, cnt, None, len(out_of_line)))
            out_of_line.append(payload)
    ool_offsets = []
    cur = data_off
    for p in out_of_line:
        ool_offsets.append(cur)
        cur += len(p) + (len(p) & 1)   # word align
    block_offsets = []
    for b in blocks:
        block_offsets.append(cur)
        cur += len(b) + (len(b) & 1)

    # patch tile offsets payload
    off_fmt = "Q" if bigtiff else "I"
    for i, (t, typ, cnt, payload, ooli) in enumerate(fixed):
        if t == _T_TILE_OFF:
            new_payload = struct.pack(f"<{len(blocks)}{off_fmt}",
                                      *block_offsets)
            if len(new_payload) <= inline:
                fixed[i] = (t, typ, cnt, new_payload.ljust(inline, b"\x00"),
                            None)
            else:
                out_of_line[ooli] = new_payload

    buf = bytearray()
    if bigtiff:
        buf += b"II+\x00" + struct.pack("<HHQ", 8, 0, ifd_off)
        buf += struct.pack("<Q", len(fixed))
        for t, typ, cnt, payload, ooli in fixed:
            if payload is not None:
                buf += struct.pack("<HHQ", t, typ, cnt) + payload
            else:
                buf += struct.pack("<HHQQ", t, typ, cnt,
                                   ool_offsets[ooli])
        buf += struct.pack("<Q", 0)     # next IFD
    else:
        buf += b"II*\x00" + struct.pack("<I", ifd_off)
        buf += struct.pack("<H", len(fixed))
        for t, typ, cnt, payload, ooli in fixed:
            if payload is not None:
                buf += struct.pack("<HHI", t, typ, cnt) + payload
            else:
                buf += struct.pack("<HHII", t, typ, cnt, ool_offsets[ooli])
        buf += struct.pack("<I", 0)     # next IFD
    for p in out_of_line:
        buf += p
        if len(p) & 1:
            buf += b"\x00"
    for b in blocks:
        buf += b
        if len(b) & 1:
            buf += b"\x00"
    return bytes(buf)
