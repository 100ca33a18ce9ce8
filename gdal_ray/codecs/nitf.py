"""NITF (National Imagery Transmission Format) reader — from scratch.

Parses the fixed-width ASCII file header and image-segment subheaders
of NITF 2.1 / NSIF 1.0 / NITF 2.0 / NITF 1.1 per the public
MIL-STD-2500 layout; field offsets cross-checked against the
reference driver (frmts/nitf/nitffile.cpp:90-360 header + segment
lists, nitfimage.c:130-1010 image subheader, block map and IMODE
offsets).  Own numpy implementation — data is MSB (big-endian),
blocks tile row-major, IMODE B/P/R/S interleavings differ only in the
stride layout inside a block.

Supported IC codes: NC/NM (uncompressed, with block masks and nodata
TPXCD), C3/M3 (JPEG, decoded with this repo's own T.81 codec),
C8/M8 (JPEG2000 via codecs/jp2.py), C1 (bilevel ITU-T T.4/T.6 via
codecs/fax.py when present).  Sub-byte ABPP unpacks MSB-first.

Georeferencing from ICORDS/IGEOLO corner coordinates (G/D/N/S/U
forms, nitfimage.c:263-348): four corners → affine geotransform when
the mapping is affine-consistent.

Goldens in tests/test_nitf.py follow the reference autotest
(gdrivers/nitf.py): rgb.ntf band 3 checksum 21349 + geotransform,
i_3034c/i_3034f/ns3034d checksum 170 (1-bit + LUT),
U_1050A.NTF 65024 (C1 fax).
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import unpack_fields

__all__ = ["decode_nitf", "read_nitf_info"]


def _f(buf: bytes, off: int, n: int) -> str:
    return buf[off:off + n].decode("latin-1", "replace")


def _fi(buf: bytes, off: int, n: int) -> int:
    s = _f(buf, off, n).strip()
    return int(s) if s and s.lstrip("+-").isdigit() else 0


class _ImageSeg:
    """One IM segment: subheader fields + data window."""
    __slots__ = ("header_start", "header_size", "data_start",
                 "data_size", "rows", "cols", "pvtype", "irep", "icat",
                 "abpp", "icords", "igeolo", "ic", "comrat", "bands",
                 "imode", "bpr", "bpc", "bw", "bh", "nbpp", "luts",
                 "irepbands", "block_start", "nodata", "meta")


def _parse_igeolo(icords: str, igeolo: str):
    """Four corner coordinates (UL, UR, LR, LL) in lon/lat. Forms:
    G=DMS, D=decimal degrees, N/S=UTM zone+easting+northing,
    U=MGRS (unsupported → None)."""
    pts = []
    for i in range(4):
        cp = igeolo[i * 15:(i + 1) * 15]
        try:
            if icords in ("G", "C"):
                lat = (float(cp[0:2]) + float(cp[2:4]) / 60.0 +
                       float(cp[4:6]) / 3600.0)
                if cp[6] in "sS":
                    lat = -lat
                lon = (float(cp[7:10]) + float(cp[10:12]) / 60.0 +
                       float(cp[12:14]) / 3600.0)
                if cp[14] in "wW":
                    lon = -lon
                pts.append((lon, lat))
            elif icords == "D":
                lat = float(cp[0:7])
                lon = float(cp[7:15])
                pts.append((lon, lat))
            elif icords in ("N", "S"):
                zone = int(cp[0:2])
                x = float(cp[2:8])
                y = float(cp[8:15])
                pts.append((x, y, zone))
            else:
                return None, None
        except ValueError:
            return None, None
    zone = pts[0][2] if icords in ("N", "S") else None
    return [(p[0], p[1]) for p in pts], zone


def _corners_to_gt(pts, rows, cols):
    """UL/UR/LR/LL corner-pixel-CENTER coordinates → affine
    geotransform (the reference's adjusted-IGEOLO interpretation:
    spacing over cols-1 / rows-1, origin shifted out half a pixel)."""
    (ulx, uly), (urx, ury), (lrx, lry), (llx, lly) = pts
    if cols < 2 or rows < 2:
        return None
    dx = (urx - ulx) / (cols - 1)
    rx = (llx - ulx) / (rows - 1)
    dy4 = (ury - uly) / (cols - 1)
    dy = (lly - uly) / (rows - 1)
    gt = (ulx - dx / 2 - rx / 2, dx, rx,
          uly - dy4 / 2 - dy / 2, dy4, dy)
    # verify LR is consistent (affine, not rotated beyond tolerance)
    px = ulx + dx * (cols - 1) + rx * (rows - 1)
    py = uly + dy4 * (cols - 1) + dy * (rows - 1)
    tol = max(abs(dx), abs(dy)) * 2
    if abs(px - lrx) > tol or abs(py - lry) > tol:
        return None
    return gt


def read_nitf_info(buf: bytes):
    """Parse header + all IM segments → (version, [segments])."""
    ver = _f(buf, 0, 9)
    if not (ver.startswith("NITF") or ver.startswith("NSIF")):
        raise ValueError("not a NITF file")
    fsdwng = _f(buf, 280, 6)
    hl_off = 394 if (ver.startswith("NITF01.") or
                     fsdwng == "999998") else 354
    header_len = _fi(buf, hl_off, 6)
    if header_len < hl_off or header_len > len(buf):
        raise ValueError("NITF header length corrupt")

    # segment tables: IM (6,10) then GR/LA/TX/DE/RE which we only
    # need to skip over (nitffile.cpp:333-356)
    segs = []
    off = hl_off + 6
    n_im = _fi(buf, off, 3)
    off += 3
    next_data = header_len
    for _ in range(n_im):
        hsize = _fi(buf, off, 6)
        dsize = _fi(buf, off + 6, 10)
        seg = _ImageSeg()
        seg.header_start = next_data
        seg.header_size = hsize
        seg.data_start = next_data + hsize
        seg.data_size = dsize
        segs.append(seg)
        next_data += hsize + dsize
        off += 16
    for seg in segs:
        _parse_image_subheader(buf, seg, ver)
    return ver, segs


def _parse_image_subheader(buf: bytes, seg: _ImageSeg, ver: str):
    h0 = seg.header_start
    sub = buf[h0:h0 + seg.header_size]
    seg.meta = {"IID1": _f(sub, 2, 10).strip(),
                "IDATIM": _f(sub, 12, 14).strip()}
    # NROWS at 333 (+40 when NITF 1.x or the 2.0 conditional-downgrade
    # block is present) — nitfimage.c:199-246
    base = 333
    if ver.startswith("NITF01.") or _f(sub, 284, 6) == "999998":
        base += 40
    seg.rows = seg.cols = 0
    seg.pvtype = "INT"
    seg.irep = seg.icat = ""
    seg.abpp = 0
    if not ver.startswith("NITF01."):
        seg.rows = _fi(sub, base, 8)
        seg.cols = _fi(sub, base + 8, 8)
        seg.pvtype = _f(sub, base + 16, 3).strip()
        seg.irep = _f(sub, base + 19, 8).strip()
        seg.icat = _f(sub, base + 27, 8).strip()
        seg.abpp = _fi(sub, base + 35, 2)
    off = base + 38

    seg.icords = _f(sub, off, 1)
    off += 1
    # NITF 2.0/1.x: 'N' means no IGEOLO; 2.1 uses ' ' (N = UTM north)
    if ver.startswith(("NITF02.0", "NITF01.")) and seg.icords == "N":
        seg.icords = " "
    seg.igeolo = ""
    if seg.icords != " ":
        seg.igeolo = _f(sub, off, 60)
        off += 60

    nicom = _fi(sub, off, 1)
    off += 1 + nicom * 80
    seg.ic = _f(sub, off, 2)
    off += 2
    seg.comrat = ""
    if seg.ic not in ("NC", "NM"):
        seg.comrat = _f(sub, off, 4).strip()
        off += 4
    nbands = _fi(sub, off, 1)
    off += 1
    if nbands == 0:
        nbands = _fi(sub, off, 5)
        off += 5
    seg.bands = nbands
    seg.luts = []
    seg.irepbands = []
    for _b in range(nbands):
        seg.irepbands.append(_f(sub, off, 2).strip())
        off += 2 + 6 + 4  # IREPBAND, ISUBCAT, IFC+IMFLT
        nluts = _fi(sub, off, 1)
        off += 1
        lut = None
        if nluts:
            nent = _fi(sub, off, 5)
            off += 5
            nent = min(max(nent, 0), 256)
            lut = np.zeros((3, 256), np.uint8)
            for il in range(nluts):
                if il < 3:
                    lut[il, :nent] = np.frombuffer(
                        sub, np.uint8, count=nent, offset=off)
                off += nent
            if nluts == 1:
                lut[1] = lut[0]
                lut[2] = lut[0]
        seg.luts.append(lut)

    if off + 40 > seg.header_size:
        # truncated subheader: single-block defaults
        seg.imode = "B"
        seg.bpr = seg.bpc = 1
        seg.bw, seg.bh = seg.cols, seg.rows
        seg.nbpp = seg.abpp
    else:
        seg.imode = _f(sub, off + 1, 1)
        seg.bpr = _fi(sub, off + 2, 4)
        seg.bpc = _fi(sub, off + 6, 4)
        seg.bw = _fi(sub, off + 10, 4) or seg.cols
        seg.bh = _fi(sub, off + 14, 4) or seg.rows
        seg.nbpp = _fi(sub, off + 18, 2)
    if ver.startswith("NITF01."):
        seg.cols = seg.bpr * seg.bw
        seg.rows = seg.bpc * seg.bh

    seg.nodata = None
    seg.block_start = None  # filled by _block_map


def _strides(seg):
    """Per-IMODE offsets inside/between blocks (nitfimage.c:770-815):
    word, pixel, line, band, block strides in bytes."""
    word = 1 if seg.nbpp <= 8 else 2 if seg.nbpp <= 16 else \
        4 if seg.nbpp <= 32 else seg.nbpp // 8
    if seg.imode == "S":
        pixel = word
        line = seg.bw * seg.nbpp // 8
        block = line * seg.bh
        band = block * seg.bpr * seg.bpc
    elif seg.imode == "P":
        pixel = word * seg.bands
        line = seg.bw * seg.nbpp * seg.bands // 8
        band = word
        block = line * seg.bh
    elif seg.imode == "R":
        pixel = word
        band = seg.bw * seg.nbpp // 8
        line = band * seg.bands
        block = line * seg.bh
    else:  # B
        pixel = word
        line = seg.bw * seg.nbpp // 8
        band = seg.bh * line
        block = band * seg.bands
    return word, pixel, line, band, block


def _block_map(buf: bytes, seg: _ImageSeg):
    """Block start offsets; for masked IC (NM/M3/M8) read the mask
    table, else pack tightly (nitfimage.c:830-1010). UINT_MAX marks
    a missing block."""
    nblocks = seg.bpr * seg.bpc * seg.bands
    starts = np.zeros(nblocks, np.int64)
    _w, _p, _l, band_off, block_off = _strides(seg)
    masked = seg.ic in ("NM", "M3", "M4", "M8", "M1")
    if not masked:
        for by in range(seg.bpc):
            for bx in range(seg.bpr):
                for ib in range(seg.bands):
                    i = bx + by * seg.bpr + ib * seg.bpr * seg.bpc
                    starts[i] = (seg.data_start +
                                 (bx + by * seg.bpr) * block_off +
                                 ib * band_off)
        return starts
    p = seg.data_start
    imdatoff, bmrlnth, tmrlnth, tpxcdlnth = struct.unpack_from(
        ">IHHH", buf, p)
    p += 10
    if tpxcdlnth == 8:
        seg.nodata = buf[p]
        p += 1
    else:
        p += (tpxcdlnth + 7) // 8
    if bmrlnth == 4:
        per_band = seg.imode == "P"
        n_stored = seg.bpr * seg.bpc if per_band else nblocks
        offs = np.frombuffer(buf, ">u4", count=n_stored, offset=p)
        for i in range(n_stored):
            if offs[i] == 0xFFFFFFFF:
                starts[i] = -1
                if per_band:
                    for ib in range(1, seg.bands):
                        starts[i + ib * seg.bpr * seg.bpc] = -1
            else:
                starts[i] = seg.data_start + imdatoff + int(offs[i])
                if per_band:
                    for ib in range(1, seg.bands):
                        starts[i + ib * seg.bpr * seg.bpc] = \
                            starts[i] + ib * band_off
    else:
        # no block mask records: tightly packed after the mask table
        for by in range(seg.bpc):
            for bx in range(seg.bpr):
                for ib in range(seg.bands):
                    i = bx + by * seg.bpr + ib * seg.bpr * seg.bpc
                    starts[i] = (seg.data_start + imdatoff +
                                 (bx + by * seg.bpr) * block_off +
                                 ib * band_off)
    return starts


def _dtype(seg):
    if seg.pvtype == "R":
        return np.dtype(">f4") if seg.nbpp <= 32 else np.dtype(">f8")
    if seg.pvtype == "C":
        return np.dtype(">c8")
    if seg.pvtype == "SI":
        return {1: np.dtype("i1"), 2: np.dtype(">i2"),
                4: np.dtype(">i4")}[max(1, seg.nbpp // 8)]
    return {1: np.dtype("u1"), 2: np.dtype(">u2"),
            4: np.dtype(">u4")}[max(1, (seg.nbpp + 7) // 8)]


def _read_uncompressed(buf, seg, starts):
    h, w, nb = seg.rows, seg.cols, seg.bands
    _word, pixel, line, band_off, _blk = _strides(seg)
    if seg.nbpp < 8:
        out = np.zeros((h, w, nb), np.uint8)
    else:
        out = np.zeros((h, w, nb), _dtype(seg))
    fill = seg.nodata if seg.nodata is not None else 0
    out.fill(fill)
    for by in range(seg.bpc):
        for bx in range(seg.bpr):
            y0, x0 = by * seg.bh, bx * seg.bw
            ch = min(seg.bh, h - y0)
            cw = min(seg.bw, w - x0)
            if ch <= 0 or cw <= 0:
                continue
            for ib in range(nb):
                i = bx + by * seg.bpr + ib * seg.bpr * seg.bpc
                s = starts[i]
                if s < 0:
                    continue
                if seg.nbpp < 8:
                    # sub-byte: one continuous MSB-first bitstream
                    # over the whole block, no per-row padding
                    # (nitfrasterband.cpp 1/2/4-bit unpack)
                    nbits = seg.bw * seg.bh * seg.nbpp
                    raw = np.frombuffer(
                        buf, np.uint8, count=(nbits + 7) // 8,
                        offset=int(s))
                    blk = unpack_fields(raw, seg.nbpp, seg.bw * seg.bh)\
                        .reshape(seg.bh, seg.bw)
                    out[y0:y0 + ch, x0:x0 + cw, ib] = blk[:ch, :cw]
                    continue
                # strided view over the block
                dt = _dtype(seg)
                need = (seg.bh - 1) * line + (seg.bw - 1) * pixel + \
                    dt.itemsize
                raw = np.frombuffer(buf, np.uint8, count=need,
                                    offset=int(s))
                blk = np.lib.stride_tricks.as_strided(
                    raw, shape=(seg.bh, seg.bw, dt.itemsize),
                    strides=(line, pixel, 1))
                blk = np.ascontiguousarray(
                    blk[:ch, :cw]).reshape(ch, cw,
                                           dt.itemsize).view(dt)
                out[y0:y0 + ch, x0:x0 + cw, ib] = blk[:, :, 0]
    return out


def _read_jpeg_blocks(buf, seg, starts):
    from .jpeg import decode as jpeg_decode
    h, w, nb = seg.rows, seg.cols, seg.bands
    out = np.zeros((h, w, nb), np.uint8)
    n_spatial = seg.bpr * seg.bpc
    for i in range(n_spatial):
        s = starts[i]
        if s < 0:
            continue
        end = starts[starts > s].min() if (starts > s).any() else \
            seg.data_start + seg.data_size
        px = jpeg_decode(bytes(buf[int(s):int(end)]))
        if px.ndim == 2:
            px = px[:, :, None]
        by, bx = divmod(i, seg.bpr)
        y0, x0 = by * seg.bh, bx * seg.bw
        ch = min(px.shape[0], h - y0)
        cw = min(px.shape[1], w - x0)
        out[y0:y0 + ch, x0:x0 + cw, :] = px[:ch, :cw, :nb]
    return out


def _read_jp2(buf, seg):
    from .jp2 import decode_jp2
    px, _gt, _nd, _meta = decode_jp2(
        bytes(buf[seg.data_start:seg.data_start + seg.data_size]))
    if px.ndim == 2:
        px = px[:, :, None]
    return px


def _read_fax(buf, seg, starts):
    from .fax import decode_g3_g4
    h, w = seg.rows, seg.cols
    out = np.zeros((h, w, 1), np.uint8)
    for i in range(seg.bpr * seg.bpc):
        s = starts[i]
        if s < 0:
            continue
        end = starts[starts > s].min() if (starts > s).any() else \
            seg.data_start + seg.data_size
        blk = decode_g3_g4(bytes(buf[int(s):int(end)]),
                           seg.bw, seg.bh, seg.comrat)
        by, bx = divmod(i, seg.bpr)
        y0, x0 = by * seg.bh, bx * seg.bw
        ch, cw = min(seg.bh, h - y0), min(seg.bw, w - x0)
        out[y0:y0 + ch, x0:x0 + cw, 0] = blk[:ch, :cw]
    return out


def decode_nitf(buf: bytes, segment: int = 0):
    """Decode image segment ``segment`` → (pixels, geotransform,
    nodata, meta).  Pixels shape (h, w) or (h, w, bands)."""
    ver, segs = read_nitf_info(buf)
    imgs = [s for s in segs if s.rows > 0 and s.cols > 0]
    if not imgs:
        raise ValueError("NITF file has no image segment")
    seg = imgs[segment]
    starts = _block_map(buf, seg)
    seg.block_start = starts

    ic = seg.ic
    if ic in ("NC", "NM"):
        px = _read_uncompressed(buf, seg, starts)
    elif ic in ("C3", "M3"):
        px = _read_jpeg_blocks(buf, seg, starts)
    elif ic in ("C8", "M8"):
        px = _read_jp2(buf, seg)
    elif ic == "C1":
        px = _read_fax(buf, seg, starts)
    else:
        raise NotImplementedError(
            f"NITF: IC={ic!r} compression not supported "
            "(supported: NC NM C3 M3 C8 M8 C1)")
    if px.shape[2] == 1:
        px = px[:, :, 0]

    gt = None
    meta = {"driver": "NITF", "version": ver, "IC": ic,
            "IREP": seg.irep, **seg.meta}
    if seg.igeolo.strip():
        pts, zone = _parse_igeolo(seg.icords, seg.igeolo)
        if pts:
            gt = _corners_to_gt(pts, seg.rows, seg.cols)
            if zone is not None:
                epsg = (32600 + zone if seg.icords == "N"
                        else 32700 + zone)
                meta["crs"] = f"EPSG:{epsg}"
            elif gt is not None:
                meta["crs"] = "EPSG:4326"
    if seg.luts and seg.luts[0] is not None:
        meta["color_table"] = seg.luts[0]
    meta["num_segments"] = len(imgs)
    return px, gt, seg.nodata, meta
