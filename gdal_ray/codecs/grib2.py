"""GRIB2 reader — WMO FM 92 GRIB edition 2 (frmts/grib analog).

Reference: frmts/grib wraps degrib + g2clib; this module parses the
public WMO spec directly for the templates the reference's fixtures
use:

  * sections 0-8, multiple messages per file (one band each),
    multiple grids per message tolerated (sections 3-7 repeat);
  * grid definition template 3.0 (regular lat/lon, scan-mode flip,
    microdegree units) → geotransform; other grid templates parse
    with a named grid id in metadata (no geotransform);
  * data representation templates 5.0 (simple packing), 5.2/5.3
    (complex packing incl. spatial differencing orders 1-2 and
    missing-value management), 5.4 (IEEE float), 5.40 (JPEG2000 —
    decoded by the engine's own codecs/jp2.py), 5.41 (PNG — own
    codecs/png.py), 5.42 (CCSDS/AEC — own Rice decoder below);
  * section 6 bitmaps (indicator 0) → masked values become nodata;
  * GRIB1 (edition 1) messages: IBM hex floats, simple packing,
    lat/lon + gaussian grids, bitmaps (degrib UNDEFINED 9999 fill,
    surfaced as missing_value).

Values decode as (R + X·2^E) / 10^D with GRIB's sign-magnitude
signed fields. Goldens (tests/test_grib2.py): the reference's own
fixtures — MRMS EchoTop (PNG packing) checksum 41854
(autotest/gdrivers/grib.py test_grib_grib2_read_png), IEEE/simple
fixtures, JPEG2000 packing.
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import unpack_fields


def _s16(b: bytes) -> int:
    """GRIB sign-magnitude int16."""
    v = int.from_bytes(b, "big")
    return -(v & 0x7FFF) if v & 0x8000 else v


def _s32(b: bytes) -> int:
    v = int.from_bytes(b, "big")
    return -(v & 0x7FFFFFFF) if v & 0x80000000 else v


def sniff_grib(buf: bytes) -> bool:
    return buf[:4] == b"GRIB"


class Grib2Message:
    __slots__ = ("values", "ni", "nj", "geotransform", "meta")


def _grid_template0(seg: bytes):
    """Regular lat/lon grid → (ni, nj, geotransform, flip_j)."""
    ni = int.from_bytes(seg[30:34], "big")
    nj = int.from_bytes(seg[34:38], "big")
    basic = int.from_bytes(seg[38:42], "big")
    sub = int.from_bytes(seg[42:46], "big")
    unit = 1e-6
    if basic not in (0, 0xFFFFFFFF) and sub not in (0, 0xFFFFFFFF):
        unit = basic / sub
    lat1 = _s32(seg[46:50]) * unit
    lon1 = _s32(seg[50:54]) * unit
    lat2 = _s32(seg[55:59]) * unit
    lon2 = _s32(seg[59:63]) * unit
    di = int.from_bytes(seg[63:67], "big") * unit
    dj = int.from_bytes(seg[67:71], "big") * unit
    scan = seg[71]
    if scan & 0x80:                      # -i direction
        lon1, lon2 = lon2, lon1
    if lon1 >= 180.0:                    # antimeridian start: GDAL
        lon1 -= 360.0                    # presents [-180, 180)
        lon2 -= 360.0
    lat_top = max(lat1, lat2)
    if lon1 > lon2:
        lon2 += 360.0
    gt = (lon1 - di / 2, di, 0.0, lat_top + dj / 2, 0.0, -dj)
    return ni, nj, gt, scan


def _decode_data(drs_templ: int, drs: bytes, data: bytes, npoints: int):
    """Section 5 template + section 7 payload → (values, nodata)."""
    if drs_templ == 4:                   # IEEE floating point
        prec = drs[11] if len(drs) > 11 else 1
        dt = {1: ">f4", 2: ">f8"}.get(prec)
        if dt is None:
            raise ValueError(f"GRIB2 IEEE precision {prec} unsupported")
        return (np.frombuffer(data, dt, count=npoints)
                .astype(np.float64), None)

    (ref,) = struct.unpack(">f", drs[11:15])
    e_scale = _s16(drs[15:17])
    d_scale = _s16(drs[17:19])
    nbits = drs[19]
    if nbits == 0 and drs_templ in (0, 40, 41):
        # constant field: every point equals the reference value
        return np.full(npoints, ref / (10.0 ** d_scale)), None
    if drs_templ == 0:                   # simple packing
        x = unpack_fields(data, nbits, npoints)
    elif drs_templ == 40:                # JPEG2000 code stream
        from .jp2 import decode_j2k
        bands = decode_j2k(bytes(data))
        x = bands[0].astype(np.int64).ravel()
        if len(x) < npoints:
            x = np.pad(x, (0, npoints - len(x)))
        x = x[:npoints]
    elif drs_templ == 41:                # PNG
        from .png import decode as png_decode
        px = png_decode(bytes(data))
        x = np.asarray(px).astype(np.int64).ravel()[:npoints]
    elif drs_templ == 42:                # CCSDS/AEC (Rice)
        from .aec import aec_decode
        ccsds_flags = drs[21]
        block_size = drs[22]
        rsi = int.from_bytes(drs[23:25], "big")
        x = aec_decode(bytes(data), nbits, ccsds_flags,
                       block_size, rsi, npoints)
    elif drs_templ in (2, 3):
        x = _complex_unpack(drs, data, npoints, drs_templ)
        if isinstance(x, tuple):
            x, miss, pmiss = x
            v = (ref + x.astype(np.float64) * (2.0 ** e_scale)) \
                / (10.0 ** d_scale)
            v[miss] = pmiss
            return v, pmiss
    else:
        raise ValueError(f"GRIB2 DRS template {drs_templ} unsupported")
    return (ref + x.astype(np.float64) * (2.0 ** e_scale)) \
        / (10.0 ** d_scale), None


def _complex_unpack(drs: bytes, data: bytes, npoints: int,
                    templ: int) -> np.ndarray:
    """DRS 5.2/5.3 complex packing (+ spatial differencing): group
    splitting per the WMO template definitions."""
    nbits = drs[19]
    field_type = drs[20]
    missing_mgmt = drs[22]
    if missing_mgmt not in (0, 1):
        raise ValueError("GRIB2 complex packing with secondary "
                         "missing values unsupported")
    if missing_mgmt == 1:
        if field_type == 0:
            (pmiss,) = struct.unpack(">f", drs[23:27])
        else:
            pmiss = float(_s32(drs[23:27]))
    ng = int.from_bytes(drs[31:35], "big")
    gw_ref = drs[35]
    gw_bits = drs[36]
    gl_ref = int.from_bytes(drs[37:41], "big")
    gl_inc = drs[41]
    gl_last = int.from_bytes(drs[42:46], "big")
    gl_bits = drs[46]
    bitpos = 0
    od = 0
    gmin = 0
    init = []
    if templ == 3:
        od = drs[47]
        octets = drs[48]
        nb8 = octets * 8
        head = unpack_fields(data, nb8, od + 1)
        bitpos = nb8 * (od + 1)
        # sign-magnitude extras
        def sm(v):
            sbit = 1 << (nb8 - 1)
            return -(int(v) & (sbit - 1)) if int(v) & sbit else int(v)
        init = [sm(v) for v in head[:od]]
        gmin = sm(head[od])

    # group references, widths and lengths, each array byte-aligned
    groups = []
    for nb in (nbits, gw_bits, gl_bits):
        groups.append(unpack_fields(data, nb, ng, bit_offset=bitpos))
        bitpos = (bitpos + nb * ng + 7) // 8 * 8
    grefs, gwidths, glens = groups
    gwidths = gwidths + gw_ref
    glens = glens * gl_inc + gl_ref
    if ng:
        glens[-1] = gl_last
    out = np.empty(int(glens.sum()), np.int64)
    miss = np.zeros(int(glens.sum()), bool)
    p = 0
    gmax = (1 << nbits) - 1 if nbits else 0
    for g in range(ng):
        cnt = int(glens[g])
        w = int(gwidths[g])
        vals = unpack_fields(data, w, cnt, bit_offset=bitpos)
        bitpos += w * cnt
        if missing_mgmt == 1:
            if w == 0:
                # width-0 group: all points share gref, or all missing
                # when gref is the all-ones sentinel (g2clib comunpack)
                if int(grefs[g]) == gmax:
                    miss[p:p + cnt] = True
                    out[p:p + cnt] = 0
                else:
                    out[p:p + cnt] = int(grefs[g])
            else:
                sent = (1 << w) - 1
                m = vals == sent
                miss[p:p + cnt] = m
                out[p:p + cnt] = np.where(m, 0, vals + int(grefs[g]))
        else:
            out[p:p + cnt] = vals + int(grefs[g])
        p += cnt
    out = out[:npoints]
    miss = miss[:npoints]
    if templ == 3 and od:
        # g2clib comunpack.c: values past the seeds get gmin added,
        # then integrate od times (x[n] = d[n] + 2x[n-1] - x[n-2] for
        # order 2 == double cumulative sum with difference seeds)
        # with missing management, the differenced stream covers only
        # the NON-missing points (g2clib comunpack.c)
        sel = ~miss if missing_mgmt == 1 else np.ones(len(out), bool)
        d = out[sel].astype(np.int64)
        d[od:] += gmin
        if od == 1 and len(d) >= 1:
            d[0] = init[0]               # x = cumsum([x0, d1+g, ...])
            d = np.cumsum(d)
        elif od == 2 and len(d) >= 2:
            # x[n] = d[n] + 2x[n-1] - x[n-2]  ⇔  double cumsum of
            # [x0, x1 - 2·x0, d2+g, ...]
            d[0] = init[0]
            d[1] = init[1] - 2 * init[0]
            d = np.cumsum(np.cumsum(d))
        out = out.copy()
        out[sel] = d
    if missing_mgmt == 1 and miss.any():
        return out, miss, pmiss
    return out


def parse_grib2(buf: bytes) -> list[Grib2Message]:
    """All messages (and repeated grids within messages) → list of
    Grib2Message (one per band)."""
    out = []
    pos = 0
    n = len(buf)
    while pos + 16 <= n:
        if buf[pos:pos + 4] != b"GRIB":
            pos += 1
            continue
        discipline = buf[pos + 6]
        edition = buf[pos + 7]
        if edition == 1:
            m, end = _parse_grib1_message(buf, pos)
            out.append(m)
            pos = end
            continue
        if edition != 2:
            raise ValueError(f"GRIB edition {edition} unsupported")
        total = int.from_bytes(buf[pos + 8:pos + 16], "big")
        end = pos + total
        p = pos + 16
        grid = None
        drs_templ = None
        drs = None
        bitmap = None
        prev_bitmap = None
        meta: dict = {}
        while p + 5 <= end:
            if buf[p:p + 4] == b"7777":
                break
            ln = int.from_bytes(buf[p:p + 4], "big")
            sec = buf[p + 4]
            seg = buf[p:p + ln]
            if sec == 1:
                meta["ref_time"] = tuple(
                    int.from_bytes(seg[12:14], "big")
                    if k == 0 else seg[14 + k - 1]
                    for k in range(6))
            elif sec == 3:
                gtempl = int.from_bytes(seg[12:14], "big")
                meta["grid_template"] = gtempl
                npoints = int.from_bytes(seg[6:10], "big")
                if gtempl == 0:
                    grid = _grid_template0(seg)
                else:
                    # most templates (10/12/20/30/31/140) keep Ni/Nj
                    # in octets 31-38; geotransform left to the
                    # projected-CRS metadata (not derived here). The
                    # scanning-mode octet varies per template: +j
                    # storage (0x40) is flipped to north-up like
                    # template 0.
                    ni_ = int.from_bytes(seg[30:34], "big")
                    nj_ = int.from_bytes(seg[34:38], "big")
                    if ni_ * nj_ != npoints or not ni_:
                        ni_ = nj_ = None
                    scan_at = {10: 59, 20: 64, 30: 64,
                               31: 64, 140: 64}.get(gtempl)
                    scan = seg[scan_at] \
                        if scan_at is not None and len(seg) > scan_at \
                        else 0
                    grid = (ni_, nj_, None, scan)
                meta["npoints"] = npoints
            elif sec == 4:
                meta["product_template"] = int.from_bytes(seg[7:9],
                                                          "big")
                meta["category"] = seg[9]
                meta["parameter"] = seg[10]
            elif sec == 5:
                drs_templ = int.from_bytes(seg[9:11], "big")
                meta["npoints_packed"] = int.from_bytes(seg[5:9], "big")
                drs = seg
            elif sec == 6:
                ind = seg[5]
                if ind == 0:
                    bitmap = np.unpackbits(
                        np.frombuffer(seg[6:], np.uint8))
                    prev_bitmap = bitmap
                elif ind == 254:         # reuse previously defined
                    bitmap = prev_bitmap
                elif ind == 255:
                    bitmap = None
                else:
                    raise ValueError(
                        f"GRIB2 bitmap indicator {ind} unsupported")
            elif sec == 7:
                npoints = meta.get("npoints", 0)
                npacked = meta.get("npoints_packed", npoints)
                vals, msg_nodata = _decode_data(drs_templ, drs,
                                                seg[5:], npacked)
                if bitmap is not None:
                    full = np.full(npoints, np.nan)
                    idx = np.flatnonzero(bitmap[:npoints])
                    full[idx[:len(vals)]] = vals[:len(idx)]
                    vals = full
                # degrib's unit conversion (metaname.c): fields whose
                # canonical unit is Kelvin present as Celsius.  Not
                # every category-0 parameter is in K — 8 is lapse rate
                # (K m-1), 10/11/16 are heat fluxes (W m-2), 19 is
                # numeric, 20 is a diffusion coefficient (m2 s-1).
                _K_PARAMS = {0, 1, 2, 3, 4, 5, 6, 7, 9,
                             12, 13, 14, 15, 17, 18, 21}
                if discipline == 0 and (
                        (meta.get("category") == 0
                         and meta.get("parameter") in _K_PARAMS)
                        or (meta.get("category"), meta.get("parameter"))
                        == (5, 7)):
                    if msg_nodata is not None:
                        keep = vals == msg_nodata
                        vals = np.where(keep, vals, vals - 273.15)
                    else:
                        vals = vals - 273.15
                m = Grib2Message()
                ni, nj, gt, scan = grid
                if ni and nj and ni * nj == len(vals):
                    arr = vals.reshape(nj, ni)
                    if scan & 0x10:      # boustrophedon: odd rows
                        arr = arr.copy()  # scan backwards
                        arr[1::2] = arr[1::2, ::-1]
                    if scan & 0x80:      # -i direction: mirror east-west
                        arr = arr[:, ::-1]
                    if scan & 0x40:      # +j storage: flip north-up
                        arr = arr[::-1]
                else:
                    arr = vals.reshape(1, -1)
                m.values = arr
                m.ni, m.nj = ni, nj
                m.geotransform = gt
                meta2 = dict(meta)
                if msg_nodata is not None:
                    meta2["missing_value"] = float(msg_nodata)
                m.meta = meta2
                out.append(m)
                bitmap = None
            p += ln
        pos = end if total else pos + 4
    if not out:
        raise ValueError("no GRIB2 messages found")
    return out


def decode_grib2(buf: bytes):
    """GRIB2 bytes → (pixels (h, w[, bands]), geotransform | None,
    nodata, meta). Bands = messages sharing the first message's
    grid."""
    msgs = parse_grib2(buf)
    first = msgs[0]
    bands = [m.values for m in msgs
             if m.values.shape == first.values.shape]
    px = bands[0] if len(bands) == 1 else np.stack(bands, axis=-1)
    nodata = first.meta.get("missing_value")
    if nodata is None and np.isnan(px).any():
        nodata = np.nan
    meta = dict(first.meta)
    meta["n_messages"] = len(msgs)
    if first.geotransform is not None:
        meta["crs"] = "EPSG:4326"
    return px, first.geotransform, nodata, meta


# ---------------------------------------------------------------------------
# GRIB edition 1 (WMO FM 92-VIII): PDS/GDS/BMS/BDS, simple packing,
# IBM hex floats — the legacy half of frmts/grib (degrib grib1)
# ---------------------------------------------------------------------------

def _ibm_float(b: bytes) -> float:
    v = int.from_bytes(b, "big")
    sign = -1.0 if v & 0x80000000 else 1.0
    exp = (v >> 24) & 0x7F
    mant = v & 0xFFFFFF
    return sign * mant * 16.0 ** (exp - 64) / 2.0 ** 24


def _sm3(b: bytes) -> int:
    v = int.from_bytes(b, "big")
    return -(v & 0x7FFFFF) if v & 0x800000 else v


def _parse_grib1_message(buf: bytes, pos: int):
    total = int.from_bytes(buf[pos + 4:pos + 7], "big")
    end = pos + total
    p = pos + 8
    # PDS
    pds_len = int.from_bytes(buf[p:p + 3], "big")
    pds = buf[p:p + pds_len]
    flags = pds[7]
    param = pds[8]
    d_scale = _s16(pds[26:28]) if pds_len >= 28 else 0
    p += pds_len
    ni = nj = None
    gt = None
    flip_j = False
    flip_i = False
    if flags & 0x80:                     # GDS present
        gds_len = int.from_bytes(buf[p:p + 3], "big")
        gds = buf[p:p + gds_len]
        gtype = gds[5]
        ni = int.from_bytes(gds[6:8], "big")
        nj = int.from_bytes(gds[8:10], "big")
        if gtype in (0, 4, 10):          # lat/lon (incl. gaussian-ish)
            lat1 = _sm3(gds[10:13]) / 1000.0
            lon1 = _sm3(gds[13:16]) / 1000.0
            lat2 = _sm3(gds[17:20]) / 1000.0
            lon2 = _sm3(gds[20:23]) / 1000.0
            di = int.from_bytes(gds[23:25], "big") / 1000.0
            dj = int.from_bytes(gds[25:27], "big") / 1000.0
            scan = gds[27]
            if scan & 0x80:
                lon1, lon2 = lon2, lon1
            flip_j = bool(scan & 0x40)
            flip_i = bool(scan & 0x80)
            lat_top = max(lat1, lat2)
            gt = (lon1 - di / 2, di, 0.0, lat_top + dj / 2, 0.0, -dj)
        p += gds_len
    bitmap = None
    if flags & 0x40:                     # BMS present
        bms_len = int.from_bytes(buf[p:p + 3], "big")
        if int.from_bytes(buf[p + 4:p + 6], "big") != 0:
            raise ValueError("GRIB1 predefined bitmaps unsupported")
        bitmap = np.unpackbits(
            np.frombuffer(buf[p + 6:p + bms_len], np.uint8))
        p += bms_len
    # BDS
    bds_len = int.from_bytes(buf[p:p + 3], "big")
    bds = buf[p:p + bds_len]
    bflags = bds[3] >> 4
    if bflags & 0x4 or bflags & 0x8:
        raise ValueError("GRIB1 second-order/integer packing "
                         "unsupported")
    unused = bds[3] & 0x0F
    e_scale = _s16(bds[4:6])
    ref = _ibm_float(bds[6:10])
    nbits = bds[10]
    npoints = (ni * nj) if ni and nj else \
        ((bds_len - 11) * 8 - unused) // max(nbits, 1)
    if bitmap is not None:
        npacked = int(bitmap[:npoints].sum())
    else:
        npacked = npoints
    if nbits == 0:
        vals = np.full(npacked, ref)
    else:
        x = unpack_fields(bds[11:], nbits, npacked)
        vals = ref + x.astype(np.float64) * 2.0 ** e_scale
    vals = vals / 10.0 ** d_scale
    # degrib presentation: temperature parameters (NCEP table: 11 TMP,
    # 15 TMAX, 16 TMIN, 17 DPT) are Kelvin → Celsius
    if param in (11, 15, 16, 17):
        vals = vals - 273.15
    missing = None
    if bitmap is not None:
        # degrib fills bitmap-missing points with UNDEFINED (9.999e20)
        # and resets to UNDEFINED_PRIM (9999) only when the data range
        # allows it: gridAttrib.min is the (converted) reference value
        # and max the largest decoded value (degrib1.cpp:1769-1800)
        attr_min = (ref * 2.0 ** e_scale) / 10.0 ** d_scale
        if param in (11, 15, 16, 17):
            attr_min -= 273.15
        attr_max = max(attr_min, float(vals.max())) if len(vals) \
            else attr_min
        if attr_max < 9999.0 or attr_min > 9999.0:
            missing = 9999.0
        elif attr_max >= 9.999e20 and attr_min <= 9.999e20:
            missing = attr_max + 1.0
        else:
            missing = 9.999e20
        full = np.full(npoints, missing)
        idx = np.flatnonzero(bitmap[:npoints])
        full[idx[:len(vals)]] = vals[:len(idx)]
        vals = full
    m = Grib2Message()
    if ni and nj and ni * nj == len(vals):
        arr = vals.reshape(nj, ni)
        if flip_i:
            arr = arr[:, ::-1]
        if flip_j:
            arr = arr[::-1]
    else:
        arr = vals.reshape(1, -1)
    m.values = arr
    m.ni, m.nj = ni, nj
    m.geotransform = gt
    m.meta = {"edition": 1, "parameter": param}
    if missing is not None:
        # bitmap-missing points were filled with degrib's sentinel
        m.meta["missing_value"] = missing
    return m, end
