"""Second batch of simple/raw raster formats, each parsed from its
public layout: GenBin, PCI .aux (PAux), NLAPS NDF, NOAA .b geoid,
Erdas Imagine Raw (EIR), Vexcel MFF, USGS DOQ2, NSIDC sea-ice .bin,
ACE2, USGS LULC CTG, KOLOR KRO, ISCE, FARSITE LCP, SIGDEM and ZMap.

Every decoder returns ``(pixels, geotransform, nodata, meta)``;
``sources/raster.py`` routes by extension/sniff. Reference drivers:
frmts/raw/{genbindataset,pauxdataset,ndfdataset,noaabdataset,
eirdataset,mffdataset,doq2dataset,nsidcbindataset,ace2dataset,
krodataset,iscedataset,lcpdataset}.cpp, frmts/ctg/ctgdataset.cpp,
frmts/sigdem/sigdemdataset.cpp, frmts/zmap/zmapdataset.cpp. Goldens
in tests/test_rawexotic.py come from the reference's own autotest
expectations (genbin 5738, paux band2 12816, ndf 6510 + gt, noaa_b 3,
eir 1, mff 1/1/4672, doq2 4201/4010/5820 + gt, ctg 21, isce 350,
lcp per-band lists, ace2/nsidcbin probes).
"""

from __future__ import annotations

import math
import os
import re
import struct

import numpy as np

_GDT = {
    "u1": np.uint8, "i1": np.int8, "u2": np.uint16, "i2": np.int16,
    "u4": np.uint32, "i4": np.int32, "f4": np.float32, "f8": np.float64,
    "c8": np.complex64, "c16": np.complex128,
}


def _raw_band(buf: bytes, img_off: int, pix_off: int, line_off: int,
              w: int, h: int, dtype: np.dtype) -> np.ndarray:
    """Strided raw-band extraction with zero-fill past EOF (GDAL's
    RawRasterBand returns zeros for truncated files in read-only
    windows that tests exercise)."""
    dtype = np.dtype(dtype)
    need = img_off + (h - 1) * line_off + (w - 1) * pix_off + dtype.itemsize
    if len(buf) < need:
        buf = buf + b"\x00" * (need - len(buf))
    arr = np.frombuffer(buf, np.uint8)
    out = np.empty((h, w), dtype)
    if pix_off == dtype.itemsize:
        for y in range(h):
            o = img_off + y * line_off
            out[y] = np.frombuffer(buf, dtype, w, o)
    else:
        base = img_off + np.arange(h)[:, None] * line_off \
            + np.arange(w)[None, :] * pix_off
        idx = base[:, :, None] + np.arange(dtype.itemsize)[None, None, :]
        out = arr[idx].reshape(h, w * dtype.itemsize).view(dtype)
    return out


# ------------------------------------------------------------ GenBin
def decode_genbin(path: str):
    """Generic binary (.hdr with colon-separated keys; BANDS/ROWS/COLS/
    INTERLEAVING/DATATYPE). genbindataset.cpp:543-710; gt from
    UL/LR pixel-centre coordinates (:689-709)."""
    hdr_path = os.path.splitext(path)[0] + ".hdr"
    kv = {}
    key = None
    for line in open(hdr_path, errors="replace"):
        if ":" in line:
            key, val = line.split(":", 1)
            key = key.strip().upper()
            kv[key] = val.strip()
        elif key:
            kv[key] += " " + line.strip()
    w = int(kv["COLS"])
    h = int(kv["ROWS"])
    nb = int(kv.get("BANDS", "1"))
    dt_name = kv.get("DATATYPE", "U8").upper()
    dt = {"U8": "u1", "U16": "u2", "S16": "i2", "F32": "f4",
          "F64": "f8", "S32": "i4", "U32": "u4"}.get(dt_name)
    if dt is None:
        raise ValueError(f"GenBin datatype {dt_name} not supported "
                         "(U1/U2/U4 sub-byte types out of scope)")
    bo = "<" if kv.get("BYTE_ORDER", "LSB").upper().startswith("L") else ">"
    if kv.get("BYTE_ORDER", "").upper() == "NA":
        bo = "<"
    dtype = np.dtype(bo + dt)
    buf = open(path, "rb").read()
    il = kv.get("INTERLEAVING", "BSQ").upper()
    isz = dtype.itemsize
    bands = []
    for b in range(nb):
        if il == "BSQ":
            bands.append(_raw_band(buf, b * w * h * isz, isz, w * isz,
                                   w, h, dtype))
        elif il == "BIL":
            bands.append(_raw_band(buf, b * w * isz, isz, nb * w * isz,
                                   w, h, dtype))
        else:  # BIP
            bands.append(_raw_band(buf, b * isz, nb * isz, nb * w * isz,
                                   w, h, dtype))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    gt = None
    if all(k in kv for k in ("UL_X_COORDINATE", "UL_Y_COORDINATE",
                             "LR_X_COORDINATE", "LR_Y_COORDINATE")):
        ulx = float(kv["UL_X_COORDINATE"])
        uly = float(kv["UL_Y_COORDINATE"])
        lrx = float(kv["LR_X_COORDINATE"])
        lry = float(kv["LR_Y_COORDINATE"])
        xs = (lrx - ulx) / (w - 1)
        ys = (lry - uly) / (h - 1)
        gt = (ulx - xs * 0.5, xs, 0.0, uly - ys * 0.5, 0.0, ys)
    return px, gt, None, {"driver": "GenBin", "header": kv}


# -------------------------------------------------------------- PAux
def decode_paux(path: str):
    """PCI .aux labelled raw (pauxdataset.cpp:486-690):
    RawDefinition "w h nbands"; ChanDefinition-N "type imgoff pixoff
    lineoff [Swapped]"."""
    aux = os.path.splitext(path)[0] + ".aux"
    if not os.path.exists(aux):
        aux = path + ".aux"
    kv = {}
    for line in open(aux, errors="replace"):
        if ":" in line:
            k, v = line.split(":", 1)
            kv[k.strip()] = v.strip()
    if "AuxilaryTarget" not in kv and "AuxiliaryTarget" not in kv:
        raise ValueError("not a PAux header")
    w, h, nb = [int(t) for t in kv["RawDefinition"].split()[:3]]
    buf = open(path, "rb").read()
    bands = []
    for b in range(1, nb + 1):
        toks = kv[f"ChanDefinition-{b}"].split()
        tname = toks[0].upper()
        dt = {"8U": "u1", "16U": "u2", "16S": "i2", "32R": "f4"}[tname]
        # PCI convention (pauxdataset.cpp:660-668): on little-endian
        # machines "Swapped" means NATIVE little-endian; "Unswapped"
        # (or anything else) means big-endian
        bo = "<" if len(toks) <= 4 or toks[4].lower() == "swapped" else ">"
        dtype = np.dtype(bo + dt) if dt != "u1" else np.dtype("u1")
        bands.append(_raw_band(buf, int(toks[1]), int(toks[2]),
                               int(toks[3]), w, h, dtype))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    gt = None
    if "UpLeftX" in kv and "LoRightX" in kv:
        ulx = float(kv["UpLeftX"])
        uly = float(kv["UpLeftY"])
        lrx = float(kv["LoRightX"])
        lry = float(kv["LoRightY"])
        gt = (ulx, (lrx - ulx) / w, 0.0, uly, 0.0, (lry - uly) / h)
    return px, gt, None, {"driver": "PAux", "header": kv}


# --------------------------------------------------------------- NDF
def decode_ndf(path: str):
    """NLAPS Data Format (ndfdataset.cpp): key=value; header ends
    each value with ';'. Band files via BANDn_FILENAME or .In
    extension; uint8 rows. gt from the four corner records with a
    half-pixel shift (:376-405)."""
    text = open(path, "rb").read().decode("latin-1", "replace")
    kv = {}
    for m in re.finditer(r"([A-Z0-9_/+-]+)=([^;\n]*)", text):
        kv[m.group(1)] = m.group(2).strip()
    w = int(kv["PIXELS_PER_LINE"])
    h = int(kv["LINES_PER_DATA_FILE"])
    nb = int(kv.get("NUMBER_OF_BANDS_IN_VOLUME", "0"))
    bands = []
    for b in range(1, nb + 1):
        fname = kv.get(f"BAND{b}_FILENAME", "")
        if fname:
            fpath = os.path.join(os.path.dirname(path), fname)
        else:
            fpath = os.path.splitext(path)[0] + f".I{b}"
        buf = open(fpath, "rb").read()
        bands.append(_raw_band(buf, 0, 1, w, w, h, np.dtype("u1")))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    gt = None

    def corner(key):
        toks = kv.get(key, "").split(",")
        return [float(t) for t in toks[2:4]] if len(toks) == 4 else None
    ul = corner("UPPER_LEFT_CORNER")
    ur = corner("UPPER_RIGHT_CORNER")
    ll = corner("LOWER_LEFT_CORNER")
    if ul and ur and ll:
        xs = (ur[0] - ul[0]) / (w - 1)
        xr = (ur[1] - ul[1]) / (w - 1)
        yr = (ll[0] - ul[0]) / (h - 1)
        ys = (ll[1] - ul[1]) / (h - 1)
        gt = (ul[0] - xs * 0.5 - yr * 0.5, xs, yr,
              ul[1] - xr * 0.5 - ys * 0.5, xr, ys)
    meta = {"driver": "NDF", "header": kv}
    if kv.get("MAP_PROJECTION_NAME", "").startswith("UTM") and \
            kv.get("USGS_MAP_ZONE"):
        zone = int(kv["USGS_MAP_ZONE"])
        meta["crs"] = f"+proj=utm +zone={abs(zone)}" + \
            (" +south" if zone < 0 else "") + " +datum=WGS84"
    return px, gt, None, meta


# ------------------------------------------------------------ NOAA_B
def decode_noaab(buf: bytes):
    """NOAA nadcon5/vertcon3 .b grid (noaabdataset.cpp): 52-byte
    Fortran record (4-byte marker + 4 float64 + 3 int32 + marker),
    then rows south->north each wrapped in 4-byte markers. Endianness
    probed by sanity checks exactly like IdentifyEx (:147-171)."""
    for bo in (">", "<"):
        swlat, swlon, dlat, dlon = struct.unpack_from(bo + "4d", buf, 4)
        nrows, ncols, kind = struct.unpack_from(bo + "3i", buf, 36)
        if (abs(swlat) <= 90 and abs(swlon) <= 360
                and 0 < dlat <= 1 and 0 < dlon <= 1
                and 0 < nrows and swlat + (nrows - 1) * dlat <= 90
                and 0 < ncols and (ncols - 1) * dlon <= 360
                and -1 <= kind <= 2):
            break
    else:
        raise ValueError("not a NOAA .b grid")
    if kind == -1:
        raise ValueError("NOAA .b KIND=-1 not supported")
    dt = np.dtype(bo + {0: "i4", 1: "f4", 2: "i2"}[kind])
    line = 4 + ncols * dt.itemsize + 4
    rows = [np.frombuffer(buf, dt, ncols, 52 + r * line + 4)
            for r in range(nrows)]
    px = np.ascontiguousarray(np.stack(rows)[::-1])  # north-up
    if swlon > 180:
        swlon -= 360
    gt = (swlon - dlon / 2.0, dlon, 0.0,
          swlat + (nrows - 1) * dlat + dlat / 2.0, 0.0, -dlat)
    return px, gt, None, {"driver": "NOAA_B", "crs": "EPSG:4326",
                          "kind": int(kind)}


# --------------------------------------------------------------- EIR
def decode_eir(path: str):
    """Erdas Imagine Raw (eirdataset.cpp): IMAGINE_RAW_FILE token
    header; WIDTH/HEIGHT/NUM_LAYERS/PIXEL_FILES/FORMAT/DATATYPE/
    DATA_OFFSET/BYTE_ORDER."""
    kv = {}
    for line in open(path, errors="replace"):
        toks = line.split()
        if len(toks) >= 2:
            kv[toks[0].upper()] = toks[1]
    if "IMAGINE_RAW_FILE" not in open(path, errors="replace").read(64):
        raise ValueError("not an EIR header")
    w = int(kv["WIDTH"])
    h = int(kv["HEIGHT"])
    nb = int(kv.get("NUM_LAYERS", "1"))
    fmt = kv.get("FORMAT", "BIL").upper()
    dt_name = kv.get("DATATYPE", "U8").upper()
    dt = {"U1": "u1", "U2": "u1", "U4": "u1", "U8": "u1", "U16": "u2",
          "U32": "u4", "S16": "i2", "S32": "i4", "F32": "f4",
          "F64": "f8"}[dt_name]
    bo = "<" if kv.get("BYTE_ORDER", "LSB").upper() == "LSB" else ">"
    dtype = np.dtype(bo + dt)
    off = int(kv.get("DATA_OFFSET", "0"))
    data_path = os.path.join(os.path.dirname(path), kv["PIXEL_FILES"])
    buf = open(data_path, "rb").read()
    isz = dtype.itemsize
    bands = []
    for b in range(nb):
        if fmt == "BSQ":
            bands.append(_raw_band(buf, off + b * w * h * isz, isz,
                                   w * isz, w, h, dtype))
        elif fmt == "BIP":
            bands.append(_raw_band(buf, off + b * isz, nb * isz,
                                   nb * w * isz, w, h, dtype))
        else:  # BIL
            bands.append(_raw_band(buf, off + b * w * isz, isz,
                                   nb * w * isz, w, h, dtype))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    return px, None, None, {"driver": "EIR"}


# --------------------------------------------------------------- MFF
_MFF_EXT_TYPE = {"b": "u1", "i": "u2", "j": "c4int", "r": "f4",
                 "x": "c8", "z": "c8"}


def decode_mff(path: str):
    """Vexcel MFF (.hdr key=value + one raw file per band named by a
    type letter + band number: .b00 uint8, .i00 uint16, .r00 float32,
    .j00 CInt16, .x00/.z00 CFloat32 — mffdataset.cpp:788-890).
    Tiled layout when no_rows/tile_size_* present."""
    kv = {}
    for line in open(path, errors="replace"):
        if "=" in line:
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
    if kv.get("IMAGE_FILE_FORMAT", "").upper() not in ("MFF", ""):
        raise ValueError("not an MFF header")
    w = int(kv["LINE_SAMPLES"])
    h = int(kv["IMAGE_LINES"])
    tiled = "no_rows" in kv
    stem = os.path.splitext(path)[0]
    d = os.path.dirname(path) or "."
    base = os.path.basename(stem)
    cands = []
    for f in sorted(os.listdir(d)):
        fstem, fext = os.path.splitext(f)
        fext = fext.lstrip(".")
        if fstem == base and fext and fext[0].lower() in _MFF_EXT_TYPE \
                and fext[1:].isdigit():
            cands.append((int(fext[1:]), fext[0].lower(), f))
    cands.sort()
    if not cands:
        raise ValueError(f"no MFF band files next to {path}")
    bands = []
    for _num, letter, fname in cands:
        tcode = _MFF_EXT_TYPE[letter]
        buf = open(os.path.join(d, fname), "rb").read()
        if tcode == "c4int":  # CInt16 pairs -> complex64
            need = w * h * 4
            buf = buf + b"\x00" * max(0, need - len(buf))
            pair = np.frombuffer(buf, "<i2", w * h * 2).astype(
                np.float32).reshape(-1, 2)
            flat = (pair[:, 0] + 1j * pair[:, 1]).astype(np.complex64)
        else:
            dtype = np.dtype("<" + tcode)
            need = w * h * dtype.itemsize
            buf = buf + b"\x00" * max(0, need - len(buf))
            flat = np.frombuffer(buf, dtype, w * h)
        if tiled:
            tr = int(kv.get("tile_size_rows", "1"))
            tc = int(kv.get("tile_size_columns", "1"))
            ntx = (w + tc - 1) // tc
            nty = (h + tr - 1) // tr
            need = ntx * nty * tr * tc
            if flat.size < need:
                flat = np.concatenate(
                    [flat, np.zeros(need - flat.size, flat.dtype)])
            grid = flat[:need].reshape(nty, ntx, tr, tc)
            full = grid.transpose(0, 2, 1, 3).reshape(nty * tr, ntx * tc)
            bands.append(full[:h, :w])
        else:
            bands.append(flat.reshape(h, w))
    px = bands[0] if len(bands) == 1 else np.stack(bands, axis=-1)
    meta = {"driver": "MFF", "header": kv}
    return px, None, None, meta


# -------------------------------------------------------------- DOQ2
def decode_doq2(path: str):
    """USGS DOQ (new-style keyword header, doq2dataset.cpp:150-420):
    BEGIN_USGS_DOQ_HEADER block; BIP uint8 bands from BYTE_COUNT."""
    buf = open(path, "rb").read()
    if not buf.startswith(b"BEGIN_USGS_DOQ_HEADER"):
        raise ValueError("not a DOQ2 file")
    head = buf[:buf.find(b"END_USGS_DOQ_HEADER")].decode(
        "latin-1", "replace")
    meta: dict = {"driver": "DOQ2"}
    w = h = skip = 0
    n_contents = 0
    bpp = 1
    ulx = uly = xdim = ydim = None
    for line in head.splitlines()[1:]:
        # CSLTokenizeString semantics: whitespace split, double-quoted
        # strings are single tokens
        toks = re.findall(r'"([^"]*)"|(\S+)', line)
        toks = [a if a else b for a, b in toks]
        if len(toks) < 2:
            continue
        key = toks[0]
        if key == "SAMPLES_AND_LINES" and len(toks) >= 3:
            w, h = int(toks[1]), int(toks[2])
        elif key == "BYTE_COUNT":
            skip = int(toks[1])
        elif key == "XY_ORIGIN" and len(toks) >= 3:
            ulx, uly = float(toks[1]), float(toks[2])
        elif key == "HORIZONTAL_RESOLUTION":
            xdim = ydim = float(toks[1])
        elif key == "BITS_PER_PIXEL":
            bpp = int(toks[1]) // 8
        elif key == "BAND_CONTENT":
            n_contents += 1
        else:
            meta[key] = " ".join(t for t in toks[1:] if t != "*")
    nb = n_contents if n_contents >= 2 else bpp
    pix = bpp * (nb if n_contents >= 2 else 1)
    bands = [_raw_band(buf, skip + i, pix, pix * w, w, h, np.dtype("u1"))
             for i in range(nb)]
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    gt = None
    if ulx is not None and xdim:
        gt = (ulx, xdim, 0.0, uly, 0.0, -ydim)
    return px, gt, None, meta


# ---------------------------------------------------------- NSIDCbin
def decode_nsidcbin(path: str):
    """NSIDC nasateam sea-ice .bin (nsidcbindataset.cpp): 300-byte
    ASCII header of 6-char fields; uint8 grid; south/north polar
    stereographic by filename suffix."""
    buf = open(path, "rb").read()
    hdr = buf[:300].decode("latin-1", "replace").replace("\x00", " ")
    cols = int(hdr[6:12])
    rows = int(hdr[12:18])
    if not (0 < cols < 10000 and 0 < rows < 10000):
        raise ValueError("not an NSIDC .bin grid")
    px = np.frombuffer(buf, np.uint8, cols * rows, 300).reshape(rows, cols)
    south = "_s" in os.path.basename(path).lower()
    # published polar-stereo grids: 25 km cells; south grid UL
    # (-3950000, 4350000), north (-3850000, 5850000)
    if south:
        gt = (-3950000.0, 25000.0, 0.0, 4350000.0, 0.0, -25000.0)
        crs = "EPSG:3412"
    else:
        gt = (-3850000.0, 25000.0, 0.0, 5850000.0, 0.0, -25000.0)
        crs = "EPSG:3411"
    meta = {"driver": "NSIDCbin", "crs": crs,
            "missing": int(hdr[0:6].strip() or 255),
            "filename_field": hdr[126:150].strip(),
            "image_title": hdr[150:230].strip()}
    return np.ascontiguousarray(px), gt, float(meta["missing"]), meta


# -------------------------------------------------------------- ACE2
def decode_ace2(path: str):
    """ACE2 global DEM tiles (ace2dataset.cpp:159-230): geometry from
    the filename (45N015E_5M.ACE2 -> 15-degree tile, 180/1800/6000/
    18000 cells for 5M/30S/9S/3S), float32 LE (int16 for _CONF_/
    _QUALITY_/_SOURCE_ products)."""
    base = os.path.basename(path)
    m = re.match(r"(\d+)([NS])(\d+)([EW])", base)
    if not m:
        raise ValueError("ACE2 filename must encode the SW corner")
    lat = int(m.group(1)) * (1 if m.group(2) == "N" else -1)
    lon = int(m.group(3)) * (1 if m.group(4) == "E" else -1)
    up = base.upper()
    is_int16 = any(t in up for t in ("_CONF_", "_QUALITY_", "_SOURCE_"))
    dtype = np.dtype("<i2") if is_int16 else np.dtype("<f4")
    size = {"_5M": 180, "_30S": 1800, "_9S": 6000, "_3S": 18000}
    n = None
    for suf, cells in size.items():
        if suf in up:
            n = cells
            break
    buf = open(path, "rb").read()
    if n is None:
        n = int(round((len(buf) / dtype.itemsize) ** 0.5))
    need = n * n * dtype.itemsize
    buf = buf + b"\x00" * max(0, need - len(buf))
    px = np.frombuffer(buf, dtype, n * n).reshape(n, n)
    res = 15.0 / n
    gt = (float(lon), res, 0.0, lat + 15.0, 0.0, -res)
    nodata = None if is_int16 else -500.0
    return px, gt, nodata, {"driver": "ACE2", "crs": "EPSG:4326"}


# --------------------------------------------------------------- CTG
def decode_ctg(path: str):
    """USGS LULC Composite Theme Grid (ctgdataset.cpp): 5 header lines
    of 80 chars (rows@0:10, cols@20:30, cellsize@35:40, zone@50:55; NW
    easting/northing on line 4 @40:50/50:60); data lines carry zone,
    cell-corner x/y and 6 int32 theme values."""
    buf = open(path, "rb").read().decode("latin-1", "replace")
    lines = [buf[i:i + 80] for i in range(0, len(buf) - len(buf) % 80, 80)]
    if len(lines) < 6:
        raise ValueError("CTG file too short")
    h0 = lines[0]
    rows = int(h0[0:10])
    cols = int(h0[20:30])
    cell = int(h0[35:40])
    zone = int(h0[50:55])
    if rows <= 0 or cols <= 0 or cell <= 0 or not 1 <= zone <= 60:
        raise ValueError("not a CTG grid")
    nwe = int(lines[3][40:50])
    nwn = int(lines[3][50:60])
    px = np.zeros((rows, cols, 6), np.int32)
    for ln in lines[5:]:
        if len(ln) < 80 or not ln.strip():
            continue
        z = int(ln[0:3])
        if z != zone:
            raise ValueError(f"CTG zone mismatch {z} != {zone}")
        x = int(ln[3:11]) - cell // 2
        y = int(ln[11:19]) + cell // 2
        cx = (x - nwe) // cell
        cy = (nwn - y) // cell
        if not (0 <= cx < cols and 0 <= cy < rows):
            continue
        for i in range(6):
            px[cy, cx, i] = int(ln[20 + 10 * i:30 + 10 * i])
    gt = (float(nwe - cell // 2), float(cell), 0.0,
          float(nwn + cell // 2), 0.0, float(-cell))
    meta = {"driver": "CTG", "crs": f"EPSG:{32600 + zone}",
            "TITLE": lines[4].rstrip()}
    return px, gt, None, meta


# --------------------------------------------------------------- KRO
def decode_kro(buf: bytes):
    """KOLOR Raw (krodataset.cpp): 20-byte header "KRO\\x01" + BE
    xsize/ysize/depth/ncomp; BIP big-endian samples (depth 8 uint8,
    16 uint16, 32 float32)."""
    if buf[:4] != b"KRO\x01":
        raise ValueError("not a KRO file")
    w, h, depth, ncomp = struct.unpack_from(">4i", buf, 4)
    dt = {8: ">u1", 16: ">u2", 32: ">f4"}.get(depth)
    if dt is None:
        raise ValueError(f"KRO depth {depth}")
    px = np.frombuffer(buf, np.dtype(dt), w * h * ncomp, 20)
    px = px.reshape(h, w, ncomp)
    if ncomp == 1:
        px = px[:, :, 0]
    nd = px.dtype.newbyteorder("=")
    return np.ascontiguousarray(px.astype(nd)), None, None, \
        {"driver": "KRO"}


def encode_kro(px: np.ndarray) -> bytes:
    px = np.asarray(px)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ncomp = px.shape
    if px.dtype == np.uint8:
        depth, dt = 8, ">u1"
    elif px.dtype == np.uint16:
        depth, dt = 16, ">u2"
    else:
        depth, dt = 32, ">f4"
        px = px.astype(np.float32)
    hdr = b"KRO\x01" + struct.pack(">4i", w, h, depth, ncomp)
    return hdr + np.ascontiguousarray(px).astype(np.dtype(dt)).tobytes()


# -------------------------------------------------------------- ISCE
def decode_isce(path: str):
    """ISCE raw image + .xml property metadata (iscedataset.cpp):
    WIDTH/LENGTH/NUMBER_BANDS/DATA_TYPE/SCHEME/BYTE_ORDER properties;
    optional Coordinate1/2 components give a geotransform."""
    xml_path = path + ".xml"
    if not os.path.exists(xml_path):
        xml_path = os.path.splitext(path)[0] + ".xml"
    text = open(xml_path, errors="replace").read()
    props = dict(
        (m.group(1).upper(), m.group(2).strip())
        for m in re.finditer(
            r'<property name="([^"]+)">\s*<value>([^<]*)</value>', text))
    w = int(props["WIDTH"])
    h = int(props["LENGTH"])
    nb = int(props.get("NUMBER_BANDS", "1"))
    dt_map = {"BYTE": "u1", "SHORT": "i2", "INT": "i4", "LONG": "i8",
              "FLOAT": "f4", "DOUBLE": "f8", "CFLOAT": "c8",
              "CINT": "c8"}
    dt = dt_map[props.get("DATA_TYPE", "FLOAT").upper()]
    bo = ">" if props.get("BYTE_ORDER", "l").lower().startswith("b") else "<"
    dtype = np.dtype(bo + dt)
    scheme = props.get("SCHEME", "BIP").upper()
    buf = open(path, "rb").read()
    isz = dtype.itemsize
    need = w * h * nb * isz
    buf = buf + b"\x00" * max(0, need - len(buf))
    bands = []
    for b in range(nb):
        if scheme == "BIP":
            bands.append(_raw_band(buf, b * isz, nb * isz, nb * w * isz,
                                   w, h, dtype))
        elif scheme == "BIL":
            bands.append(_raw_band(buf, b * w * isz, isz, nb * w * isz,
                                   w, h, dtype))
        else:  # BSQ
            bands.append(_raw_band(buf, b * w * h * isz, isz, w * isz,
                                   w, h, dtype))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    gt = None
    coords = re.findall(
        r'<component name="Coordinate([12])".*?'
        r'<property name="startingValue">\s*<value>([^<]*)</value>.*?'
        r'<property name="delta">\s*<value>([^<]*)</value>', text, re.S)
    cd = {c: (float(s), float(d)) for c, s, d in coords}
    if "1" in cd and "2" in cd:
        gt = (cd["1"][0], cd["1"][1], 0.0, cd["2"][0], 0.0, cd["2"][1])
    return px, gt, None, {"driver": "ISCE", "properties": props}


# --------------------------------------------------------------- LCP
LCP_BAND_NAMES = [
    "Elevation", "Slope", "Aspect", "Fuel models", "Canopy cover",
    "Canopy height", "Canopy base height", "Canopy bulk density",
    "Duff", "Coarse woody debris"]


def decode_lcp(buf: bytes):
    """FARSITE v4 landscape (.lcp, lcpdataset.cpp): 7316-byte LE
    header (crown/ground flags at 0/4 as 20/21, latitude at 8, size
    at 4164/4168, bounds 4172-4204, cell size 4208/4216); BIP int16
    bands: 5 base + [crown: 3] + [ground: 2]."""
    if len(buf) < 7316:
        raise ValueError("LCP file too short")
    crown = struct.unpack_from("<i", buf, 0)[0]
    ground = struct.unpack_from("<i", buf, 4)[0]
    if crown not in (20, 21) or ground not in (20, 21):
        raise ValueError("not an LCP file")
    have_crown = crown != 20
    have_ground = ground != 20
    nb = 5 + (3 if have_crown else 0) + (2 if have_ground else 0)
    w = struct.unpack_from("<i", buf, 4164)[0]
    h = struct.unpack_from("<i", buf, 4168)[0]
    east, west, north, south = struct.unpack_from("<4d", buf, 4172)
    cellx, celly = struct.unpack_from("<2d", buf, 4208)
    need = 7316 + w * h * nb * 2
    data = buf + b"\x00" * max(0, need - len(buf))
    px = np.frombuffer(data, "<i2", w * h * nb, 7316).reshape(h, w, nb)
    gt = (west, cellx, 0.0, north, 0.0, -celly)
    names = LCP_BAND_NAMES[:5]
    if have_crown:
        names = names + LCP_BAND_NAMES[5:8]
    if have_ground:
        names = names + LCP_BAND_NAMES[8:10]
    meta = {"driver": "LCP", "band_names": names,
            "latitude": struct.unpack_from("<i", buf, 8)[0],
            "linear_unit": struct.unpack_from("<i", buf, 4204)[0]}
    return np.ascontiguousarray(px), gt, None, meta


# ------------------------------------------------------------ SIGDEM
_SIGDEM_NODATA_RAW = -0x80000000


def decode_sigdem(buf: bytes):
    """Scaled Integer Gridded DEM (.sigdem, sigdemdataset.cpp):
    132-byte BE header; int32 BE rows stored bottom-up; value =
    raw / scaleZ + offsetZ; raw 0x80000000 -> nodata -9999."""
    if buf[:6] != b"SIGDEM":
        raise ValueError("not a SIGDEM file")
    (version,) = struct.unpack_from(">H", buf, 6)
    (csid,) = struct.unpack_from(">i", buf, 8)
    (offx, sx, offy, sy, offz, sz, minx, miny, minz, maxx, maxy,
     maxz) = struct.unpack_from(">12d", buf, 12)
    ncols, nrows = struct.unpack_from(">2i", buf, 108)
    xdim, ydim = struct.unpack_from(">2d", buf, 116)
    raw = np.frombuffer(buf, ">i4", ncols * nrows, 132).reshape(
        nrows, ncols)
    raw = raw[::-1]  # bottom-up -> north-up
    inv = 1.0 / sz if sz else 0.0
    px = raw * inv + offz
    px = np.where(raw == _SIGDEM_NODATA_RAW, -9999.0, px)
    gt = (minx, xdim, 0.0, maxy, 0.0, -ydim)
    meta = {"driver": "SIGDEM", "version": version, "epsg": csid,
            "min_z": minz, "max_z": maxz}
    if csid > 0:
        meta["crs"] = f"EPSG:{csid}"
    return np.ascontiguousarray(px), gt, -9999.0, meta


def encode_sigdem(px: np.ndarray, gt, epsg: int = 0,
                  scale_z: float = 1000.0) -> bytes:
    px = np.asarray(px, np.float64)
    h, w = px.shape
    minx = gt[0]
    maxy = gt[3]
    xdim = gt[1]
    ydim = -gt[5]
    maxx = minx + w * xdim
    miny = maxy - h * ydim
    valid = px[px > -9999] if (px <= -9999).any() else px
    minz = float(valid.min()) if valid.size else 0.0
    maxz = float(valid.max()) if valid.size else 0.0
    hdr = b"SIGDEM" + struct.pack(">H", 1) + struct.pack(
        ">i12d2i2d", epsg,
        minx, scale_z, miny, scale_z, 0.0, scale_z,
        minx, miny, minz, maxx, maxy, maxz, w, h, xdim, ydim)
    raw = np.round((px - 0.0) * scale_z).astype(np.int64)
    raw = np.where(px <= -9999, _SIGDEM_NODATA_RAW, raw).astype(">i4")
    return hdr + np.ascontiguousarray(raw[::-1]).tobytes()


# -------------------------------------------------------------- ZMap
def decode_zmap(text: str):
    """ZYCOR/ZMap Plus ASCII grid (zmapdataset.cpp:213-400): '@'
    header with values-per-line, field width, nodata, decimals; third
    line rows/cols/minx/maxx/miny/maxy; data COLUMN-major (each column
    north->south)."""
    lines = [ln for ln in text.splitlines()]
    i = 0
    while i < len(lines) and lines[i].startswith("!"):
        i += 1
    if i >= len(lines) or not lines[i].startswith("@"):
        raise ValueError("not a ZMap grid")
    head1 = lines[i][1:].split(",")
    vpl = int(head1[2])
    head2 = lines[i + 1].split(",")
    nodata = float(head2[1])
    head3 = lines[i + 2].split(",")
    nrows = int(head3[0])
    ncols = int(head3[1])
    minx, maxx, miny, maxy = [float(v) for v in head3[2:6]]
    i += 3
    while i < len(lines) and not lines[i].startswith("@"):
        i += 1
    vals: list[float] = []
    for ln in lines[i + 1:]:
        if ln.startswith("!") or ln.startswith("+"):
            continue
        vals.extend(float(t) for t in ln.split())
        if len(vals) >= nrows * ncols:
            break
    arr = np.asarray(vals[:nrows * ncols], np.float64)
    px = arr.reshape(ncols, nrows).T  # column-major storage
    stepx = (maxx - minx) / ncols
    stepy = (maxy - miny) / nrows
    gt = (minx, stepx, 0.0, maxy, 0.0, -stepy)
    return np.ascontiguousarray(px), gt, nodata, {"driver": "ZMap",
                                                  "vpl": vpl}


def encode_zmap(px: np.ndarray, gt, nodata: float = 1e30,
                decimals: int = 7, field: int = 20) -> str:
    """Write the GDAL-compatible cell-based ZMap layout (values
    column-major, each column north->south)."""
    px = np.asarray(px, np.float64)
    h, w = px.shape
    minx = gt[0]
    maxx = gt[0] + w * gt[1]
    maxy = gt[3]
    miny = gt[3] + h * gt[5]
    vpl = 4
    out = ["!", "! Created by gdal_ray", "!",
           f"@GRID FILE, GRID, {vpl}",
           f"{field}, {nodata}, , {decimals}, 1",
           f"{h}, {w}, {minx}, {maxx}, {miny}, {maxy}",
           "0.0, 0.0, 0.0", "@"]
    flat = px.T.ravel()  # column-major
    fmt = f"%{field}.{decimals}f"
    for i in range(0, flat.size, vpl):
        out.append("".join(fmt % v for v in flat[i:i + vpl]))
    return "\n".join(out) + "\n"


# --------------------------------------------------------- MFF2 / HKV
def decode_mff2(path: str):
    """Atlantis MFF2/HKV coverage directory (frmts/raw/hkvdataset.cpp):
    ``attrib`` key=value file with { *default alt } choice lists,
    raw ``image_data`` (band-interleaved by the channel.interleave
    choice), optional ``georef`` corner file. The starred entry in a
    braced list is the selected value."""
    d = path if os.path.isdir(path) else os.path.dirname(path)

    def read_kv(fname):
        kv = {}
        p = os.path.join(d, fname)
        if not os.path.exists(p):
            return kv
        with open(p, errors="replace") as f:
            for line in f:
                if "=" in line:
                    k, v = line.split("=", 1)
                    v = v.strip()
                    if v.startswith("{"):
                        # choice list: the * marks the selection
                        toks = v.strip("{} ").split()
                        sel = [t[1:] for t in toks if t.startswith("*")]
                        v = sel[0] if sel else (toks[0] if toks else "")
                    kv[k.strip()] = v
        return kv

    at = read_kv("attrib")
    if "extent.cols" not in at or "extent.rows" not in at:
        raise ValueError(f"{d}: no MFF2 attrib with extent.cols and "
                         "extent.rows")
    w = int(at["extent.cols"])
    h = int(at["extent.rows"])
    nb = int(at.get("channel.enumeration", "1"))
    size = int(at.get("pixel.size", "8")) // 8
    enc = at.get("pixel.encoding", "unsigned")
    field = at.get("pixel.field", "real")
    order = at.get("pixel.order", "lsbf")
    bo = "<" if order == "lsbf" else ">"
    if field == "complex":
        dt = "c8" if size in (4, 8) else "c16"
    elif enc == "ieee-754":
        dt = f"f{size}"
    elif enc == "twos-complement":
        dt = f"i{size}"
    else:
        dt = f"u{size}"
    dtype = np.dtype(bo + dt) if size > 1 or field == "complex" \
        else np.dtype("u1")
    with open(os.path.join(d, "image_data"), "rb") as f:
        buf = f.read()
    need = w * h * nb * dtype.itemsize
    buf = buf + b"\x00" * max(0, need - len(buf))
    il = at.get("channel.interleave", "pixel")
    isz = dtype.itemsize
    bands = []
    for b in range(nb):
        if il == "pixel":
            bands.append(_raw_band(buf, b * isz, nb * isz, nb * w * isz,
                                   w, h, dtype))
        elif il == "line":
            bands.append(_raw_band(buf, b * w * isz, isz, nb * w * isz,
                                   w, h, dtype))
        else:  # sequential / tile
            bands.append(_raw_band(buf, b * w * h * isz, isz, w * isz,
                                   w, h, dtype))
    px = bands[0] if nb == 1 else np.stack(bands, axis=-1)
    geo = read_kv("georef")
    meta = {"driver": "MFF2", "attrib": at, "georef": geo}
    gt = None
    if "top_left.latitude" in geo:
        tl = (float(geo["top_left.longitude"]),
              float(geo["top_left.latitude"]))
        tr = (float(geo["top_right.longitude"]),
              float(geo["top_right.latitude"]))
        bl = (float(geo["bottom_left.longitude"]),
              float(geo["bottom_left.latitude"]))
        gt = (tl[0], (tr[0] - tl[0]) / w, (bl[0] - tl[0]) / h,
              tl[1], (tr[1] - tl[1]) / w, (bl[1] - tl[1]) / h)
    return px, gt, None, meta


# ------------------------------------------------------------- PCIDSK
def decode_pcidsk(path: str):
    """PCI Geomatics PCIDSK (.pix) — plain BAND/PIXEL interleaving
    (frmts/pcidsk/sdk/core/cpcidskfile.cpp: text header fields at
    fixed 512-block offsets, per-channel 1024-byte image headers with
    start_byte/pixel_offset/line_offset at 168/184/192 and the type
    name at 160). Tiled (SysBMDir) layers fail fast by name."""
    buf = open(path, "rb").read()
    if not buf.startswith(b"PCIDSK"):
        raise ValueError("not a PCIDSK file")

    def gets(off, n):
        return buf[off:off + n].decode("latin-1").strip()

    w = int(gets(384, 8))
    h = int(gets(392, 8))
    nchan = int(gets(376, 8))
    interleave = gets(360, 8).upper()
    image_start = int(gets(304, 16))
    ih_start = int(gets(336, 16))
    image_offset = (image_start - 1) * 512
    tmap = {"8U": "u1", "16S": "<i2", "16U": "<u2", "32R": "<f4"}

    bands = []
    if interleave == "PIXEL":
        counts = [int(gets(464 + 4 * i, 4) or "0") for i in range(4)]
        types = (["u1"] * counts[0] + ["<i2"] * counts[1] +
                 ["<u2"] * counts[2] + ["<f4"] * counts[3])
        pg = sum(np.dtype(t).itemsize for t in types)
        byte_off = 0
        for t in types:
            dt = np.dtype(t)
            bands.append(_raw_band(buf, image_offset + byte_off, pg,
                                   pg * w, w, h, dt))
            byte_off += dt.itemsize
    elif interleave == "BAND":
        for ch in range(nchan):
            ih_off = (ih_start - 1) * 512 + ch * 1024
            ih = buf[ih_off:ih_off + 1024]
            fname = ih[64:128].split(b"\x00")[0].decode(
                "latin-1").strip()
            if fname and not fname.startswith("<uninit"):
                raise ValueError(
                    f"PCIDSK linked/tiled channel ({fname!r}) not "
                    "supported")
            tname = ih[160:168].decode("latin-1").strip()
            dt = np.dtype(tmap.get(tname, "u1"))
            sb_txt = ih[168:184].decode("latin-1").strip()
            # blank layout fields: band-sequential from the image
            # area (cbandinterleavedchannel.cpp:57-65)
            sb = int(sb_txt) if sb_txt else image_offset
            po_txt = ih[184:192].decode("latin-1").strip()
            po = int(po_txt) if po_txt else dt.itemsize
            lo_txt = ih[192:200].decode("latin-1").strip()
            lo = int(lo_txt) if lo_txt else po * w
            bands.append(_raw_band(buf, sb, po, lo, w, h, dt))
            image_offset += dt.itemsize * w * h
    else:
        raise ValueError(f"PCIDSK interleaving {interleave!r} "
                         "not supported (FILE/TILED)")
    px = bands[0] if len(bands) == 1 else np.stack(bands, axis=-1)
    return np.ascontiguousarray(px), None, None, {"driver": "PCIDSK"}


# ---------------------------------------------------------------- TIL
def decode_til(path: str):
    """EarthWatch/DigitalGlobe .TIL tile index (frmts/til/): numTiles
    + per-tile filename and UL/LR row/col offsets; tiles (GeoTIFF)
    mosaicked onto the full canvas; companion .IMD supplies
    numRows/numColumns and IMAGERY metadata (satId -> SATELLITEID,
    cloudCover -> CLOUDCOVER, firstLineTime -> ACQUISITIONDATETIME)."""
    d = os.path.dirname(path) or "."
    kv = {}
    for line in open(path, errors="replace"):
        line = line.strip().rstrip(";")
        if "=" in line:
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip().strip('"')
    ntiles = int(kv.get("numTiles", "1"))
    imd = os.path.splitext(path)[0] + ".IMD"
    if not os.path.exists(imd):
        imd = os.path.splitext(path)[0] + ".imd"
    meta = {"driver": "TIL"}
    nrows = ncols = None
    if os.path.exists(imd):
        for line in open(imd, errors="replace"):
            line = line.strip().rstrip(";")
            if "=" not in line:
                continue
            k, v = [t.strip() for t in line.split("=", 1)]
            v = v.strip('"')
            if k == "numRows":
                nrows = int(v)
            elif k == "numColumns":
                ncols = int(v)
            elif k == "satId":
                meta["SATELLITEID"] = v
            elif k == "cloudCover":
                meta["CLOUDCOVER"] = v
            elif k == "firstLineTime":
                meta["ACQUISITIONDATETIME"] = v
    from ..sources.raster import read_raster
    out = None
    gt0 = None
    for i in range(1, ntiles + 1):
        fname = kv[f"TILE_{i}.filename"]
        ulc = int(kv.get(f"TILE_{i}.ULColOffset", "0"))
        ulr = int(kv.get(f"TILE_{i}.ULRowOffset", "0"))
        px, gt, _nd, _m = read_raster(os.path.join(d, fname))
        px = np.asarray(px)
        if out is None:
            H = nrows or (ulr + px.shape[0])
            W_ = ncols or (ulc + px.shape[1])
            shape = (H, W_) if px.ndim == 2 else (H, W_, px.shape[2])
            out = np.zeros(shape, px.dtype)
            if gt is not None and ulc == 0 and ulr == 0:
                gt0 = gt
        out[ulr:ulr + px.shape[0], ulc:ulc + px.shape[1]] = px
    return np.ascontiguousarray(out), gt0, None, meta


# ---------------------------------------------------------------- HF2
def decode_hf2(buf: bytes):
    """HF2/HFZ heightfield (frmts/hf2/hf2dataset.cpp; public spec):
    28-byte header ("HF2\\0", size, tile size, vertical precision,
    horizontal scale, extended-header length), named extended-header
    blocks (georef-extents/utm/datum/epsg-prj), then bottom-up tiles;
    each tile = f4 scale + f4 offset, each tile LINE = word-size byte
    + i32 first value + (w-1) deltas; value*scale+offset."""
    import gzip as _gz
    if buf[:2] == b"\x1f\x8b":
        buf = _gz.decompress(buf)
    if buf[:4] != b"HF2\x00":
        raise ValueError("not an HF2 file")
    w, h = struct.unpack_from("<2i", buf, 6)
    (tile,) = struct.unpack_from("<H", buf, 14)
    vert_pres, horiz_scale = struct.unpack_from("<2f", buf, 16)
    (ext_len,) = struct.unpack_from("<I", buf, 24)
    off = 28
    gt = None
    meta: dict = {"driver": "HF2", "vert_pres": vert_pres}
    end_ext = off + ext_len
    while off + 24 <= end_ext:
        btype = buf[off:off + 4]
        name = buf[off + 4:off + 20].split(b"\x00")[0].decode("latin-1")
        (bsize,) = struct.unpack_from("<I", buf, off + 20)
        body = buf[off + 24:off + 24 + bsize]
        if name == "georef-extents" and bsize == 34:
            minx, maxx, miny, maxy = struct.unpack_from("<4d", body, 0)
            gt = (minx, (maxx - minx) / w, 0.0,
                  maxy, 0.0, -(maxy - miny) / h)
        elif name == "georef-utm" and bsize == 2:
            meta["utm_zone"] = struct.unpack_from("<h", body)[0]
        elif name == "georef-epsg-prj" and bsize == 2:
            meta["crs"] = f"EPSG:{struct.unpack_from('<h', body)[0]}"
        del btype
        off += 24 + bsize
    off = end_ext

    nxb = (w + tile - 1) // tile
    nyb = (h + tile - 1) // tile
    out = np.zeros((h, w), np.float32)
    for by in range(nyb):
        th = min(tile, h - by * tile)
        for bx in range(nxb):
            tw = min(tile, w - bx * tile)
            scale, foff = struct.unpack_from("<2f", buf, off)
            off += 8
            for j in range(th):
                ws = buf[off]
                off += 1
                (val,) = struct.unpack_from("<i", buf, off)
                off += 4
                dts = {1: "b", 2: "<h", 4: "<i"}[ws]
                deltas = np.frombuffer(
                    buf, {1: "i1", 2: "<i2", 4: "<i4"}[ws],
                    tw - 1, off)
                off += ws * (tw - 1)
                vals = np.empty(tw, np.int64)
                vals[0] = val
                if tw > 1:
                    vals[1:] = val + np.cumsum(deltas.astype(np.int64))
                row = by * tile + j  # from bottom
                out[h - 1 - row, bx * tile:bx * tile + tw] = \
                    vals * np.float64(scale) + np.float64(foff)
                del dts
    return out, gt, None, meta


def encode_hf2(px: np.ndarray, gt=None, precision: float = 0.01,
               tile: int = 256) -> bytes:
    """Write HF2 with 4-byte words per line (reader-compatible;
    values quantized to ``precision``)."""
    px = np.asarray(px, np.float64)
    h, w = px.shape
    ext = b""
    if gt is not None:
        minx = gt[0]
        maxx = gt[0] + w * gt[1]
        maxy = gt[3]
        miny = gt[3] + h * gt[5]
        body = struct.pack("<4dh", minx, maxx, miny, maxy, 0)
        ext = (b"bin " + b"georef-extents".ljust(16, b"\x00") +
               struct.pack("<I", 34) + body)
    out = bytearray()
    out += b"HF2\x00"
    out += struct.pack("<H", 0)  # version
    out += struct.pack("<2i", w, h)
    out += struct.pack("<H", tile)
    out += struct.pack("<2f", precision, 1.0)
    out += struct.pack("<I", len(ext))
    out += ext
    q = np.round(px / precision).astype(np.int64)
    nxb = (w + tile - 1) // tile
    nyb = (h + tile - 1) // tile
    for by in range(nyb):
        th = min(tile, h - by * tile)
        for bx in range(nxb):
            tw = min(tile, w - bx * tile)
            out += struct.pack("<2f", precision, 0.0)
            for j in range(th):
                row = by * tile + j
                vals = q[h - 1 - row, bx * tile:bx * tile + tw]
                out += b"\x04"
                out += struct.pack("<i", int(vals[0]))
                if tw > 1:
                    out += np.diff(vals).astype("<i4").tobytes()
    return bytes(out)


def decode_doq1(path: str):
    """USGS DOQ (old format, .doq): ASCII header fields with
    Fortran D-exponents (frmts/raw/doq1dataset.cpp) — height@144,
    width@150, band types@156 (<5 → 1 byte/px, 5 → RGB), UTM
    zone/datum/units flags, UL easting/northing in record 3
    (offsets 288/312), pixel sizes in record 4 (59/71); pixel data
    starts after 4 header records of one line-length each
    (truncated files zero-fill, the fake autotest fixture is
    header-only)."""
    import numpy as np

    buf = open(path, "rb").read()
    if len(buf) < 212:
        raise ValueError("DOQ1 header too short")

    def field(data, off, n):
        s = data[off:off + n].split(b"\0")[0].decode("latin-1",
                                                     "replace")
        s = s.replace("D", "E").replace("d", "e").strip()
        try:
            return float(s) if s else 0.0
        except ValueError:
            return 0.0

    h = int(field(buf, 144, 6))
    w = int(field(buf, 150, 6))
    band_types = int(field(buf, 156, 3))
    if not (500 <= w <= 25000 and 500 <= h <= 25000):
        raise ValueError("not a DOQ1 file (implausible dimensions)")
    if band_types > 5:
        raise NotImplementedError(f"DOQ1 band configuration "
                                  f"{band_types}")
    bpp = 3 if band_types == 5 else 1
    line = bpp * w
    skip = 4 * line

    rec3 = buf[line * 2:line * 2 + 500].ljust(500, b"\0")
    rec4 = buf[line * 3:line * 3 + 500].ljust(500, b"\0")
    ulx = field(rec3, 288, 24)
    uly = field(rec3, 312, 24)
    xsz = field(rec4, 59, 12) or 1.0
    ysz = field(rec4, 71, 12) or 1.0
    gt = (ulx, xsz, 0.0, uly, 0.0, -ysz)

    raw = buf[skip:skip + h * line]
    arr = np.frombuffer(raw.ljust(h * line, b"\0"), np.uint8)
    px = arr.reshape(h, w, bpp)
    if bpp == 1:
        px = px[:, :, 0]

    meta = {"driver": "DOQ1"}
    if int(field(buf, 195, 3)) == 1:
        zone = int(field(buf, 198, 6))
        datum = {1: "NAD27", 2: "WGS72", 3: "WGS84",
                 4: "NAD83"}.get(int(field(buf, 167, 2)), "unknown")
        meta["crs"] = (f"EPSG:{32600 + zone}" if datum == "WGS84"
                       else f"UTM zone {zone} ({datum})")
    return px, gt, None, meta


# ---------------------------------------------------------------------------
# CPG — Convair PolGASP polarimetric SAR (.img/.hdr)
# (reference: frmts/raw/cpgdataset.cpp:274-828,1215-1330)
# ---------------------------------------------------------------------------

def _cpg_adjust(path: str, pol: str, ext: str) -> str | None:
    """AdjustFilename analog (cpgdataset.cpp:229-268): substitute the
    polarization substring (hh/hv/vv/vh) and reset the extension;
    return the path if the file exists, else None."""
    base = path
    if len(pol) == 2:
        low = base.lower()
        idx = -1
        for probe in ("hh", "hv", "vv", "vh"):
            idx = low.find(probe)
            if idx >= 0:
                break
        if idx < 0:
            return None
        base = base[:idx] + pol + base[idx + 2:]
    root, _ = os.path.splitext(base)
    cand = root + "." + ext
    return cand if os.path.exists(cand) else None


def _cpg_parse_hdr(hdr_path: str):
    """Parse the whitespace-token .hdr keywords the reference accepts
    (cpgdataset.cpp:498-600)."""
    lines = samples = 0
    geo: dict = {}
    utm: dict = {}
    for raw in open(hdr_path, errors="replace"):
        tok = raw.split()
        if len(tok) < 2:
            continue
        k = tok[0].lower()
        if len(tok) >= 3 and k == "reference" and tok[1].lower() == "north":
            utm["north"] = float(tok[2])
        elif len(tok) >= 3 and k == "reference" and tok[1].lower() == "east":
            utm["east"] = float(tok[2])
        elif len(tok) >= 5 and k == "reference" and \
                tok[1].lower() == "projection" and tok[2].upper() == "UTM":
            utm["zone"] = int(tok[4])
        elif len(tok) >= 3 and k == "reference" and \
                tok[1].lower() == "corner" and \
                tok[2].lower().startswith("upper_left"):
            utm["corner"] = True
        elif k == "number_lines":
            lines = int(tok[1])
        elif k == "number_samples":
            samples = int(tok[1])
        elif (k == "header_offset" and int(tok[1]) != 0) or \
                (k == "number_channels" and int(tok[1]) not in (1, 10)) or \
                (k == "datatype" and int(tok[1]) != 1) or \
                (k == "number_format" and
                 tok[1].lower() not in ("float32", "int8")):
            raise ValueError(f"CPG: keyword {k}={tok[1]} unsupported")
        elif k == "altitude":
            geo["altitude"] = float(tok[1])
        elif k == "near_srd":
            geo["near_srd"] = float(tok[1])
        elif k == "sample_size":
            geo["sample_size"] = float(tok[1])
            utm["sample_size"] = float(tok[1])
        elif k == "sample_size_az":
            geo["sample_size_az"] = float(tok[1])
            utm["sample_size_az"] = float(tok[1])
        elif k == "transposed":
            geo["transposed"] = int(tok[1])
            utm["transposed"] = int(tok[1])
    return lines, samples, geo, utm


def decode_cpg(path: str):
    """Convair PolGASP quad-pol SAR. Two layouts: SIRC compressed
    scattering matrix (one interleaved 10-byte/pixel .img,
    cpgdataset.cpp:1246-1330) and per-polarization big-endian
    CFloat32 rasters (hh/hv/vv/vh .img set, :672-697). Returns
    (h, w, 4) complex64 in band order HH, HV, VH, VV with 16
    slant→ground pseudo-geocoding GCPs or a UTM geotransform,
    matching the reference's iUTMParamsFound/iGeoParamsFound gates."""
    name = os.path.basename(path)
    is_sirc = name.upper().endswith(("SIRC.HDR", "SIRC.IMG"))

    hdr = (_cpg_adjust(path, "", "hdr") if is_sirc
           else _cpg_adjust(path, "hh", "hdr"))
    if hdr is None:
        raise ValueError(f"CPG: no header for {path}")
    lines, samples, geo, utm = _cpg_parse_hdr(hdr)
    if lines <= 0 or samples <= 0:
        raise ValueError("CPG: missing number_lines/number_samples")

    if is_sirc:
        img = _cpg_adjust(path, "", "img")
        raw = np.fromfile(img, np.int8)
        raw = raw[:lines * samples * 10].reshape(lines, samples, 10)
        # dcomp scaling: ysca = sqrt((byte2/254 + 1.5) * 2^byte1);
        # component = byte(k) * ysca / 127   (cpgdataset.cpp:1243-1330)
        scale = np.sqrt((raw[:, :, 1].astype(np.float64) / 254 + 1.5) *
                        np.exp2(raw[:, :, 0].astype(np.float64))) / 127.0
        comp = raw[:, :, 2:10].astype(np.float32)
        px = np.empty((lines, samples, 4), np.complex64)
        for b in range(4):
            px[:, :, b] = ((comp[:, :, 2 * b] +
                            1j * comp[:, :, 2 * b + 1]) *
                           scale.astype(np.float32))
        pols = ["HH", "HV", "VH", "VV"]
    else:
        bands = []
        pols = ["hh", "hv", "vv", "vh"]      # dataset band order :628
        for pol in pols:
            img = _cpg_adjust(path, pol, "img")
            if img is None:
                raise ValueError(f"CPG: missing {pol} image")
            arr = np.fromfile(img, ">c8")[:lines * samples]
            bands.append(arr.reshape(lines, samples).astype(np.complex64))
        px = np.stack(bands, axis=-1)

    meta: dict = {"driver": "CPG", "MATRIX_REPRESENTATION": "SCATTERING",
                  "polarizations": pols}
    gt = None
    if len(utm) == 7:                        # north/east/zone/corner + 3
        north, east = utm["north"], utm["east"]
        ss, ssa = utm["sample_size"], utm["sample_size_az"]
        if utm.get("transposed"):
            gt = (east, 0.0, ssa, north, -ss, 0.0)
            north_center = north - samples * ss / 2.0
        else:
            gt = (east, ssa, 0.0, north, 0.0, -ss)
            north_center = north - lines * ss / 2.0
        zone = utm["zone"]
        meta["crs"] = f"EPSG:{(32600 if north_center >= 0 else 32700) + zone}"
    elif len(geo) == 5:
        # 16 slant-range→ground-range GCPs (cpgdataset.cpp:742-828)
        alt, near = geo["altitude"], geo["near_srd"]
        ss, ssa = geo["sample_size"], geo["sample_size_az"]
        gcps = []
        for n in range(16):
            if geo.get("transposed"):
                gpix = (0.0 if n < 4 else samples / 3.0 if n < 8
                        else 2.0 * samples / 3.0 if n < 12 else samples)
                gline = lines * (n % 4) / 3.0
                t = near + ss * gline
                gy = -math.sqrt(max(t * t - alt * alt, 0.0))
                gx = gpix * ssa
            else:
                gline = (0.0 if n < 4 else lines / 3.0 if n < 8
                         else 2.0 * lines / 3.0 if n < 12 else lines)
                gpix = samples * ((n % 4) / 3.0)
                t = near + ss * gpix
                gx = math.sqrt(max(t * t - alt * alt, 0.0))
                gy = (lines - gline) * ssa
            gcps.append({"id": str(n + 1), "pixel": gpix, "line": gline,
                         "x": gx, "y": gy, "z": 0.0})
        meta["gcps"] = gcps
        meta["gcp_crs"] = ("LOCAL_CS[\"Ground range view / unreferenced "
                           "meters\",UNIT[\"Meter\",1.0]]")
    return px, gt, None, meta
