"""VICAR (JPL Video Image Communication And Retrieval) reader.

Reference semantics: frmts/pds/vicardataset.cpp — fixed "LBLSIZE=n"
ASCII label of whitespace-separated KEY=VALUE items ('' escapes a
quote inside strings, (a,b,c) lists), PROPERTY/TASK group scoping,
optional EOL continuation label after the pixel records; RECSIZE
records of NBB binary-prefix bytes + N1 pixels, NLB binary-header
records, ORG = BSQ/BIL/BIP; FORMAT BYTE/HALF/FULL/REAL/DOUB/COMP
with INTFMT LOW|HIGH, REALFMT IEEE|RIEEE|VAX (VAX F/D floats decoded
from the published DEC layout, port/cpl_vax.cpp behavior); BASIC and
BASIC2 compression (per-record bit-packed delta/RLE codes, byte-plane
interleaved — the basic_decode scheme of vicardataset.cpp:643);
MAP-property georeferencing with the PDS projection catalog and the
M94_HRSC / FC2 / DTM instrument conventions for nodata, scale/offset
and the curated metadata keyword list.

Golden parity (tests/test_vicar.py): the reference's own
autotest/gdrivers/vicar.py — 13 datatype checksums incl. big-endian,
VAX and complex variants, 4 BASIC/BASIC2 compressed checksums, and
the truncated MEX HRSC file's gt/srs/nodata/scale/offset/metadata.
"""

from __future__ import annotations

import numpy as np

from ._bits import MsbReader

from .pds import _proj_string

__all__ = ["decode_vicar", "parse_vicar_label", "read_vicar_prefix"]

_FORMATS = {
    "BYTE": ("u1", 1), "HALF": ("i2", 2), "WORD": ("i2", 2),
    "FULL": ("i4", 4), "LONG": ("i4", 4), "REAL": ("f4", 4),
    "DOUB": ("f8", 8), "COMP": ("c8", 8), "COMPLEX": ("c8", 8),
}


# --------------------------------------------------------------- label

def _tokenize(text: str):
    """KEY=VALUE items; values end at whitespace outside quotes/parens."""
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i] in " \t\r\n\0":
            i += 1
        if i >= n:
            return
        j = i
        while j < n and text[j] not in " \t\r\n\0=":
            j += 1
        key = text[i:j]
        while j < n and text[j] in " \t\r\n\0":
            j += 1
        if j >= n or text[j] != "=":
            return
        i = j + 1
        while i < n and text[i] in " \t\r\n\0":
            i += 1
        if i < n and text[i] == "'":
            j = i + 1
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            yield key, text[i:j + 1]
            i = j + 1
        elif i < n and text[i] == "(":
            depth, j = 0, i
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif text[j] == "'":
                    j += 1
                    while j < n and text[j] != "'":
                        j += 1
                j += 1
            yield key, text[i:j + 1]
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n\0":
                j += 1
            yield key, text[i:j]
            i = j


def _value(tok: str):
    tok = tok.strip()
    if tok.startswith("'"):
        return tok[1:-1].replace("''", "'")
    if tok.startswith("("):
        items, cur, inq = [], "", False
        for ch in tok[1:-1] + ",":
            if inq:
                cur += ch
                if ch == "'":
                    inq = False
            elif ch == "'":
                cur += ch
                inq = True
            elif ch == ",":
                if cur.strip():
                    items.append(_value(cur))
                cur = ""
            else:
                cur += ch
        return items
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_vicar_label(buf: bytes, offset: int = 0):
    """Parse the label at ``offset`` → nested dict with ``PROPERTY``
    and ``TASK`` sub-dicts (gdal.Info json:VICAR shape)."""
    head = buf[offset:offset + 64].decode("latin-1", "replace")
    if not head.startswith("LBLSIZE"):
        raise ValueError("not a VICAR label (no leading LBLSIZE)")
    lblsize = int(head.split("=", 1)[1].split()[0])
    text = buf[offset:offset + lblsize].decode("latin-1", "replace")
    label: dict = {}
    group = label
    for key, tok in _tokenize(text):
        val = _value(tok)
        if key == "PROPERTY":
            group = label.setdefault("PROPERTY", {}).setdefault(
                str(val), {})
        elif key == "TASK":
            group = label.setdefault("TASK", {}).setdefault(str(val), {})
        else:
            group[key] = val
    label["LBLSIZE"] = lblsize
    return label


def _merge(dst: dict, src: dict) -> None:
    for k, v in src.items():
        if k in ("PROPERTY", "TASK"):
            for g, items in v.items():
                dst.setdefault(k, {}).setdefault(g, {}).update(items)
        elif k not in dst or k == "EOL":
            dst[k] = v


def _kw(label: dict, path: str, default=None):
    """GetKeyword: ``GROUP.KEY`` searches PROPERTY then TASK groups."""
    if "." in path:
        grp, key = path.split(".", 1)
        for kind in ("PROPERTY", "TASK"):
            g = label.get(kind, {}).get(grp)
            if g is not None and key in g:
                return g[key]
        return default
    return label.get(path, default)


# ----------------------------------------------------------- VAX reals

def _vax_f(raw: np.ndarray) -> np.ndarray:
    """VAX F-float → float32 (word-swapped, excess-128, 0.5≤m<1)."""
    w = raw.reshape(-1, 2).astype(np.uint32)      # two LE uint16 words
    v = (w[:, 0] << 16) | w[:, 1]
    s = (v >> 31) & 1
    e = (v >> 23) & 0xFF
    m = v & 0x7FFFFF
    out = (0.5 + m / (1 << 24)) * np.exp2(e.astype(np.float64) - 128.0)
    out[s == 1] *= -1.0
    out[e == 0] = 0.0
    return out.astype(np.float32)


def _vax_d(raw: np.ndarray) -> np.ndarray:
    """VAX D-float → float64 (four word-swapped words, 55-bit mantissa)."""
    w = raw.reshape(-1, 4).astype(np.uint64)
    v = (w[:, 0] << 48) | (w[:, 1] << 32) | (w[:, 2] << 16) | w[:, 3]
    s = (v >> 63) & 1
    e = ((v >> 55) & 0xFF).astype(np.float64)
    m = (v & ((1 << 55) - 1)).astype(np.float64)
    out = (0.5 + m / float(1 << 56)) * np.exp2(e - 128.0)
    out[s == 1] *= -1.0
    out[(v >> 55) & 0xFF == 0] = 0.0
    return out


def _decode_reals(payload: np.ndarray, fmt: str, realfmt: str,
                  intfmt: str) -> np.ndarray:
    """Raw record bytes (uint8, flat) → 1-D pixel array."""
    code, size = _FORMATS[fmt]
    if fmt in ("BYTE",):
        return payload.view("u1")
    if code.startswith("i"):
        return payload.view(("<" if intfmt != "HIGH" else ">") + code)
    # reals / complex
    if realfmt == "VAX":
        words = payload.view("<u2")
        if fmt == "DOUB":
            return _vax_d(words)
        vals = _vax_f(words)
        if fmt in ("COMP", "COMPLEX"):
            return vals[0::2] + 1j * vals[1::2].astype(np.complex64)
        return vals
    bo = ">" if realfmt == "IEEE" else "<"
    return payload.view(bo + code)


# ------------------------------------------------- BASIC decompression

def _basic_decode(code: np.ndarray, ns: int, wid: int) -> np.ndarray:
    """One compressed record → ns*wid bytes (byte-plane interleaved
    delta/RLE bitstream — vicardataset.cpp basic_decode)."""
    out = np.zeros(ns * wid, np.uint8)
    br = MsbReader(code.tobytes())
    trns = (-3, -2, -1, 0, 1, 2, 3)
    old = 0
    run = -3
    nval = 999999
    for iw in range(wid):
        for ip in range(iw, ns * wid, wid):
            if run > -3:
                out[ip] = nval & 0xFF
                run -= 1
                continue
            val = br.get(3)
            if val < 7:
                nval = (old + trns[val]) & 0xFFFFFFFF
                out[ip] = nval & 0xFF
                old = nval
                continue
            if br.get(1):
                rc = br.get(4)
                if rc == 15:
                    rc = br.get(8)
                    if rc == 255:
                        run = br.get(8) | (br.get(8) << 8) | (br.get(8) << 16)
                    else:
                        run = rc + 15
                else:
                    run = rc
                val = br.get(3)
                nval = (old + trns[val]) & 0xFFFFFFFF if val < 7 \
                    else br.get(8)
                out[ip] = nval & 0xFF
                old = nval
            else:
                val = br.get(8)
                out[ip] = val
                old = val
    if br.pos > 8 * len(code):
        raise ValueError("out of BASIC decoding buffer")
    return out


def _read_compressed(buf: bytes, label: dict, off: int, nl: int,
                     ns: int, nb: int, dt: np.dtype, compress: str,
                     realfmt: str, intfmt: str, fmt: str) -> np.ndarray:
    nrec = nl * nb
    wid = dt.itemsize
    rows = []
    if compress == "BASIC":
        pos = off
        for _ in range(nrec):
            size = int(np.frombuffer(buf, "<u4", 1, pos)[0])
            payload = np.frombuffer(buf, "u1", size - 4, pos + 4)
            rows.append(_basic_decode(payload, ns, wid))
            pos += size
    else:                                          # BASIC2
        sizes = np.frombuffer(buf, "<u4", nrec, off)
        pos = off + 4 * nrec
        for size in sizes:
            payload = np.frombuffer(buf, "u1", int(size), pos)
            rows.append(_basic_decode(payload, ns, wid))
            pos += int(size)
    flat = _decode_reals(np.concatenate(rows), fmt, realfmt, intfmt)
    return flat.reshape(nb, nl, ns)


# ----------------------------------------------------------- top level

def decode_vicar(buf: bytes):
    """VICAR bytes → (pixels (h, w[, bands]), geotransform | None,
    nodata, meta) with the parsed label under ``meta['label']``."""
    label = parse_vicar_label(buf)
    lblsize = label["LBLSIZE"]
    recsize = int(label.get("RECSIZE", 0))
    nlb = int(label.get("NLB", 0))
    nbb = int(label.get("NBB", 0))
    if label.get("EOL") == 1:
        # EOCI1/EOCI2 carry the 64-bit EOL offset for compressed
        # data; else image offset + image size (vicarkeywordhandler)
        eol_off = int(label.get("EOCI1", 0)) | \
            (int(label.get("EOCI2", 0)) << 32)
        if not eol_off:
            fmt0 = str(label.get("FORMAT", "BYTE")).upper()
            isz = _FORMATS.get(fmt0, ("u1", 1))[1]
            ns0, nl0 = int(label.get("NS", 0)), int(label.get("NL", 0))
            nb0 = int(label.get("NB", 1))
            line = nbb + isz * ns0 * (
                1 if str(label.get("ORG", "BSQ")).upper() == "BSQ"
                else nb0)
            nrec0 = nl0 * nb0 if str(label.get("ORG", "BSQ")) \
                .upper() == "BSQ" else nl0
            eol_off = lblsize + recsize * nlb + line * nrec0
        if 0 < eol_off < len(buf):
            try:
                _merge(label, parse_vicar_label(buf, eol_off))
            except ValueError:
                pass                     # truncated payload: no EOL

    fmt = str(label.get("FORMAT", "BYTE")).upper()
    if fmt not in _FORMATS:
        raise ValueError(f"VICAR FORMAT {fmt} not supported")
    code, size = _FORMATS[fmt]
    intfmt = str(label.get("INTFMT", "LOW")).upper()
    realfmt = str(label.get("REALFMT", "VAX")).upper()
    dt = np.dtype(code)

    nl = int(label.get("NL", 0))
    ns = int(label.get("NS", 0))
    nb = int(label.get("NB", 1))
    org = str(label.get("ORG", "BSQ")).upper()
    if nl <= 0 or ns <= 0:
        raise ValueError("VICAR label missing NL/NS")

    off = lblsize + recsize * nlb
    compress = str(label.get("COMPRESS", "NONE")).upper()
    if compress in ("BASIC", "BASIC2"):
        planes = _read_compressed(buf, label, off, nl, ns, nb, dt,
                                  compress, realfmt, intfmt, fmt)
    elif compress != "NONE":
        raise ValueError(f"VICAR COMPRESS {compress} not supported")
    else:
        # record stride per GetSpacings (vicardataset.cpp:3073): NBB +
        # itemsize * values-per-line; RECSIZE/N1..N3 are NOT trusted
        nvals = {"BSQ": ns, "BIL": ns * nb, "BIP": ns * nb}[org]
        nrec = nl * nb if org == "BSQ" else nl
        per = nbb + nvals * size
        need = off + nrec * per
        if need > len(buf):                # truncated: zero-pad
            buf = buf + b"\x00" * (need - len(buf))
        data = np.frombuffer(buf, "u1", nrec * per, off) \
            .reshape(nrec, per)[:, nbb:nbb + nvals * size]
        flat = _decode_reals(np.ascontiguousarray(data).reshape(-1),
                             fmt, realfmt, intfmt)
        if org == "BSQ":
            planes = flat.reshape(nb, nl, ns)
        elif org == "BIL":
            planes = flat.reshape(nl, nb, ns).transpose(1, 0, 2)
        else:                                      # BIP
            planes = flat.reshape(nl, ns, nb).transpose(2, 0, 1)
        planes = np.ascontiguousarray(planes)

    px = planes[0] if nb == 1 else np.moveaxis(planes, 0, -1)
    px = np.ascontiguousarray(px.astype(dt, copy=False))

    meta: dict = {"driver": "VICAR", "label": label}
    nodata = None
    if str(label.get("BLTYPE", "")) == "M94_HRSC" or \
            str(_kw(label, "INSTRUMENT_ID", "")) == "FC2":
        nodata = {"u1": 0.0, "i2": -32768.0, "f4": -32768.0}.get(code)
    if _kw(label, "DTM.DTM_OFFSET") is not None:
        meta["scale"] = float(_kw(label, "DTM.DTM_SCALING_FACTOR", 1.0))
        meta["offset"] = float(_kw(label, "DTM.DTM_OFFSET", 0.0))
        nd = _kw(label, "DTM.DTM_MISSING_DN")
        if nd is not None:
            nodata = float(nd)
    elif str(label.get("BLTYPE", "")) == "M94_HRSC":
        scale = float(_kw(label, "DLRTO8.REFLECTANCE_SCALING_FACTOR",
                          -1.0))
        if scale < 0:
            scale = float(_kw(label, "HRCAL.REFLECTANCE_SCALING_FACTOR",
                              1.0))
        offset = float(_kw(label, "DLRTO8.REFLECTANCE_OFFSET", -1.0))
        if offset < 0:
            offset = float(_kw(label, "HRCAL.REFLECTANCE_OFFSET", 0.0))
        meta["scale"], meta["offset"] = scale, offset
        _hrsc_metadata(label, meta)

    gt, crs = _map_georef(label)
    if gt is not None:
        meta["geotransform"] = gt
    if crs:
        meta["crs"] = crs
    return px, gt, nodata, meta


_HRSC_KEYWORDS = (
    "M94_ORBIT.START_TIME", "M94_ORBIT.STOP_TIME",
    "M94_INSTRUMENT.DETECTOR_ID", "M94_CAMERAS.MACROPIXEL_SIZE",
    "FILE.EVENT_TYPE", "M94_INSTRUMENT.MISSION_PHASE_NAME",
    "HRORTHO.SPICE_FILE_NAME", "HRCONVER.MISSING_FRAMES",
    "HRCONVER.OVERFLOW_FRAMES", "HRCONVER.ERROR_FRAMES",
    "HRFOOT.BEST_GROUND_SAMPLING_DISTANCE",
    "DLRTO8.RADIANCE_SCALING_FACTOR", "DLRTO8.RADIANCE_OFFSET",
    "DLRTO8.REFLECTANCE_SCALING_FACTOR", "DLRTO8.REFLECTANCE_OFFSET",
    "HRCAL.RADIANCE_SCALING_FACTOR", "HRCAL.RADIANCE_OFFSET",
    "HRCAL.REFLECTANCE_SCALING_FACTOR", "HRCAL.REFLECTANCE_OFFSET",
    "HRORTHO.DTM_NAME", "HRORTHO.EXTORI_FILE_NAME",
    "HRORTHO.GEOMETRIC_CALIB_FILE_NAME",
)
_HRSC_SRC_KEYWORDS = (
    "M94_ORBIT.IMAGE_TIME", "FILE.EVENT_TYPE",
    "FILE.PROCESSING_LEVEL_ID", "M94_INSTRUMENT.DETECTOR_ID",
    "M94_CAMERAS.EXPOSURE_DURATION",
    "HRCONVER.INSTRUMENT_TEMPERATURE",
)


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, list):
        return "(" + ",".join(_fmt_val(x) for x in v) + ")"
    return str(v)


def _hrsc_metadata(label: dict, meta: dict) -> None:
    meta["SPACECRAFT_NAME"] = _fmt_val(
        _kw(label, "M94_INSTRUMENT.INSTRUMENT_HOST_NAME", ""))
    meta["PRODUCT_TYPE"] = _fmt_val(label.get("TYPE", ""))
    src = str(_kw(label, "M94_INSTRUMENT.DETECTOR_ID", "")) == \
        "MEX_HRSC_SRC"
    for key in (_HRSC_SRC_KEYWORDS if src else _HRSC_KEYWORDS):
        v = _kw(label, key)
        if v is not None:
            if isinstance(v, list) and len(v) == 1:
                v = v[0]
            meta[key] = _fmt_val(v)


# ------------------------------------------------------ binary prefix

# Per-BLTYPE prefix structure catalog (the reference ships this as
# frmts/pds/data/vicar.json; deployments pass their own via `fields`).
_PREFIX_CATALOG: dict[str, list[dict]] = {
    "GDAL_AUTOTEST": [
        {"name": "unsigned_char", "type": "unsigned char"},
        {"name": "unsigned_short", "type": "unsigned short"},
        {"name": "unsigned_int", "type": "unsigned int"},
        {"name": "unsigned_int_hidden", "type": "unsigned int",
         "hidden": True},
        {"name": "short", "type": "short"},
        {"name": "int", "type": "int"},
        {"name": "float", "type": "float"},
        {"name": "double", "type": "double"},
    ],
}

_PREFIX_TYPES = {
    "unsigned char": "u1", "unsigned byte": "u1",
    "unsigned short": "u2", "unsigned int": "u4",
    "short": "i2", "int": "i4", "float": "f4", "double": "f8",
}


def read_vicar_prefix(buf: bytes, fields: list[dict] | None = None):
    """NBB binary-prefix bytes of each record → pyarrow.Table (the
    OGRVICARBinaryPrefixesLayer surface), one row per record, hidden
    fields skipped. Field layout from ``fields`` or the built-in
    BLTYPE catalog; BINTFMT/BREALFMT drive integer/real byte order."""
    import pyarrow as pa

    label = parse_vicar_label(buf)
    nbb = int(label.get("NBB", 0))
    if nbb <= 0:
        raise ValueError("VICAR file has no binary prefix (NBB=0)")
    if fields is None:
        fields = _PREFIX_CATALOG.get(str(label.get("BLTYPE", "")))
        if fields is None:
            raise ValueError(
                f"no prefix structure for BLTYPE "
                f"{label.get('BLTYPE')!r}; pass fields=")
    fmt = str(label.get("FORMAT", "BYTE")).upper()
    size = _FORMATS[fmt][1]
    ns = int(label.get("NS", 0))
    nl = int(label.get("NL", 0))
    nb = int(label.get("NB", 1))
    org = str(label.get("ORG", "BSQ")).upper()
    nvals = ns if org == "BSQ" else ns * nb
    nrec = nl * nb if org == "BSQ" else nl
    per = nbb + nvals * size
    off = label["LBLSIZE"] + per * int(label.get("NLB", 0))
    pre = np.frombuffer(buf, "u1", nrec * per, off) \
        .reshape(nrec, per)[:, :nbb]
    ibo = "<" if str(label.get("BINTFMT", "LOW")).upper() == "LOW" \
        else ">"
    rfmt = str(label.get("BREALFMT", "VAX")).upper()
    cols, names = [], []
    pos = 0
    for f in fields:
        code = _PREFIX_TYPES[f["type"]]
        w = int(code[1])
        raw = np.ascontiguousarray(pre[:, pos:pos + w])
        pos += w
        if f.get("hidden"):
            continue
        if code in ("f4", "f8"):
            if rfmt == "VAX":
                words = raw.reshape(-1).view("<u2")
                col = _vax_f(words) if code == "f4" else _vax_d(words)
            else:
                col = raw.reshape(-1).view(
                    (">" if rfmt == "IEEE" else "<") + code)
        else:
            col = raw.reshape(-1).view(ibo + code)
        names.append(f["name"])
        cols.append(pa.array(col))
    return pa.table(cols, names=names)


def _map_georef(label: dict):
    """PROPERTY MAP group → (geotransform | None, proj-string | None)
    with the reference's default 0.5/-1/1 projection-offset config."""
    mp = label.get("PROPERTY", {}).get("MAP")
    if not mp:
        return None, None
    xdim = ydim = 1.0
    if "MAP_SCALE" in mp:
        xdim = float(mp["MAP_SCALE"]) * 1000.0
        ydim = -xdim
    uly = ulx = 0.5
    if "LINE_PROJECTION_OFFSET" in mp:
        uly = (float(mp["LINE_PROJECTION_OFFSET"]) + 0.5) * -ydim
    if "SAMPLE_PROJECTION_OFFSET" in mp:
        ulx = (float(mp["SAMPLE_PROJECTION_OFFSET"]) + 0.5) * -xdim
    gt = (ulx, xdim, 0.0, uly, 0.0, ydim)

    name = str(mp.get("MAP_PROJECTION_TYPE", "")).replace(" ", "_") \
        .upper()
    crs = None
    if name:
        lat0 = float(mp.get("CENTER_LATITUDE", 0.0))
        lon0 = float(mp.get("CENTER_LONGITUDE", 0.0))
        sp1 = float(mp.get("FIRST_STANDARD_PARALLEL", 0.0))
        sp2 = float(mp.get("SECOND_STANDARD_PARALLEL", 0.0))
        base = _proj_string(name, lat0, lon0, sp1, sp2, {}, "", 1.0)
        if base is not None:
            a = float(mp.get("A_AXIS_RADIUS", 0.0)) * 1000.0
            c = float(mp.get("C_AXIS_RADIUS", a / 1000.0)) * 1000.0
            geocentric = str(mp.get("COORDINATE_SYSTEM_NAME", "")) \
                .upper() == "PLANETOCENTRIC"
            spherical = name in (
                "SIMPLE_CYLINDRICAL", "EQUIDISTANT", "ORTHOGRAPHIC",
                "STEREOGRAPHIC", "SINUSOIDAL", "EQUIRECTANGULAR",
                "OBLIQUE_CYLINDRICAL")
            if name == "POLAR_STEREOGRAPHIC" and geocentric:
                ell = f"+R={c:.10g}"
            elif spherical or geocentric:
                ell = f"+R={a:.10g}"
            elif abs(a - c) < 1e-7:
                ell = f"+R={a:.10g}"
            else:
                ell = f"+a={a:.10g} +b={c:.10g}"
            crs = f"{base} {ell} +units=m +no_defs"
    return gt, crs
