"""Arc/Info Binary Coverage (AVCBin) reader — from scratch.

Decodes the workstation-ArcInfo binary coverage directory format the
reference reads through its embedded AVCE00 library
(ogr/ogrsf_frmts/avc/avc_bin.cpp): big-endian .adf files with the
100-byte header (signature 9993/9994, precision flag — negative or
>1000 means double precision), ARC / PAL / LAB / CNT record layouts,
the ../info/arc.dir table directory (380-byte entries), arc####.nit
field definitions (146-byte entries) and arc####.dat fixed-size
records (date/char/fixint/fixnum strings, binary int16/int32,
binary float/double).  Layer assembly (ARC/LAB/PAL + .AAT/.PAT joins)
is shared with the E00 text reader (sources/avce00.py
build_avc_layers) so the binary and E00 twins of the same coverage
produce identical tables.
"""
from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from . import pick_layer
from .avce00 import build_avc_layers

__all__ = ["read_avcbin_layers", "read_avcbin_table"]


class _BE:
    """Big-endian cursor (AVC_COVER_BYTE_ORDER for V7 coverages)."""

    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def eof(self):
        return self.pos >= len(self.buf)

    def i16(self):
        (v,) = struct.unpack_from(">h", self.buf, self.pos)
        self.pos += 2
        return v

    def i32(self):
        (v,) = struct.unpack_from(">i", self.buf, self.pos)
        self.pos += 4
        return v

    def f32(self):
        (v,) = struct.unpack_from(">f", self.buf, self.pos)
        self.pos += 4
        return v

    def f64(self):
        (v,) = struct.unpack_from(">d", self.buf, self.pos)
        self.pos += 8
        return v

    def text(self, n):
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out.split(b"\0")[0].decode("latin1", "replace").strip()

    def skip(self, n):
        self.pos += n


def _open_adf(path: str):
    """100-byte header: signature, precision; returns (_BE at byte 100,
    double_precision, data_length_bytes)."""
    raw = open(path, "rb").read()
    if len(raw) < 100:
        return None, False, 0
    rd = _BE(raw)
    sig = rd.i32()
    prec = rd.i32()
    rd.i32()
    rd.skip(12)
    nlen = rd.i32()                        # file length in 16-bit words
    if sig not in (9993, 9994):
        raise ValueError(f"{path}: invalid coverage file signature {sig}")
    dbl = prec < 0 or prec > 1000
    end = min(len(raw), nlen * 2)
    return _BE(raw[:end], 100), dbl, end


def _read_arcs(path: str):
    rd, dbl, end = _open_adf(path)
    out = []
    while rd is not None and rd.pos + 8 <= len(rd.buf):
        arcid = rd.i32()
        nwords = rd.i32()
        start = rd.pos
        userid = rd.i32()
        fnode = rd.i32()
        tnode = rd.i32()
        lpoly = rd.i32()
        rpoly = rd.i32()
        nvert = rd.i32()
        if nvert < 0 or nvert > 10**7:
            break
        if dbl:
            pts = np.frombuffer(rd.buf, ">f8", nvert * 2,
                                rd.pos).reshape(-1, 2)
            rd.pos += 16 * nvert
        else:
            pts = np.frombuffer(rd.buf, ">f4", nvert * 2,
                                rd.pos).astype(np.float64).reshape(-1, 2)
            rd.pos += 8 * nvert
        out.append((arcid, userid, fnode, tnode, lpoly, rpoly, pts))
        rd.pos = max(rd.pos, start + nwords * 2)
    return out


def _read_pals(path: str):
    rd, dbl, end = _open_adf(path)
    out = []
    while rd is not None and rd.pos + 8 <= len(rd.buf):
        rd.i32()                            # poly id
        nwords = rd.i32()
        start = rd.pos
        for _ in range(4):                  # MBR
            rd.f64() if dbl else rd.f32()
        narcs = rd.i32()
        if narcs < 0 or narcs > 10**7:
            break
        trip = [(rd.i32(), rd.i32(), rd.i32()) for _ in range(narcs)]
        out.append(trip)
        rd.pos = max(rd.pos, start + nwords * 2)
    return out


def _read_labs(path: str):
    rd, dbl, end = _open_adf(path)
    out = []
    step = (lambda: rd.f64()) if dbl else (lambda: rd.f32())
    while rd is not None and rd.pos + 8 <= len(rd.buf):
        value = rd.i32()
        polyid = rd.i32()
        x = step()
        y = step()
        for _ in range(4):                  # coord2/coord3 box
            step()
        out.append((value, polyid, float(x), float(y)))
    return out


def _read_info_tables(info_dir: str, cover: str):
    """../info/arc.dir + arc####.nit/.dat -> {NAME: (fields, records)},
    limited to the cover's own tables (NAME starts with the cover
    basename)."""
    dirp = None
    for nm in ("arc.dir", "ARC.DIR", "arcdr9", "ARCDR9"):
        p = os.path.join(info_dir, nm)
        if os.path.exists(p):
            dirp = p
            break
    if dirp is None:
        return {}
    raw = open(dirp, "rb").read()
    tables = {}
    prefix = cover.upper() + "."
    for off in range(0, len(raw) - 379, 380):
        rd = _BE(raw, off)
        name = rd.text(32)
        basename = rd.text(8)
        nfields = rd.i16()
        recsize = rd.i16()
        rd.skip(18)
        deleted = rd.i16()
        nrecords = rd.i32()
        rd.skip(10)
        external = rd.text(2)
        if deleted or not name.upper().startswith(prefix):
            continue
        base_low = basename.lower()
        nitp = datp = None
        for ext, slot in (("nit", "nit"), ("dat", "dat")):
            for cand in (f"{base_low}.{ext}", f"{basename}.{ext.upper()}"):
                p = os.path.join(info_dir, cand)
                if os.path.exists(p):
                    if slot == "nit":
                        nitp = nitp or p
                    else:
                        datp = datp or p
        if nitp is None or datp is None:
            continue
        # 144-byte .nit entries: name[16], 13 x i16 (size, v2, offset,
        # v4, v5, fmtw, fmtp, type1, type2, v10..v13), altname[16],
        # 56 skip, index i16, 28 skip (avc_bin.cpp _AVCBinReadNextArcNit);
        # entries with nIndex <= 0 are pseudo fields and are skipped —
        # only indexed entries count toward numFields
        fields = []                         # (name, size, type)
        nraw = open(nitp, "rb").read()
        k = 0
        while len(fields) < nfields and (k + 1) * 144 <= len(nraw):
            fr = _BE(nraw, k * 144)
            k += 1
            fname = fr.text(16)
            size = fr.i16()
            fr.skip(2 * 4)                  # v2, offset, v4, v5
            fr.i16()                        # fmt width
            fr.i16()                        # fmt prec
            ftype = fr.i16() * 10
            (nidx,) = struct.unpack_from(">h", nraw,
                                         (k - 1) * 144 + 114)
            if nidx <= 0:
                continue
            fields.append((fname, size, ftype))
        if external == "XX":
            # the arc####.dat holds an 80-byte path (relative to the
            # info dir) to the real data file, read from byte 0
            rel = open(datp, "rb").read(80).decode(
                "latin1", "replace").strip().strip("\x00").strip()
            cand = os.path.normpath(os.path.join(info_dir, rel))
            if not os.path.exists(cand):
                cand = os.path.normpath(os.path.join(
                    info_dir, rel.replace("\\", "/")))
            if not os.path.exists(cand):
                continue
            datp = cand
            draw = open(datp, "rb").read()
            if recsize > 0:                 # reference recomputes the
                nrecords = len(draw) // recsize  # count for externals
        else:
            draw = open(datp, "rb").read()
        recs = []
        for r in range(nrecords):
            rr = _BE(draw, r * recsize)
            if rr.pos + recsize > len(draw):
                break
            vals = []
            for fname, size, ftype in fields:
                if ftype in (10, 20, 30, 40):     # date/char/fix strs
                    tok = rr.text(size)
                    if ftype == 30:
                        vals.append(int(tok) if tok else None)
                    elif ftype == 40:
                        vals.append(float(tok) if tok else None)
                    else:
                        vals.append(tok)
                elif ftype == 50:
                    vals.append(rr.i32() if size == 4 else rr.i16())
                elif ftype == 60:
                    vals.append(rr.f64() if size == 8 else
                                float(rr.f32()))
                else:
                    rr.skip(size)
                    vals.append(None)
            recs.append(vals)
        tables[name.upper()] = ([f[0] for f in fields], recs)
    return tables


def read_avcbin_layers(path: str) -> dict[str, pa.Table]:
    """Binary coverage directory -> {ARC/LAB/PAL: layer table} (the
    same shape as read_e00_layers on the coverage's E00 twin)."""
    cover_dir = path if os.path.isdir(path) else os.path.dirname(path)
    cover = os.path.basename(os.path.normpath(cover_dir))

    def fp(name):
        for cand in (name, name.upper()):
            p = os.path.join(cover_dir, cand)
            if os.path.exists(p):
                return p
        return None

    arc = fp("arc.adf")
    if arc is None and fp("lab.adf") is None and fp("pal.adf") is None:
        raise ValueError(
            f"{path}: not a binary coverage (no arc/lab/pal.adf)")
    arcs = _read_arcs(arc) if arc else []
    labs = _read_labs(fp("lab.adf")) if fp("lab.adf") else []
    pals = _read_pals(fp("pal.adf")) if fp("pal.adf") else []
    info = os.path.join(os.path.dirname(os.path.normpath(cover_dir)),
                        "info")
    tables = _read_info_tables(info, cover) if os.path.isdir(info) else {}
    crs = None
    prj = fp("prj.adf")
    if prj:
        lines = [ln for ln in open(prj, errors="replace").read()
                 .splitlines() if ln.strip() and ln.strip() != "~"]
        crs = " ".join(lines)
    return build_avc_layers(arcs, labs, pals, tables, crs)


def read_avcbin_table(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_avcbin_layers(path), path, layer)
