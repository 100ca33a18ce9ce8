"""MicroStation DGN v7 (Intergraph ISFF) reader.

Reference driver: ogr/ogrsf_frmts/dgn/ (dgnlib). Layout replicated:
- elements of [level|complex byte, type byte, word-count u16] + body;
  0xFFFF terminates; deleted bit 0x80 on the type byte;
- DGN word-swapped signed int32s (b2,b3 low / b0,b1 high —
  dgnlibp.h DGN_INT32); VAX D-float doubles;
- TCB (type 9): sub-units per master at +1112, UOR per sub-unit at
  +1116, 2D/3D flag bit 0x40 at +1214, global origin VAX doubles at
  +1240 — giving scale = 1/(uor_per_sub*sub_per_master) and the
  user-space transform x*scale - origin (dgnread.cpp DGNParseTCB /
  DGNTransformPoint);
- display header: graphic group at +28, properties +32,
  style/weight byte +34, color index +35 (DGNParseCore);
- line (3) vertices at +36; line string (4) / shape (6) / curve (11)
  count at +36, vertices from +38; ellipse (15) / arc (16) VAX axes,
  rotation/360000, center; text (17) font/just, length/height mult,
  rotation, origin, char count at +58 (2D), string at +60.

Arcs and ellipses stroke exactly like the reference layer:
nPoints = min(90, |sweep|/5 + 1) equal-angle samples of
(a cos t, b sin t) rotated (ogrdgnlayer.cpp:586, dgnstroke.cpp
ComputePointOnArc2D), so the autotest envelope goldens hold.

Goldens in tests/test_vecformats2.py from autotest/ogr/ogr_dgn.py
(smalltest.dgn: text "Demo Text" at POINT(0.7365 4.2198), circle
envelope, shape polygon WKT, ColorIndex 83).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from ..codecs.vicar import _vax_d
from .vector import with_geometry

__all__ = ["read_dgn_table"]

def _i32(b: bytes, off: int) -> int:
    """DGN word-swapped SIGNED int32 (dgnlibp.h DGN_INT32)."""
    v = (b[off + 2] + (b[off + 3] << 8) + (b[off + 1] << 24) +
         (b[off] << 16))
    return v - (1 << 32) if v >= (1 << 31) else v


def _vaxd(b: bytes, off: int) -> float:
    return float(_vax_d(np.frombuffer(b[off:off + 8], "<u2"))[0])


def read_dgn_table(path: str) -> pa.Table:
    buf = open(path, "rb").read()
    off = 0
    n = len(buf)
    scale = 1.0
    ox = oy = 0.0
    dim = 2

    def tx(ix: float, iy: float) -> tuple[float, float]:
        return (ix * scale - ox, iy * scale - oy)

    rows = []
    while off + 4 <= n:
        if buf[off] == 0xFF and buf[off + 1] == 0xFF:
            break
        level = buf[off] & 0x3F
        etype = buf[off + 1] & 0x7F
        deleted = bool(buf[off + 1] & 0x80)
        words = buf[off + 2] + buf[off + 3] * 256
        elem = buf[off:off + 4 + 2 * words]
        off += 4 + 2 * words
        if deleted or len(elem) < 4 + 2 * words:
            continue
        nb = len(elem)

        if etype == 9:  # TCB
            sub_per_master = _i32(elem, 1112)
            uor_per_sub = _i32(elem, 1116)
            if nb > 1214:
                dim = 3 if elem[1214] & 0x40 else 2
            if uor_per_sub and sub_per_master:
                scale = 1.0 / (uor_per_sub * sub_per_master)
                ox = _vaxd(elem, 1240) * scale
                oy = _vaxd(elem, 1248) * scale
            continue

        color = elem[35] if nb >= 36 else 0
        style = elem[34] & 0x7 if nb >= 36 else 0
        weight = (elem[34] & 0xF8) >> 3 if nb >= 36 else 0
        ggroup = elem[28] + elem[29] * 256 if nb >= 36 else 0
        row = {"Type": etype, "Level": level, "GraphicGroup": ggroup,
               "ColorIndex": color, "Weight": weight, "Style": style,
               "Text": None}
        g = None
        psize = dim * 4

        if etype == 3 and nb >= 52:  # line
            if dim == 2:
                p0 = tx(_i32(elem, 36), _i32(elem, 40))
                p1 = tx(_i32(elem, 44), _i32(elem, 48))
            else:
                p0 = tx(_i32(elem, 36), _i32(elem, 40))
                p1 = tx(_i32(elem, 48), _i32(elem, 52))
            g = W.linestring([p0, p1])
        elif etype in (4, 6, 11) and nb >= 38:  # line string/shape/curve
            count = elem[36] + elem[37] * 256
            pts = []
            for i in range(count):
                base = 38 + i * psize
                if base + 8 > nb:
                    break
                pts.append(tx(_i32(elem, base),
                              _i32(elem, base + 4)))
            if len(pts) >= 2:
                if etype == 6:
                    g = W.polygon(pts)
                else:
                    g = W.linestring(pts)
        elif etype in (15, 16) and nb >= 72:  # ellipse / arc
            if etype == 15:
                a = _vaxd(elem, 36) * scale
                b2 = _vaxd(elem, 44) * scale
                if dim == 2:
                    rot = _i32(elem, 52) / 360000.0
                    cx, cy = _vaxd(elem, 56), _vaxd(elem, 64)
                else:
                    rot = 0.0
                    cx, cy = _vaxd(elem, 68), _vaxd(elem, 76)
                start, sweep = 0.0, 360.0
            else:
                start = _i32(elem, 36) / 360000.0
                raw = bytearray(elem)
                neg = raw[41] & 0x80
                if neg:
                    raw[41] &= 0x7F
                sweep_v = _i32(bytes(raw), 40)
                sweep_v = -sweep_v if neg else sweep_v
                sweep = 360.0 if sweep_v == 0 else sweep_v / 360000.0
                a = _vaxd(elem, 44) * scale
                b2 = _vaxd(elem, 52) * scale
                if dim == 2:
                    rot = _i32(elem, 60) / 360000.0
                    cx, cy = _vaxd(elem, 64), _vaxd(elem, 72)
                else:
                    rot = 0.0
                    cx, cy = _vaxd(elem, 76), _vaxd(elem, 84)
            cx, cy = tx(cx, cy)
            npts = int(min(90, max(1.0, abs(sweep) / 5.0) + 1.0))
            cr = math.cos(math.radians(rot))
            sr = math.sin(math.radians(rot))
            pts = []
            for i in range(npts):
                t = math.radians(start + sweep * i / (npts - 1))
                ex = a * math.cos(t)
                ey = b2 * math.sin(t)
                pts.append((cx + ex * cr - ey * sr,
                            cy + ex * sr + ey * cr))
            g = W.linestring(pts)
        elif etype == 17 and nb >= 60:  # text
            if dim == 2:
                num_chars = elem[58]
                x, y = tx(_i32(elem, 50), _i32(elem, 54))
                toff = 60
            else:
                num_chars = elem[74]
                x, y = tx(_i32(elem, 62), _i32(elem, 66))
                toff = 76
            row["Text"] = elem[toff:toff + num_chars].decode(
                "latin-1", "replace")
            g = W.point(x, y)
        else:
            continue  # non-geometry/unsupported element

        rows.append((row, g))

    names = ["Type", "Level", "GraphicGroup", "ColorIndex", "Weight",
             "Style", "Text"]
    t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                  **{k: pa.array([row[k] for row, _g in rows],
                                 pa.string() if k == "Text"
                                 else pa.int32()) for k in names}})
    return with_geometry(t, [g for _row, g in rows])
