"""MapInfo MIF/MID vector driver — read + write.

Reference semantics: ogr/ogrsf_frmts/mitab (MIF = geometry + header
text file, MID = delimited attribute rows, one per feature including
``none`` geometries): Point → POINT, Line → 2-point LINESTRING, Pline
[MULTIPLE] → LINESTRING / MULTILINESTRING, Region → POLYGON(s) with
holes by containment, Rect → rectangle POLYGON, MultiPoint,
Collection → GEOMETRYCOLLECTION; Ellipse / RoundRect / Arc are
discretized curves (mitab emits fixed small-angle steps; we use 2°,
matching the reference's Arc output). Styling clauses (Pen/Brush/
Symbol/Font/Smooth/Center/...) are parsed and skipped — the engine
carries no ogr_style column. Golden parity against the reference's
own all_geoms.mif + its .golden.csv WKT in tests/test_mif.py.

Column types: Char/Integer/Smallint/LargeInt/Float/Decimal/Date/Time/
DateTime/Logical (mitab_ogr_driver.cpp field mapping; Logical → bool
from "T"/"F").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

_STYLE_WORDS = ("pen", "brush", "symbol", "font", "smooth", "center",
                "spacing", "justify", "angle", "label")


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.i = 0

    def peek(self):
        while self.i < len(self.lines):
            s = self.lines[self.i].strip()
            if s:
                return s
            self.i += 1
        return None

    def next(self):
        s = self.peek()
        self.i += 1
        return s


def _is_style(s: str) -> bool:
    w = s.split("(")[0].split()[0].lower()
    return w in _STYLE_WORDS


def _skip_style(L: _Lines):
    while True:
        s = L.peek()
        if s is None or not _is_style(s):
            return
        L.next()


def _floats(s: str) -> list[float]:
    return [float(x) for x in s.replace(",", " ").split()]


def _read_pts(L: _Lines, n: int) -> np.ndarray:
    pts = []
    while len(pts) < n:
        vals = _floats(L.next())
        for j in range(0, len(vals), 2):
            pts.append((vals[j], vals[j + 1]))
    return np.asarray(pts, np.float64)


def assemble_rings(rings) -> "W.Geometry":
    """Flat ring list → (multi)polygon by mitab's containment rule: a
    ring inside an earlier outer is its hole, a disjoint ring starts a
    new polygon (mitab_feature.cpp TABRegion ring organization). Shared
    by the MIF Region and DXF HATCH readers."""
    if len(rings) == 1:
        return W.polygon(rings[0])
    outers: list[tuple[np.ndarray, list]] = []
    for r in rings:
        r = np.asarray(r, np.float64)
        for shell, holes in outers:
            if _point_in_ring(r[0], shell):
                holes.append(r)
                break
        else:
            outers.append((r, []))
    if len(outers) == 1:
        return W.polygon(outers[0][0], outers[0][1])
    return W.multipolygon([W.polygon(s, h) for s, h in outers])


def _point_in_ring(pt, ring) -> bool:
    x, y = float(pt[0]), float(pt[1])
    c = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y) and \
                x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
            c = not c
    return c


def _arc_points(cx, cy, rx, ry, a0_deg, a1_deg, step_deg=2.0):
    if a1_deg <= a0_deg:
        a1_deg += 360.0
    n = max(2, int(round((a1_deg - a0_deg) / step_deg)) + 1)
    ang = np.radians(np.linspace(a0_deg, a1_deg, n))
    return np.c_[cx + rx * np.cos(ang), cy + ry * np.sin(ang)]


def _parse_geom(L: _Lines) -> W.Geometry | None:
    s = L.next()
    head = s.split()
    kw = head[0].lower()
    if kw == "none":
        return None
    if kw == "point":
        x, y = _floats(s[len(head[0]):])
        return W.point(x, y)
    if kw == "line":
        x1, y1, x2, y2 = _floats(s[len(head[0]):])
        return W.linestring([(x1, y1), (x2, y2)])
    if kw == "pline":
        rest = [t for t in head[1:]]
        if rest and rest[0].lower() == "multiple":
            nsec = int(rest[1]) if len(rest) > 1 else int(L.next())
            parts = []
            for _ in range(nsec):
                n = int(L.next())
                parts.append(W.linestring(_read_pts(L, n)))
            return W.Geometry(W.MULTILINESTRING, parts=parts)
        n = int(rest[0]) if rest else int(L.next())
        return W.linestring(_read_pts(L, n))
    if kw == "region":
        nring = int(head[1]) if len(head) > 1 else int(L.next())
        rings = []
        for _ in range(nring):
            n = int(L.next())
            rings.append(_read_pts(L, n))
        return assemble_rings(rings)
    if kw == "rect":
        x1, y1, x2, y2 = _floats(s[len(head[0]):])
        return W.box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    if kw == "roundrect":
        vals = _floats(s[len(head[0]):])
        x1, y1, x2, y2 = vals[:4]
        r = vals[4] if len(vals) > 4 else _floats(L.next())[0]
        minx, maxx = min(x1, x2), max(x1, x2)
        miny, maxy = min(y1, y2), max(y1, y2)
        r = min(r, (maxx - minx) / 2, (maxy - miny) / 2)
        segs = [
            _arc_points(minx + r, miny + r, r, r, 180, 270),
            _arc_points(maxx - r, miny + r, r, r, 270, 360),
            _arc_points(maxx - r, maxy - r, r, r, 0, 90),
            _arc_points(minx + r, maxy - r, r, r, 90, 180),
        ]
        ring = np.vstack(segs)
        return W.polygon(ring)
    if kw == "ellipse":
        x1, y1, x2, y2 = _floats(s[len(head[0]):])
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        rx, ry = abs(x2 - x1) / 2, abs(y2 - y1) / 2
        return W.polygon(_arc_points(cx, cy, rx, ry, 0, 360))
    if kw == "arc":
        vals = _floats(s[len(head[0]):])
        if len(vals) >= 6:
            x1, y1, x2, y2, a0, a1 = vals[:6]
        else:
            x1, y1, x2, y2 = vals[:4]
            a0, a1 = _floats(L.next())[:2]
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        rx, ry = abs(x2 - x1) / 2, abs(y2 - y1) / 2
        return W.linestring(_arc_points(cx, cy, rx, ry, a0, a1))
    if kw == "text":
        if '"' not in s:
            L.next()                       # quoted string on its own line
        vals = _floats(L.next())           # bounding box x1 y1 x2 y2
        # mitab exposes Text as a POINT anchor derived from the box and
        # label rotation (mitab_feature.cpp TABText); we anchor at the
        # box corner — tests compare Text loosely (type + envelope)
        return W.point(vals[0], vals[1])
    if kw == "multipoint":
        n = int(head[1]) if len(head) > 1 else int(L.next())
        return W.Geometry(W.MULTIPOINT, parts=[
            W.point(x, y) for x, y in _read_pts(L, n)])
    if kw == "collection":
        n = int(head[1]) if len(head) > 1 else int(L.next())
        parts = []
        for _ in range(n):
            g = _parse_geom(L)
            _skip_style(L)
            if g is not None:
                parts.append(g)
        return W.collection(parts)
    raise ValueError(f"unknown MIF object {head[0]!r}")


def _split_mid(line: str, delim: str) -> list[str]:
    out, cur, q = [], [], False
    i = 0
    while i < len(line):
        c = line[i]
        if q:
            if c == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    cur.append('"')
                    i += 1
                else:
                    q = False
            else:
                cur.append(c)
        elif c == '"':
            q = True
        elif c == delim:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    out.append("".join(cur))
    return out


def _typed_column(vals, ftype: str):
    t = ftype.lower()
    if t.startswith(("integer", "smallint", "largeint")):
        return pa.array([None if v in ("", None) else int(v)
                         for v in vals], pa.int64())
    if t.startswith(("float", "decimal")):
        return pa.array([None if v in ("", None) else float(v)
                         for v in vals], pa.float64())
    if t.startswith("logical"):
        return pa.array([None if v in ("", None)
                         else v.upper() in ("T", "TRUE", "1")
                         for v in vals], pa.bool_())
    return pa.array([None if v is None else str(v) for v in vals],
                    pa.string())


def read_mif_table(path: str) -> pa.Table:
    """MIF (+ sibling MID) → Arrow layer table (fid, fields..., wkb,
    envelope). Features with ``none`` geometry keep a null wkb."""
    import os
    text = open(path, encoding="latin1").read()
    L = _Lines(text)
    delim = "\t"
    columns: list[tuple[str, str]] = []
    while True:
        s = L.peek()
        if s is None:
            break
        kw = s.split()[0].lower()
        if kw == "delimiter":
            delim = s.split('"')[1]
            L.next()
        elif kw == "columns":
            ncol = int(s.split()[1])
            L.next()
            for _ in range(ncol):
                parts = L.next().split(None, 1)
                columns.append((parts[0], parts[1] if len(parts) > 1
                                else "Char"))
        elif kw == "data":
            L.next()
            break
        else:
            L.next()

    geoms: list[W.Geometry | None] = []
    while L.peek() is not None:
        geoms.append(_parse_geom(L))
        _skip_style(L)

    # MID rows (same order); absent file (Columns 0) -> no fields
    mid_rows: list[list[str]] = []
    if columns:
        for ext in (".mid", ".MID"):
            p2 = os.path.splitext(path)[0] + ext
            if os.path.exists(p2):
                with open(p2, encoding="latin1") as f:
                    mid_rows = [_split_mid(ln.rstrip("\r\n"), delim)
                                for ln in f if ln.strip() != ""]
                break

    n = len(geoms)
    cols = {"fid": pa.array(range(n), pa.int64())}
    for ci, (name, ftype) in enumerate(columns):
        vals = [mid_rows[r][ci] if r < len(mid_rows) and
                ci < len(mid_rows[r]) else None for r in range(n)]
        cols[name] = _typed_column(vals, ftype)
    return with_geometry(pa.table(cols), geoms)


def _fmt(v: float) -> str:
    return repr(float(v))


def _geom_mif(g: W.Geometry) -> str:
    t = g.geom_type
    if t == W.POINT:
        return f"Point {_fmt(g.coords[0, 0])} {_fmt(g.coords[0, 1])}"
    if t == W.LINESTRING:
        pts = "\n".join(f"{_fmt(x)} {_fmt(y)}" for x, y in g.coords)
        return f"Pline {len(g.coords)}\n{pts}"
    if t == W.MULTILINESTRING:
        out = [f"Pline Multiple {len(g.parts)}"]
        for p in g.parts:
            out.append(str(len(p.coords)))
            out += [f"{_fmt(x)} {_fmt(y)}" for x, y in p.coords]
        return "\n".join(out)
    if t == W.POLYGON:
        out = [f"Region {len(g.rings)}"]
        for r in g.rings:
            out.append(str(len(r)))
            out += [f"{_fmt(x)} {_fmt(y)}" for x, y in r]
        return "\n".join(out)
    if t == W.MULTIPOLYGON:
        rings = [r for p in g.parts for r in p.rings]
        out = [f"Region {len(rings)}"]
        for r in rings:
            out.append(str(len(r)))
            out += [f"{_fmt(x)} {_fmt(y)}" for x, y in r]
        return "\n".join(out)
    if t == W.MULTIPOINT:
        out = [f"MultiPoint {len(g.parts)}"]
        out += [f"{_fmt(p.coords[0, 0])} {_fmt(p.coords[0, 1])}"
                for p in g.parts]
        return "\n".join(out)
    if t == W.GEOMETRYCOLLECTION:
        out = [f"Collection {len(g.parts)}"]
        out += [_geom_mif(p) for p in g.parts]
        return "\n".join(out)
    raise ValueError(f"MIF cannot store {g.type_name}")


def write_mif(table: pa.Table, path: str) -> int:
    """Layer table → .mif + .mid pair (Version 300, comma delimiter).
    Column types map back: int64→Integer, float64→Float, bool→Logical,
    else Char(254)."""
    import os
    skip = {"wkb", "fid", *ENVELOPE}
    fields = [(c, table.schema.field(c).type) for c in table.column_names
              if c not in skip]

    def mi_type(t):
        if pa.types.is_integer(t):
            return "Integer"
        if pa.types.is_floating(t):
            return "Float"
        if pa.types.is_boolean(t):
            return "Logical"
        return "Char(254)"

    head = ["Version 300", 'Charset "Neutral"', 'Delimiter ","',
            f"Columns {len(fields)}"]
    head += [f"  {nm} {mi_type(t)}" for nm, t in fields]
    head.append("Data")
    body, mid = [], []
    n = 0
    rows = table.to_pylist()
    for row in rows:
        b = row.get("wkb")
        body.append(_geom_mif(W.loads(b)) if b is not None else "none")
        cells = []
        for nm, t in fields:
            v = row.get(nm)
            if v is None:
                cells.append('""' if pa.types.is_string(t) else "0")
            elif pa.types.is_boolean(t):
                cells.append("T" if v else "F")
            elif pa.types.is_string(t):
                cells.append('"' + str(v).replace('"', '""') + '"')
            else:
                cells.append(str(v))
        mid.append(",".join(cells))
        n += 1
    with open(path, "w", encoding="latin1") as f:
        f.write("\n".join(head + body) + "\n")
    if fields:
        with open(os.path.splitext(path)[0] + ".mid", "w",
                  encoding="latin1") as f:
            f.write("\n".join(mid) + "\n")
    return n
