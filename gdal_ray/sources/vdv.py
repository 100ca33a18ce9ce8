"""VDV-451/452 and IDF transit-data files.

Reference driver: ogr/ogrsf_frmts/vdv/. Both shapes share the
semicolon record grammar: ``tbl;`` starts a table (one OGR layer),
``atr;`` names columns, ``frm;`` gives types (decimal(n) -> int,
decimal(n,m) -> real, string(n) -> string), ``rec;`` rows (quoted
strings, NULL for missing), ``end;``/``eof;`` terminate.

IDF files additionally get geometry synthesized like the reference
(ogrvdvdatasource.cpp IDF path): Node rows become POINT(X Y); Link
rows become LINESTRINGs chaining FROM_NODE -> ordered LinkCoordinate
rows -> TO_NODE; LinkCoordinate rows become points. Goldens in
tests/test_vecformats2.py from autotest/ogr/ogr_vdv.py (test.idf:
node POINT (2 49), link LINESTRING (2 49,2.5 49.5,2.7 49.7,3 50)).
"""

from __future__ import annotations

import pyarrow as pa

from ..core import wkb as W
from . import pick_layer
from .vector import with_geometry

__all__ = ["read_vdv_layers", "read_vdv_table"]


def _split(line: str) -> list[str]:
    """Split a VDV record on ';' respecting double quotes."""
    out, cur, q = [], [], False
    for ch in line:
        if ch == '"':
            q = not q
        elif ch == ";" and not q:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


def read_vdv_layers(path: str) -> dict[str, pa.Table]:
    tables: dict[str, tuple[list[str], list[str], list[list]]] = {}
    name = None
    atr: list[str] = []
    frm: list[str] = []
    recs: list[list] = []
    for raw in open(path, encoding="latin-1"):
        line = raw.strip()
        if not line:
            continue
        parts = _split(line)
        key = parts[0].lower()
        if key == "tbl":
            if name:
                tables[name] = (atr, frm, recs)
            name = parts[1]
            atr, frm, recs = [], [], []
        elif key == "atr":
            atr = parts[1:]
        elif key == "frm":
            frm = parts[1:]
        elif key == "rec":
            recs.append(parts[1:])
        elif key in ("end", "eof"):
            if name:
                tables[name] = (atr, frm, recs)
                name = None
    if name:
        tables[name] = (atr, frm, recs)

    def conv(v: str, f: str):
        if v == "" or v.upper() == "NULL":
            return None
        f = f.lower()
        if f.startswith("decimal") or f.startswith("num"):
            if "," in f.split("(")[-1]:
                return float(v)
            try:
                return int(v)
            except ValueError:
                return float(v)
        return v

    parsed: dict[str, list[dict]] = {}
    for tname, (cols, fmts, rows) in tables.items():
        out_rows = []
        for r in rows:
            d = {}
            for j, c in enumerate(cols):
                f = fmts[j] if j < len(fmts) else "string"
                d[c] = conv(r[j], f) if j < len(r) else None
            out_rows.append(d)
        parsed[tname] = out_rows

    # --- IDF geometry synthesis
    nodes = {r.get("NODE_ID"): (r.get("X"), r.get("Y"))
             for r in parsed.get("Node", [])}
    link_coords: dict[int, list] = {}
    for r in parsed.get("LinkCoordinate", []):
        link_coords.setdefault(r.get("LINK_ID"), []).append(
            (r.get("COUNT"), r.get("X"), r.get("Y")))
    for v in link_coords.values():
        v.sort()

    out: dict[str, pa.Table] = {}
    for tname, rows in parsed.items():
        cols = tables[tname][0]
        fmts = tables[tname][1]
        geoms: list[W.Geometry | None] = []
        for r in rows:
            g = None
            if tname == "Node" and r.get("X") is not None:
                g = W.point(float(r["X"]), float(r["Y"]))
            elif tname == "LinkCoordinate" and r.get("X") is not None:
                g = W.point(float(r["X"]), float(r["Y"]))
            elif tname == "Link":
                pts = []
                fr = nodes.get(r.get("FROM_NODE"))
                to = nodes.get(r.get("TO_NODE"))
                if fr and fr[0] is not None:
                    pts.append((float(fr[0]), float(fr[1])))
                for _c, x, y in link_coords.get(r.get("LINK_ID"), []):
                    pts.append((float(x), float(y)))
                if to and to[0] is not None:
                    pts.append((float(to[0]), float(to[1])))
                if len(pts) >= 2:
                    g = W.linestring(pts)
            geoms.append(g)
        patype = {}
        for j, c in enumerate(cols):
            f = (fmts[j] if j < len(fmts) else "string").lower()
            if f.startswith("decimal") and "," in f.split("(")[-1]:
                patype[c] = pa.float64()
            elif f.startswith("decimal") or f.startswith("num"):
                patype[c] = pa.int64()
            else:
                patype[c] = pa.string()
        t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                      **{c: pa.array([r.get(c) for r in rows],
                                     patype[c]) for c in cols}})
        out[tname] = with_geometry(t, geoms)
    return out


def read_vdv_table(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_vdv_layers(path), path, layer)
