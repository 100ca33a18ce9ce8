"""INTERLIS 1 (.itf) transfer-file reader with IlisMeta (.imd)
model metadata.

Independent implementation of the INTERLIS 1 transfer format (SN
612030; the reference wraps ili2c metadata through
ogr/ogrsf_frmts/ili/ + imdreader.cpp):

* the ``.imd`` IlisMeta07 XML supplies per-class transfer-element
  order and types — Coord attributes consume their axis count of
  inline tokens, AREA line attributes consume the reference-point
  tokens (the boundary lives in the ``<Table>_<Attr>`` helper table),
  POLYLINE attributes consume none (geometry records follow the
  OBJE line) — plus the Ili1Format blank/undefined/continue codes
  (defaults ``_`` / ``@`` / ``\\``).
* ``.itf`` records: MODL/TOPI/TABL sections, OBJE rows with CONT
  continuations, STPT/LIPT/ARCP/ELIN geometry records (ARCP =
  circular-arc mid point, stroked like the reference's arc
  interpolation).
* AREA assembly: the helper table's boundary lines are polygonized
  by half-edge face tracing (node lines at shared endpoints, walk
  most-counter-clockwise turns); each main feature gets the smallest
  CCW face containing its reference point, with contained CW cycles
  attached as holes — the reference delegates the same step to GEOS
  Polygonize + point location (ogrili1layer.cpp).

Layer naming is ``Topic__Table`` as in the reference.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

__all__ = ["read_ili1"]


# ---------------------------------------------------------------- imd

def _strip(tag):
    # {ns}IlisMeta07.ModelData.TransferElement → TransferElement
    return tag.rsplit("}", 1)[-1].rsplit(".", 1)[-1]


def read_imd(path: str) -> dict:
    """→ {"classes": {qualified name: [(attr name, kind, ntokens)]},
    "format": (blank, undefined, continue)}.  kind ∈ text / coord /
    area / polyline."""
    root = ET.parse(path).getroot()
    attr_kind: dict[str, tuple[str, int]] = {}
    coord_axes: dict[str, int] = {}
    line_kind: dict[str, str] = {}      # LineType TID → Area|Polyline
    line_attr: dict[str, str] = {}      # attr TID → its TYPE TID
    fmt = ("_", "@", "\\")

    for el in root.iter():
        nm = _strip(el.tag)
        if nm == "AxisSpec":
            ct = el.find("./{*}CoordType")
            if ct is not None:
                coord_axes[ct.get("REF")] = \
                    coord_axes.get(ct.get("REF"), 0) + 1
        elif nm == "LineType":
            kind = el.findtext("./{*}Kind") or ""
            line_kind[el.get("TID")] = kind
        elif nm == "Ili1Format":
            def _c(tag, dflt):
                v = el.findtext("./{*}" + tag)
                return chr(int(v)) if v else dflt
            fmt = (_c("blankCode", "_"), _c("undefinedCode", "@"),
                   _c("continueCode", "\\"))

    # attr TID → declared type TID (LTParent links the .TYPE node to
    # the attribute); CoordType/LineType TIDs end in ".TYPE"
    type_of_attr: dict[str, tuple[str, str]] = {}
    for el in root.iter():
        nm = _strip(el.tag)
        tid = el.get("TID") or ""
        parent = None
        for sub in el:
            if _strip(sub.tag) in ("LTParent",):
                parent = sub.get("REF")
        if parent is None:
            continue
        if nm == "CoordType":
            type_of_attr[parent] = ("coord",
                                    str(coord_axes.get(tid, 2)))
        elif nm == "LineType":
            kind = (el.findtext("./{*}Kind") or "").lower()
            type_of_attr[parent] = (
                "area" if kind == "area" else
                "surface" if kind == "surface" else "polyline", "0")
        elif nm in ("EnumType", "NumType", "TextType", "BooleanType"):
            type_of_attr.setdefault(parent, ("text", "1"))

    class_kinds: dict[str, str] = {}
    for el in root.iter():
        if _strip(el.tag) == "Class" and el.get("TID"):
            class_kinds[el.get("TID")] = el.findtext("./{*}Kind") or ""

    classes: dict[str, list] = {}
    order: dict[str, list] = {}
    for el in root.iter():
        if _strip(el.tag) != "TransferElement":
            continue
        cls = el.find("./{*}TransferClass")
        te = el.find("./{*}TransferElement")
        if cls is None or te is None:
            continue
        cref = cls.get("REF")
        aref = te.get("REF")
        pos = int(te.get("ORDER_POS", "0"))
        order.setdefault(cref, []).append((pos, aref))
    for cref, items in order.items():
        attrs = []
        for _pos, aref in sorted(items):
            name = aref.rsplit(".", 1)[-1]
            kind, extra = type_of_attr.get(aref, ("text", "1"))
            ntok = int(extra) if kind == "coord" else \
                (2 if kind == "area" else
                 0 if kind in ("polyline", "surface") else 1)
            attrs.append((name, kind, ntok))
        classes[cref] = attrs
    return {"classes": classes, "format": fmt, "kinds": class_kinds}


# ---------------------------------------------------------------- itf

def _parse_itf(path: str, fmt):
    """→ [(topic, table, [records])] where each record is
    (tokens, [polyline point-lists])."""
    blank, undef, cont = fmt
    text = open(path, "rb").read().decode("latin-1")
    topics = []
    topic = table = None
    records: list = []
    cur = None

    def stroke(points):
        # points: list of ("pt"|(x,y)) with arc markers resolved
        return points

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        tag = line[:4]
        rest = line[5:] if len(line) > 5 else ""
        if tag == "TOPI":
            topic = rest.strip()
        elif tag == "TABL":
            table = rest.strip()
            records = []
            topics.append((topic, table, records))
        elif tag == "ETAB":
            table = None
        elif tag == "OBJE":
            cur = {"tokens": [], "lines": [], "pending": None}
            records.append(cur)
            cur["pending"] = None
            _take_tokens(cur, rest, blank, undef, cont)
        elif tag == "CONT" and cur is not None:
            _take_tokens(cur, rest, blank, undef, cont)
        elif tag == "STPT" and cur is not None:
            x, y = [float(v) for v in rest.split()[:2]]
            cur["lines"].append([(x, y)])
        elif tag == "LIPT" and cur is not None and cur["lines"]:
            x, y = [float(v) for v in rest.split()[:2]]
            ln = cur["lines"][-1]
            if cur.get("arc") is not None:
                from ..core.wkb import _arc_points
                pts = _arc_points(ln[-1], cur["arc"], (x, y), 0.0873)
                ln.extend(tuple(p) for p in pts[1:])
                cur["arc"] = None
            else:
                ln.append((x, y))
        elif tag == "ARCP" and cur is not None:
            x, y = [float(v) for v in rest.split()[:2]]
            cur["arc"] = (x, y)
        elif tag == "ELIN":
            pass
        elif tag in ("EMOD", "ENDE", "ETOP"):
            table = None
    return topics


def _take_tokens(cur, rest, blank, undef, cont):
    toks = rest.split()
    more = False
    if toks and toks[-1] == cont:
        more = True
        toks = toks[:-1]
    for t in toks:
        if t == undef:
            cur["tokens"].append(None)
        else:
            cur["tokens"].append(t.replace(blank, " "))
    cur["more"] = more


# --------------------------------------------------- face extraction

def _polygonize(lines):
    """Planar face extraction over endpoint-noded polylines →
    (ccw faces [rings], cw cycles [rings])."""
    chains = []
    for ln in lines:
        if len(ln) >= 2:
            chains.append([tuple(p) for p in ln])
    # half edges: (chain idx, direction); nodes keyed by coordinate
    nodes: dict[tuple, list] = {}
    for ci, ch in enumerate(chains):
        nodes.setdefault(ch[0], []).append((ci, +1))
        nodes.setdefault(ch[-1], []).append((ci, -1))

    def angle_out(ci, d):
        ch = chains[ci]
        a, b = (ch[0], ch[1]) if d > 0 else (ch[-1], ch[-2])
        return math.atan2(b[1] - a[1], b[0] - a[0])

    used = set()
    ccw, cw = [], []
    for ci in range(len(chains)):
        for d in (+1, -1):
            if (ci, d) in used:
                continue
            ring = []
            c, dd = ci, d
            ok = True
            for _ in range(10000):
                used.add((c, dd))
                ch = chains[c] if dd > 0 else chains[c][::-1]
                ring.extend(ch[:-1])
                end = ch[-1]
                cand = [(c2, d2) for c2, d2 in nodes.get(end, [])
                        if (c2, d2) != (c, -dd) or
                        len(nodes.get(end, [])) == 1]
                if not cand:
                    ok = False
                    break
                # incoming direction angle at the end node
                prev = ch[-2]
                ain = math.atan2(end[1] - prev[1], end[0] - prev[0])
                best = None
                bestkey = None
                for c2, d2 in cand:
                    a = angle_out(c2, d2)
                    key = (a - ain - math.pi) % (2 * math.pi)
                    # smallest CCW turn from the reversed incoming
                    if key < 1e-12:
                        key = 2 * math.pi
                    if bestkey is None or key < bestkey:
                        bestkey = key
                        best = (c2, d2)
                c, dd = best
                if (c, dd) == (ci, d):
                    break
                if (c, dd) in used:
                    ok = False
                    break
            if not ok or len(ring) < 3:
                continue
            ring.append(ring[0])
            a = _signed_area(ring)
            (ccw if a > 0 else cw).append(ring)
    return ccw, cw


def _signed_area(ring):
    a = 0.0
    for i in range(len(ring) - 1):
        a += ring[i][0] * ring[i + 1][1] - ring[i + 1][0] * ring[i][1]
    return a / 2.0


def _point_in_ring(pt, ring):
    x, y = pt
    inside = False
    j = len(ring) - 2
    for i in range(len(ring) - 1):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > y) != (yj > y) and \
                x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


# ---------------------------------------------------------------- api

def read_ili1(itf_path: str, imd_path: str) -> dict[str, pa.Table]:
    """→ {"Topic__Table": table}.  Main tables carry their attribute
    tokens (TID first) plus geometry WKB; AREA attributes yield a
    polygon (from the helper-table boundary) AND the reference point
    as a second geometry column ``wkb_point``."""
    from ..core import wkb as W

    if imd_path is None:
        raise ValueError("INTERLIS 1 needs a sibling .imd model file")
    meta = read_imd(imd_path)
    topics = _parse_itf(itf_path, meta["format"])

    # class lookup by trailing Topic.Table name
    def class_attrs(topic, table):
        for cref, attrs in meta["classes"].items():
            if cref.endswith(f".{topic}.{table}") or \
                    cref.endswith(f".{table}"):
                return attrs
        return None

    # collect helper (area/surface boundary) tables: all lines for
    # AREA polygonization plus per-owner line groups for SURFACE
    helper_lines: dict[str, list] = {}
    helper_by_owner: dict[str, dict] = {}
    for topic, table, records in topics:
        if "_" in table:
            lines = []
            by_owner: dict[str, list] = {}
            for rec in records:
                lines.extend(rec["lines"])
                if len(rec["tokens"]) >= 2:
                    by_owner.setdefault(str(rec["tokens"][1]),
                                        []).extend(rec["lines"])
            helper_lines[f"{topic}.{table}"] = lines
            helper_by_owner[f"{topic}.{table}"] = by_owner

    out: dict[str, pa.Table] = {}
    seen_tables = {(topic, table) for topic, table, _r in topics}
    present_topics = {topic for topic, _t, _r in topics}
    for cref, kind in meta.get("kinds", {}).items():
        parts = cref.split(".")
        if len(parts) < 3 or kind == "Association":
            continue
        topic, table = parts[-2], parts[-1]
        if topic in present_topics and (topic, table) not in seen_tables \
                and kind == "Structure":
            attrs = meta["classes"].get(cref, [])
            cols = {"TID": []}
            for name, k, ntok in attrs:
                if k in ("polyline", "surface"):
                    continue
                if k in ("coord", "area"):
                    for i in range(ntok):
                        cols[f"{name}_{i}"] = []
                else:
                    cols[name] = []
            cols["wkb"] = []
            out[f"{topic}__{table}"] = pa.Table.from_pydict(
                cols, schema=pa.schema(
                    [(n, pa.binary() if n == "wkb" else pa.string())
                     for n in cols]))
    for topic, table, records in topics:
        lname = f"{topic}__{table}"
        attrs = class_attrs(topic, table)
        if attrs is None:
            # helper table: expose boundary lines as a line layer
            rows = {"TID": [], "wkb": []}
            for rec in records:
                rows["TID"].append(rec["tokens"][0]
                                   if rec["tokens"] else None)
                g = None
                if rec["lines"]:
                    segs = [ln for ln in rec["lines"] if len(ln) >= 2]
                    if len(segs) == 1:
                        g = W.linestring(segs[0])
                    elif segs:
                        g = W.collection([W.linestring(s)
                                          for s in segs])
                rows["wkb"].append(W.dumps(g) if g is not None else None)
            out[lname] = pa.Table.from_pydict(
                rows, schema=pa.schema([("TID", pa.string()),
                                        ("wkb", pa.binary())]))
            continue

        # main table: token layout = TID + per-attr tokens
        field_names = ["TID"]
        for name, kind, ntok in attrs:
            if kind == "coord" or kind == "area":
                for i in range(ntok):
                    field_names.append(f"{name}_{i}")
            elif kind in ("polyline", "surface"):
                continue
            else:
                field_names.append(name)

        area_attr = next(((n, k, t) for n, k, t in attrs
                          if k == "area"), None)
        surf_attr = next(((n, k, t) for n, k, t in attrs
                          if k == "surface"), None)
        coord_attr = next(((n, k, t) for n, k, t in attrs
                           if k == "coord"), None)
        faces = None
        if area_attr is not None:
            key = f"{topic}.{table}_{area_attr[0]}"
            lines = helper_lines.get(key, [])
            faces = _polygonize(lines)

        cols = {f: [] for f in field_names}
        wkbs, pt_wkbs = [], []
        for rec in records:
            toks = list(rec["tokens"])
            ti = 0
            vals = {}
            vals["TID"] = toks[ti] if ti < len(toks) else None
            ti += 1
            refpt = None
            for name, kind, ntok in attrs:
                if kind in ("polyline", "surface"):
                    continue
                if kind in ("coord", "area"):
                    xy = []
                    for i in range(ntok):
                        v = toks[ti] if ti < len(toks) else None
                        vals[f"{name}_{i}"] = v
                        xy.append(float(v) if v is not None else None)
                        ti += 1
                    if None not in xy and len(xy) >= 2:
                        if kind == "area":
                            refpt = (xy[0], xy[1])
                        else:
                            refpt = refpt or (xy[0], xy[1])
                else:
                    vals[name] = toks[ti] if ti < len(toks) else None
                    ti += 1
            for f in field_names:
                cols[f].append(vals.get(f))

            g = None
            if rec["lines"]:
                segs = [ln for ln in rec["lines"] if len(ln) >= 2]
                if len(segs) == 1:
                    g = W.linestring(segs[0])
                elif segs:
                    g = W.collection([W.linestring(s) for s in segs])
            elif surf_attr is not None:
                key = f"{topic}.{table}_{surf_attr[0]}"
                owner = helper_by_owner.get(key, {}).get(
                    str(vals.get("TID")), [])
                rings = []
                for ln in owner:
                    pts = [tuple(p) for p in ln]
                    if len(pts) >= 3:
                        if pts[0] != pts[-1]:
                            pts.append(pts[0])
                        rings.append(pts)
                if rings:
                    rings.sort(key=lambda r: -abs(_signed_area(r)))
                    g = W.polygon(rings[0], holes=rings[1:])
            elif area_attr is not None and refpt is not None and faces:
                ccw, cw = faces
                cands = [r for r in ccw if _point_in_ring(refpt, r)]
                if cands:
                    outer = min(cands, key=lambda r: abs(_signed_area(r)))
                    holes = [h for h in cw
                             if abs(_signed_area(h)) <
                             abs(_signed_area(outer))
                             and _point_in_ring(h[0], outer)
                             and not any(
                                 np.allclose(h[0], p) for p in outer)]
                    g = W.polygon(outer, holes=holes)
            elif coord_attr is not None and refpt is not None:
                g = W.point(*refpt)
            wkbs.append(W.dumps(g) if g is not None else None)
            if area_attr is not None and refpt is not None:
                pt_wkbs.append(W.dumps(W.point(*refpt)))
            else:
                pt_wkbs.append(None)

        fields = [(f, pa.string()) for f in field_names]
        cols["wkb"] = wkbs
        fields.append(("wkb", pa.binary()))
        if area_attr is not None:
            cols["wkb_point"] = pt_wkbs
            fields.append(("wkb_point", pa.binary()))
        out[lname] = pa.Table.from_pydict(cols,
                                          schema=pa.schema(fields))
    return out
