"""GeoRSS (RSS 2.0 / Atom feeds with georss: geometries) reader and
writer. Reference driver: ogr/ogrsf_frmts/georss/.

Behavior parity (autotest/ogr/ogr_georss.py): georss:point/line/
polygon carry lat-lon pairs that surface in lon-lat axis order;
georss:box becomes the (lon1 lat1, lon1 lat2, lon2 lat2, lon2 lat1)
polygon; GML child geometries (georss:where) go through the GML
geometry parser; repeated <category> elements become category,
category_domain, category2, …; RFC-822 pubDate values normalize to
OGR's "YYYY/MM/DD HH:MM:SS+TZ" form.
"""

from __future__ import annotations

import email.utils
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

__all__ = ["read_georss_table", "write_georss"]

_GEORSS_NS = "http://www.georss.org/georss"
_ITEM_FIELDS = ("title", "author", "link", "pubDate", "description",
                "content")
_ATOM_ITEM_FIELDS = ("title", "link", "updated", "author", "id",
                     "summary", "content")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _latlon_pairs(text: str) -> np.ndarray:
    vals = [float(t) for t in text.split()]
    a = np.asarray(vals, np.float64).reshape(-1, 2)
    return a[:, ::-1]  # lat lon -> lon lat


def _rfc822_to_ogr(s: str) -> str:
    try:
        dt = email.utils.parsedate_to_datetime(s)
    except (TypeError, ValueError):
        return s
    off = dt.utcoffset()
    if off is None:
        tz = ""
    else:
        mins = int(off.total_seconds() // 60)
        sign = "+" if mins >= 0 else "-"
        mins = abs(mins)
        tz = f"{sign}{mins // 60:02d}"
        if mins % 60:
            tz += f":{mins % 60:02d}"
    return dt.strftime("%Y/%m/%d %H:%M:%S") + tz


def _item_geometry(item) -> W.Geometry | None:
    from .gml import parse_gml_geometry
    for el in item.iter():
        tag = _local(el.tag)
        if tag == "point" and el.text:
            c = _latlon_pairs(el.text)
            return W.point(c[0, 0], c[0, 1])
        if tag == "line" and el.text:
            return W.linestring(_latlon_pairs(el.text))
        if tag == "polygon" and el.text:
            return W.polygon(_latlon_pairs(el.text))
        if tag == "box" and el.text:
            v = [float(t) for t in el.text.split()]
            lat1, lon1, lat2, lon2 = v[:4]
            return W.polygon([(lon1, lat1), (lon1, lat2), (lon2, lat2),
                              (lon2, lat1), (lon1, lat1)])
        if tag == "where":
            for child in el:
                g = parse_gml_geometry(child)
                if g is not None:
                    return _swap_axes(g)  # GML in GeoRSS is lat-lon
    return None


def _swap_axes(g: W.Geometry) -> W.Geometry:
    if g.coords is not None and len(g.coords):
        g.coords = g.coords[:, ::-1].copy()
    g.rings = [r[:, ::-1].copy() for r in g.rings]
    g.parts = [_swap_axes(p) for p in g.parts]
    return g


def read_georss_table(path: str) -> pa.Table:
    root = ET.parse(path).getroot()
    is_atom = _local(root.tag) == "feed"
    items = [el for el in root.iter()
             if _local(el.tag) in ("item", "entry")]
    base_fields = _ATOM_ITEM_FIELDS if is_atom else _ITEM_FIELDS
    order: list[str] = []
    rows: list[dict] = []
    geoms: list[W.Geometry | None] = []
    for item in items:
        row: dict = {}
        ncat = 0
        for el in item:
            tag = _local(el.tag)
            if tag in ("point", "line", "polygon", "box", "where"):
                continue
            if tag == "category":
                ncat += 1
                key = "category" if ncat == 1 else f"category{ncat}"
                row[key] = (el.text or "").strip() or \
                    el.get("term") or None
                dom = el.get("domain") or el.get("scheme")
                if dom:
                    row[key + "_domain"] = dom
            elif tag == "author" and len(el):
                for sub in el:
                    row[f"author_{_local(sub.tag)}"] = \
                        (sub.text or "").strip()
            else:
                val = (el.text or "").strip()
                if tag == "pubDate" and val:
                    val = _rfc822_to_ogr(val)
                if tag == "link" and is_atom and not val:
                    val = el.get("href") or ""
                row[tag] = val or None
        for k in row:
            if k not in order:
                order.append(k)
        rows.append(row)
        geoms.append(_item_geometry(item))

    # stable field ordering: known feed fields first, then others
    ordered = [f for f in base_fields if f in order] + \
        [f for f in order if f not in base_fields]
    cols = {k: [r.get(k) for r in rows] for k in ordered}
    fids = list(range(len(rows)))
    t = pa.table({"fid": pa.array(fids, pa.int64()),
                  **{k: pa.array(cols[k], pa.string())
                     for k in ordered}})
    return with_geometry(t, geoms).replace_schema_metadata({b"crs": b"EPSG:4326"})


def write_georss(table: pa.Table, path: str) -> int:
    """Write an RSS 2.0 GeoRSS-simple document (the reference's
    default FORMAT=RSS GEOM_DIALECT=SIMPLE)."""
    skip = {"wkb", "fid", *ENVELOPE}
    names = [c for c in table.column_names if c not in skip]
    out = ['<?xml version="1.0"?>',
           f'<rss version="2.0" xmlns:georss="{_GEORSS_NS}">',
           "  <channel>",
           "    <title>gdal_ray</title>"]
    for i in range(table.num_rows):
        out.append("    <item>")
        for n in names:
            v = table[n][i].as_py()
            if v is None:
                continue
            from xml.sax.saxutils import escape
            out.append(f"      <{n}>{escape(str(v))}</{n}>")
        b = table["wkb"][i].as_py()
        if b:
            g = W.loads(b)
            if g.geom_type == W.POINT:
                out.append("      <georss:point>"
                           f"{g.coords[0][1]:.10g} {g.coords[0][0]:.10g}"
                           "</georss:point>")
            elif g.geom_type == W.LINESTRING:
                body = " ".join(f"{y:.10g} {x:.10g}"
                                for x, y in g.coords)
                out.append(f"      <georss:line>{body}</georss:line>")
            elif g.geom_type == W.POLYGON:
                body = " ".join(f"{y:.10g} {x:.10g}"
                                for x, y in g.rings[0])
                out.append(
                    f"      <georss:polygon>{body}</georss:polygon>")
        out.append("    </item>")
    out += ["  </channel>", "</rss>"]
    open(path, "w").write("\n".join(out))
    return table.num_rows
