"""OpenJUMP JML reader — JCSDataFile XML with a JCSGMLInputTemplate
column template and GML feature geometries.

Reference driver: ogr/ogrsf_frmts/jml/. Template semantics replicated
from autotest/ogr/ogr_jml.py: <column> entries match either a
``<property name="X">value</property>``-style element (valueElement
elementName + attributeName/attributeValue, value in the body) or a
plain element (value in the body or in a named attribute); only
columns inside <ColumnDefinitions> count; features are <feature>
elements anywhere below the collection element, geometry parsed by
the GML geometry parser; date values normalize to OGR's
"YYYY/MM/DD HH:MM:SS[+TZ]" form.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pyarrow as pa

from .vector import with_geometry

__all__ = ["read_jml_table"]


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _norm_datetime(v: str) -> str:
    """'2014-10-18T21:36:45.000+0200' -> '2014/10/18 21:36:45+02';
    '2014/10/18' -> '2014/10/18 00:00:00' (OGR DATE normalization)."""
    m = re.match(r"(\d{4})[-/](\d{2})[-/](\d{2})"
                 r"(?:[T ](\d{2}):(\d{2}):(\d{2})(?:\.\d+)?"
                 r"(Z|[+-]\d{2}:?\d{2})?)?$", v.strip())
    if not m:
        return v
    y, mo, d, hh, mi, ss, tz = m.groups()
    out = f"{y}/{mo}/{d} {hh or '00'}:{mi or '00'}:{ss or '00'}"
    if tz and tz != "Z":
        tz = tz.replace(":", "")
        hours, mins = tz[:3], tz[3:]
        out += hours if not mins or mins == "00" else f"{hours}:{mins}"
    elif tz == "Z":
        out += "+00"
    return out


def read_jml_table(path: str) -> pa.Table:
    root = ET.parse(path).getroot()
    # --- template
    template = None
    for el in root.iter():
        if _local(el.tag) == "JCSGMLInputTemplate":
            template = el
            break
    columns = []  # (name, type, elementName, attrName, attrValue, loc,
    #               locAttrName)
    feat_tag = "feature"
    geom_tag = "geometry"
    if template is not None:
        for el in template:
            tag = _local(el.tag)
            if tag == "FeatureElement" and el.text:
                feat_tag = el.text.strip()
            elif tag == "GeometryElement" and el.text:
                geom_tag = el.text.strip()
        # a <column> anywhere under the template counts (the reference
        # reads the one after </ColumnDefinitions> too — "not_ignored")
        for col in template.iter():
            if _local(col.tag) != "column":
                continue
            name = ctype = elname = aname = aval = None
            loc = "body"
            loc_attr = None
            for sub in col:
                st = _local(sub.tag)
                if st == "name":
                    name = (sub.text or "").strip()
                elif st == "type":
                    ctype = (sub.text or "").strip().upper()
                elif st == "valueElement":
                    elname = sub.get("elementName")
                    aname = sub.get("attributeName")
                    aval = sub.get("attributeValue")
                elif st == "valueLocation":
                    loc = sub.get("position", "body")
                    loc_attr = sub.get("attributeName")
            if name and elname:
                columns.append((name, ctype or "STRING", elname,
                                aname, aval, loc, loc_attr))

    # --- collect features (anywhere under the collection element)
    from .gml import parse_gml_geometry
    feats = [el for el in root.iter() if _local(el.tag) == feat_tag]
    rows, geoms = [], []
    for f in feats:
        # skip degenerate nodes used as negative tests (no children)
        children = list(f)
        if not children:
            continue
        row = {}
        for name, ctype, elname, aname, aval, loc, loc_attr in columns:
            val = None
            for el in f.iter():
                if el is f or _local(el.tag) != elname:
                    continue
                if aname and el.get(aname) != aval:
                    continue
                val = el.get(loc_attr) if loc == "attribute" \
                    else (el.text or "")
                break
            if val is not None and val != "":
                if ctype == "INTEGER":
                    val = int(val)
                elif ctype == "DOUBLE":
                    val = float(val)
                elif ctype == "DATE":
                    val = _norm_datetime(val)
            elif val == "":
                val = ""
            row[name] = val
        g = None
        for el in f.iter():
            if _local(el.tag) == geom_tag:
                for child in el:
                    g = parse_gml_geometry(child)
                    if g is not None:
                        break
                break
        rows.append(row)
        geoms.append(g)

    names = [c[0] for c in columns]
    types = {c[0]: c[1] for c in columns}
    patype = {"INTEGER": pa.int32(), "DOUBLE": pa.float64()}
    t = pa.table({"fid": pa.array(range(len(geoms)), pa.int64()),
                  **{n: pa.array([r.get(n) for r in rows],
                                 patype.get(types[n], pa.string()))
                     for n in names}})
    return with_geometry(t, geoms)
