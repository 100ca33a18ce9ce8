"""EDIGEO (French cadastre exchange, AFNOR NF Z 52000) reader.

An EDIGEO lot is a bundle keyed by a ``.THF`` transfer header whose
``LONSA``/``GONSA``/``DINSA``/``SCNSA``/``GDNSA`` fields name the
companion files ``<LON><name>.{GEO,DIC,SCD,VEC}``
(ogr/ogrsf_frmts/edigeo/ogredigeodatasource.cpp ReadTHF :85-150).
All files share one line grammar: 80-char lines with a descriptor in
columns 1-7 and ``:`` at column 8 (``RTYSA03:FEA`` …).

- GEO → ``RELSA`` projection name; the reference hardcodes the
  French Lambert zone proj strings when IGNF resolution is
  unavailable (:207-250) and we carry the same table;
- DIC → object (``DID``) and attribute (``DIA``) dictionaries
  mapping RIDs to labels and types;
- SCD → ``OBJ`` class descriptors (DIPCP name ref, KND kind, AAPCP
  attribute refs) and ``ATT`` attribute descriptors;
- VEC → ``PAR`` arcs (CORCC coordinate pairs), ``PNO`` point
  objects, ``FEA`` features (SCPCP class ref, ATPCP/ATVS attribute
  values with NEXT continuations and 8859-1 recode), and ``LNK``
  links (FTPCP start/end refs) wiring FEA→PNO / FEA→PAR /
  FEA→PFE→PAR (ReadVEC :624-870);
- geometry assembly mirrors the driver: points from the linked PNO,
  lines by concatenating linked arcs, polygons by chaining each
  PFE's arcs end-to-end with reversal (BuildPolygon :1130-1250),
  largest-|area| ring exterior, the rest holes.

Layers are one per SCD object class, named by the class RID like
the reference (e.g. ``PARCELLE_id``), with DIC-labelled attribute
columns and WKB geometry."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from . import pick_layer

__all__ = ["read_edigeo_layers", "read_edigeo"]

_LAMBERT = {
    "LAMB1": "+proj=lcc +lat_1=49.5 +lat_0=49.5 +lon_0=0 "
             "+k_0=0.99987734 +x_0=600000 +y_0=200000 +a=6378249.2 "
             "+b=6356514.999978254 +pm=paris +units=m",
    "LAMB2": "+proj=lcc +lat_1=46.8 +lat_0=46.8 +lon_0=0 "
             "+k_0=0.99987742 +x_0=600000 +y_0=200000 +a=6378249.2 "
             "+b=6356514.999978254 +pm=paris +units=m",
    "LAMB3": "+proj=lcc +lat_1=44.1 +lat_0=44.1 +lon_0=0 "
             "+k_0=0.9998775 +x_0=600000 +y_0=200000 +a=6378249.2 "
             "+b=6356514.999978254 +pm=paris +units=m",
    "LAMB4": "+proj=lcc +lat_1=42.165 +lat_0=42.165 +lon_0=0 "
             "+k_0=0.99994471 +x_0=234.358 +y_0=185861.369 "
             "+a=6378249.2 +b=6356514.999978254 +pm=paris +units=m",
    "LAMB93": "+proj=lcc +lat_1=44 +lat_2=49 +lat_0=46.5 +lon_0=3 "
              "+x_0=700000 +y_0=6600000 +ellps=GRS80 "
              "+towgs84=0,0,0,0,0,0,0 +units=m",
}


def _lines(path: str):
    with open(path, "rb") as fh:
        for raw in fh.read().splitlines():
            line = raw.decode("latin1")
            if len(line) >= 8 and line[7] == ":":
                yield line


def _records(path: str):
    """Group descriptor lines into records split on RTYSA."""
    rec: list = []
    for line in _lines(path):
        if line.startswith("RTYSA"):
            if rec:
                yield rec
            rec = [line]
        else:
            rec.append(line)
    if rec:
        yield rec


def _value(line: str) -> str:
    return line[8:]


def _find_file(d: str, stem: str, ext: str):
    for cand in (f"{stem}.{ext}", f"{stem}.{ext.lower()}"):
        p = os.path.join(d, cand)
        if os.path.exists(p):
            return p
    # case-insensitive fallback
    low = f"{stem}.{ext}".lower()
    for f in os.listdir(d):
        if f.lower() == low:
            return os.path.join(d, f)
    return None


def _ring_area(pts) -> float:
    a = np.asarray(pts, dtype=np.float64)
    if len(a) < 3:
        return 0.0
    x, y = a[:, 0], a[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1))
                       - np.dot(y, np.roll(x, -1)))


def read_edigeo_layers(thf_path: str) -> dict[str, pa.Table]:
    d = os.path.dirname(thf_path) or "."
    lon = gon = din = scn = None
    gdns: list[str] = []
    for line in _lines(thf_path):
        if line.startswith("LONSA") and lon is None:
            lon = _value(line)
        elif line.startswith("GONSA"):
            gon = _value(line)
        elif line.startswith("DINSA"):
            din = _value(line)
        elif line.startswith("SCNSA"):
            scn = _value(line)
        elif line.startswith("GDNSA"):
            gdns.append(_value(line))
    if not lon or not gon or not din or not scn:
        raise ValueError("EDIGEO: THF missing LON/GON/DIN/SCN fields")

    # ---- GEO: projection
    crs = None
    geo = _find_file(d, lon + gon, "GEO")
    if geo:
        for line in _lines(geo):
            if line.startswith("RELSA"):
                crs = _LAMBERT.get(_value(line), _value(line))
                break

    # ---- DIC: dictionaries
    obj_labels: dict[str, str] = {}
    att_labels: dict[str, tuple] = {}
    dic = _find_file(d, lon + din, "DIC")
    if dic:
        for rec in _records(dic):
            rty = _value(rec[0])
            rid = lab = typ = ""
            for line in rec[1:]:
                if line.startswith("RIDSA"):
                    rid = _value(line)
                elif line.startswith("LABSA"):
                    lab = _value(line)
                elif line.startswith("TYPSA"):
                    typ = _value(line)
            if rty == "DID":
                obj_labels[rid] = lab
            elif rty == "DIA":
                att_labels[rid] = (lab, typ)

    # ---- SCD: class + attribute descriptors
    classes: dict[str, dict] = {}     # SCP RID -> desc
    scd_attrs: dict[str, str] = {}    # SCD att RID -> DIC att RID
    scd = _find_file(d, lon + scn, "SCD")
    if scd:
        for rec in _records(scd):
            rty = _value(rec[0])
            rid = name_rid = knd = ""
            attrs: list[str] = []
            for line in rec[1:]:
                if line.startswith("RIDSA"):
                    rid = _value(line)
                elif line.startswith("DIPCP"):
                    toks = _value(line).split(";")
                    if len(toks) == 4:
                        name_rid = toks[3]
                elif line.startswith("KNDSA"):
                    knd = _value(line)
                elif line.startswith("AAPCP"):
                    toks = _value(line).split(";")
                    if len(toks) == 4:
                        attrs.append(toks[3])
            if rty == "OBJ":
                classes[rid] = {"name_rid": name_rid, "kind": knd,
                                "attrs": attrs}
            elif rty == "ATT":
                scd_attrs[rid] = name_rid

    # ---- VEC files
    arcs: dict[str, list] = {}
    points: dict[str, tuple] = {}
    feas: dict[str, dict] = {}
    fea_pno: dict[str, str] = {}
    fea_par: dict[str, list] = {}
    fea_pfe: dict[str, list] = {}
    pfe_par: dict[str, list] = {}
    for gdn in gdns:
        vec = _find_file(d, lon + gdn, "VEC")
        if not vec:
            continue
        for rec in _records(vec):
            rty = _value(rec[0])
            rid = scp = ""
            xy: list = []
            att_id = ""
            attvals: list = []
            lnk_refs: list = []
            i = 1
            while i < len(rec):
                line = rec[i]
                if line.startswith("RIDSA"):
                    rid = _value(line)
                elif line.startswith("CORCC"):
                    toks = _value(line).split(";")
                    if len(toks) >= 2:
                        xy.append((float(toks[0]), float(toks[1])))
                elif line.startswith("FTPCP"):
                    toks = _value(line).split(";")
                    if len(toks) == 4:
                        lnk_refs.append((toks[2], toks[3]))
                elif line.startswith("SCPCP"):
                    toks = _value(line).split(";")
                    if len(toks) == 4 and toks[2] in ("OBJ", "ASS"):
                        scp = toks[3]
                elif line.startswith("ATPCP"):
                    toks = _value(line).split(";")
                    if len(toks) == 4 and toks[2] == "ATT":
                        att_id = toks[3]
                elif line.startswith("ATVS"):
                    val = _value(line)
                    while i + 1 < len(rec) and \
                            rec[i + 1].startswith("NEXT "):
                        i += 1
                        val += _value(rec[i])
                    if att_id:
                        attvals.append((att_id, val))
                    att_id = ""
                i += 1
            if rty == "PAR" and len(xy) >= 2:
                arcs[rid] = xy
            elif rty == "PNO" and len(xy) == 1:
                points[rid] = xy[0]
            elif rty == "FEA":
                feas[rid] = {"scp": scp, "attrs": attvals}
            elif rty == "LNK" and len(lnk_refs) >= 2:
                (st, sn), ends = lnk_refs[0], lnk_refs[1:]
                for et, en in ends:
                    if st == "FEA" and et == "PNO":
                        fea_pno[sn] = en
                    elif st == "FEA" and et == "PAR":
                        fea_par.setdefault(sn, []).append(en)
                    elif st == "FEA" and et == "PFE":
                        fea_pfe.setdefault(sn, []).append(en)
                    elif st == "PAR" and et == "PFE":
                        lst = pfe_par.setdefault(en, [])
                        if sn not in lst:
                            lst.append(sn)

    # ---- geometry assembly
    def chain(par_ids):
        segs = [list(arcs[p]) for p in par_ids if p in arcs]
        if not segs:
            return []
        ring = segs.pop(0)
        while segs and ring[-1] != ring[0]:
            for k, seg in enumerate(segs):
                if seg[0] == ring[-1]:
                    ring += seg[1:]
                    segs.pop(k)
                    break
                if seg[-1] == ring[-1]:
                    ring += seg[-2::-1]
                    segs.pop(k)
                    break
            else:
                break
        return ring

    def geometry_for(fea_id, kind):
        if fea_id in fea_pno and fea_pno[fea_id] in points:
            x, y = points[fea_pno[fea_id]]
            return W.point(x, y)
        if fea_id in fea_pfe:
            rings = []
            for pfe in fea_pfe[fea_id]:
                ring = chain(pfe_par.get(pfe, []))
                if len(ring) >= 3:
                    rings.append(ring)
            if rings:
                rings.sort(key=lambda r: -abs(_ring_area(r)))
                return W.polygon(rings[0], holes=rings[1:])
        if fea_id in fea_par:
            line = chain(fea_par[fea_id])
            if len(line) >= 2:
                return W.linestring(line)
        return None

    # ---- layers: one per SCD class
    layers: dict[str, pa.Table] = {}
    for scp_rid, desc in classes.items():
        members = [(fid, f) for fid, f in feas.items()
                   if f["scp"] == scp_rid]
        if not members:
            continue
        att_names = []
        for a in desc["attrs"]:
            dic_rid = scd_attrs.get(a, a)
            att_names.append(att_labels.get(dic_rid, (a, ""))[0] or a)
        cols: dict[str, list] = {"OBJECT_RID": []}
        for n in att_names:
            cols[n] = []
        wkbs = []
        for fid, f in members:
            cols["OBJECT_RID"].append(fid)
            by_label = {}
            for k, v in f["attrs"]:
                dic_rid = scd_attrs.get(k, k)
                by_label[att_labels.get(dic_rid, (k, ""))[0]
                         or dic_rid] = v
            for n in att_names:
                cols[n].append(by_label.get(n))
            g = geometry_for(fid, desc["kind"])
            wkbs.append(W.dumps(g) if g is not None else None)
        arrays = {k: pa.array(v, pa.string()) for k, v in cols.items()}
        arrays["wkb_geometry"] = pa.array(wkbs, pa.binary())
        t = pa.table(arrays)
        if crs:
            t = t.replace_schema_metadata({b"crs": crs.encode()})
        layers[scp_rid] = t
    return layers


def read_edigeo(thf_path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_edigeo_layers(thf_path), thf_path, layer)
