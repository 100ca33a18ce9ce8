"""IHO S-57 ENC (Electronic Navigational Chart) reader.

Reference driver: ogr/ogrsf_frmts/s57/ (s57reader.cpp). Built on the
ISO 8211 container (sources/iso8211.py) and the published S-57 ed.3.1
binary field layouts:
- DSPM: COMF/SOMF coordinate + sounding multipliers;
- vector records (VRID RCNM 110 VI / 120 VC / 130 VE): SG2D/SG3D
  lat,lon pairs scaled by 1/COMF (depths by 1/SOMF), VRPT begin/end
  connected-node pointers (TOPI 1/2);
- feature records (FRID/FOID/ATTF/NATF/FSPT): OBJL -> layer acronym
  via the embedded IHO catalogue (s57_catalog.py), ATTL -> attribute
  acronym with list-type values split on ',', LNAM =
  AGEN/FIDN/FIDS hex, FSPT NAME = RCNM+RCID edge/node pointers with
  ORNT 2 = reversed, USAG 2 = interior ring;
- geometry assembly exactly like the reference layer: PRIM 1 points
  (SOUNDG isolated nodes with SG3D become MultiPoint Z), PRIM 2 edge
  chains merged into LINESTRING / MULTILINESTRING parts, PRIM 3 rings
  chained from exterior/interior edge sets into polygons with holes.

Goldens in tests/test_s57.py from autotest/ogr/ogr_s57.py
(1B5X02NE.000 layer/feature counts, COALNE attributes, M_QUAL
polygon WKT, SOUNDG 3-D multipoint + list attribute, bug1526
double-byte attributes, bug2147 multilinestring).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .iso8211 import UT, read_8211
from .s57_catalog import ATTRIBUTES, OBJECT_CLASSES
from .vector import with_geometry

__all__ = ["read_s57_layers", "read_s57_table"]


def _same(a, b) -> bool:
    """Exact endpoint equality — node/edge coordinates come from the
    same integer UORs, so they match bit-for-bit (numpy allclose's
    default rtol is far too loose at lon ~60)."""
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _parse_attf(data: bytes, national: bool = False) -> dict:
    """ATTF/NATF: repeated ATTL(u16 LE) + 0x1F-terminated value."""
    out = {}
    i = 0
    n = len(data)
    while i + 2 <= n:
        attl = struct.unpack_from("<H", data, i)[0]
        i += 2
        if national:
            # lexical level 2: UCS-2 LE text, unit terminator is the
            # 2-byte char 0x001F
            j = i
            while j + 1 < n and data[j:j + 2] != b"\x1f\x00":
                j += 2
            raw = data[i:j]
            i = j + 2
            val = raw.decode("utf-16-le", "replace").rstrip("\x00")
        else:
            j = data.find(bytes([UT]), i)
            if j < 0:
                j = n
            raw = data[i:j]
            i = j + 1
            val = raw.decode("latin-1", "replace")
        name, typ = ATTRIBUTES.get(attl, (f"ATTR_{attl}", "S"))
        if typ == "L":
            out[name] = val.split(",") if val != "" else []
        elif typ == "I":
            try:
                out[name] = int(val)
            except ValueError:
                out[name] = None
        elif typ == "F":
            try:
                out[name] = float(val)
            except ValueError:
                out[name] = None
        else:
            out[name] = val
    return out


def _parse_name(b: bytes) -> tuple[int, int]:
    return b[0], struct.unpack_from("<I", b, 1)[0]


class _S57File:
    def __init__(self, buf: bytes):
        self.comf = 1.0
        self.somf = 1.0
        self.nodes: dict[tuple[int, int], np.ndarray] = {}
        self.node_depths: dict[tuple[int, int], np.ndarray] = {}
        self.edges: dict[int, dict] = {}
        self.features: list[dict] = []
        self.dsid: dict = {}
        self._load(buf)

    def _load(self, buf: bytes):
        for fields in read_8211(buf):
            tags = {t: d for t, d in fields}
            if "DSPM" in tags:
                d = tags["DSPM"]
                # RCNM(1) RCID(4) HDAT VDAT SDAT CSCL(4) DUNI HUNI
                # PUNI COUN COMF(4)@16 SOMF(4)@20
                if len(d) >= 24:
                    self.comf = struct.unpack_from("<I", d, 16)[0] or 1
                    self.somf = struct.unpack_from("<I", d, 20)[0] or 1
            elif "DSID" in tags:
                d = tags["DSID"]
                # RCNM(1) RCID(4) EXPP(1) INTU(1) DSNM\x1f EDTN\x1f ...
                self.dsid["EXPP"] = d[5]
                self.dsid["INTU"] = d[6]
                parts = d[7:].split(bytes([UT]))
                names = ["DSNM", "EDTN", "UPDN", "UADT", "ISDT", "STED"]
                for nm, val in zip(names, parts):
                    self.dsid[nm] = val.decode("latin-1", "replace")
            elif "VRID" in tags:
                d = tags["VRID"]
                rcnm = d[0]
                rcid = struct.unpack_from("<I", d, 1)[0]
                if "SG2D" in tags:
                    a = np.frombuffer(tags["SG2D"], "<i4")
                    yx = a.reshape(-1, 2).astype(np.float64) / self.comf
                    pts = yx[:, ::-1].copy()  # (lon, lat)
                else:
                    pts = None
                depths = None
                if "SG3D" in tags:
                    a = np.frombuffer(tags["SG3D"], "<i4").reshape(-1, 3)
                    pts = np.column_stack([
                        a[:, 1].astype(np.float64) / self.comf,
                        a[:, 0].astype(np.float64) / self.comf])
                    depths = a[:, 2].astype(np.float64) / self.somf
                if rcnm in (110, 120):  # VI / VC node
                    if pts is not None:
                        self.nodes[(rcnm, rcid)] = pts
                        if depths is not None:
                            self.node_depths[(rcnm, rcid)] = depths
                elif rcnm == 130:  # edge
                    begin = end = None
                    if "VRPT" in tags:
                        d2 = tags["VRPT"]
                        step = 9 if len(d2) % 9 == 0 else 8
                        for off in range(0, len(d2) - step + 1, step):
                            nm = _parse_name(d2[off:off + 5])
                            topi = d2[off + 6] if step == 9 else \
                                d2[off + 5]
                            if topi == 1 and begin is None:
                                begin = nm
                            elif topi == 2:
                                end = nm
                            elif begin is None:
                                begin = nm
                            else:
                                end = nm
                    self.edges[rcid] = {"pts": pts, "begin": begin,
                                        "end": end}
            elif "FRID" in tags:
                d = tags["FRID"]
                feat = {
                    "RCID": struct.unpack_from("<I", d, 1)[0],
                    "PRIM": d[5],
                    "GRUP": d[6],
                    "OBJL": struct.unpack_from("<H", d, 7)[0],
                    "RVER": struct.unpack_from("<H", d, 9)[0],
                }
                if "FOID" in tags:
                    f = tags["FOID"]
                    agen = struct.unpack_from("<H", f, 0)[0]
                    fidn = struct.unpack_from("<I", f, 2)[0]
                    fids = struct.unpack_from("<H", f, 6)[0]
                    feat["AGEN"] = agen
                    feat["FIDN"] = fidn
                    feat["FIDS"] = fids
                    feat["LNAM"] = "%04X%08X%04X" % (agen, fidn, fids)
                attrs = {}
                if "ATTF" in tags:
                    attrs.update(_parse_attf(tags["ATTF"]))
                if "NATF" in tags:
                    attrs.update(_parse_attf(tags["NATF"],
                                             national=True))
                feat["attrs"] = attrs
                ptrs = []
                if "FSPT" in tags:
                    d2 = tags["FSPT"]
                    for off in range(0, len(d2) - 7, 8):
                        nm = _parse_name(d2[off:off + 5])
                        ornt = d2[off + 5]
                        usag = d2[off + 6]
                        ptrs.append((nm, ornt, usag))
                feat["fspt"] = ptrs
                self.features.append(feat)

    # ------------------------------------------------- geometry build
    def _edge_points(self, rcid: int, ornt: int) -> np.ndarray | None:
        e = self.edges.get(rcid)
        if e is None:
            return None
        parts = []
        if e["begin"] is not None and e["begin"] in self.nodes:
            parts.append(self.nodes[e["begin"]][:1])
        if e["pts"] is not None and len(e["pts"]):
            parts.append(e["pts"])
        if e["end"] is not None and e["end"] in self.nodes:
            parts.append(self.nodes[e["end"]][:1])
        if not parts:
            return None
        pts = np.vstack(parts)
        if ornt == 2:
            pts = pts[::-1]
        return pts

    def geometry(self, feat: dict) -> W.Geometry | None:
        prim = feat["PRIM"]
        if prim == 1:  # point(s)
            pts = []
            depths = []
            for nm, _o, _u in feat["fspt"]:
                p = self.nodes.get(nm)
                if p is None:
                    continue
                pts.append(p)
                dd = self.node_depths.get(nm)
                depths.append(dd if dd is not None
                              else np.zeros(len(p)))
            if not pts:
                return None
            allp = np.vstack(pts)
            alld = np.concatenate(depths)
            if self.node_depths and any(
                    nm in self.node_depths for nm, _o, _u in feat["fspt"]):
                g = W.Geometry(W.MULTIPOINT, parts=[
                    W.point(x, y) for x, y in allp])
                g.z = alld  # carried for WKT-Z style checks
                return g
            if len(allp) == 1:
                return W.point(allp[0, 0], allp[0, 1])
            return W.multipoint(allp)
        if prim == 2:  # line: chain consecutive edges
            parts: list[np.ndarray] = []
            for nm, ornt, _u in feat["fspt"]:
                if nm[0] != 130:
                    continue
                pts = self._edge_points(nm[1], ornt)
                if pts is None or len(pts) < 2:
                    continue
                if parts and _same(parts[-1][-1], pts[0]):
                    parts[-1] = np.vstack([parts[-1], pts[1:]])
                else:
                    parts.append(pts)
            if not parts:
                return None
            if len(parts) == 1:
                return W.linestring(parts[0])
            return W.Geometry(W.MULTILINESTRING,
                              parts=[W.linestring(p) for p in parts])
        if prim == 3:  # area: assemble rings by usage
            ext_rings = self._rings(feat, usages=(1, 3))
            int_rings = self._rings(feat, usages=(2,))
            if not ext_rings:
                return None
            polys = [W.Geometry(W.POLYGON, rings=[r]) for r in ext_rings]
            for r in int_rings:
                polys[0].rings.append(r)
            if len(polys) == 1:
                return polys[0]
            return W.multipolygon(polys)
        return None

    def _rings(self, feat: dict, usages) -> list[np.ndarray]:
        """OGRBuildPolygonFromEdges semantics: edges in STORED
        direction (ORNT not applied), rings grown by matching either
        endpoint of any remaining edge, reversing as needed."""
        segs = []
        for nm, _ornt, usag in feat["fspt"]:
            if nm[0] != 130 or usag not in usages:
                continue
            pts = self._edge_points(nm[1], 1)
            if pts is not None and len(pts) >= 2:
                segs.append(pts)
        rings = []
        unused = list(segs)
        while unused:
            cur = unused.pop(0)
            grown = True
            while grown and not _same(cur[0], cur[-1]):
                grown = False
                # grow at the ring END only (the reference's
                # OGRBuildPolygonFromEdges vertex order)
                for i, s in enumerate(unused):
                    if _same(cur[-1], s[0]):
                        cur = np.vstack([cur, s[1:]])
                    elif _same(cur[-1], s[-1]):
                        cur = np.vstack([cur, s[-2::-1]])
                    else:
                        continue
                    unused.pop(i)
                    grown = True
                    break
            if len(cur) >= 4 and _same(cur[0], cur[-1]):
                rings.append(cur)
        return rings


def read_s57_layers(path: str) -> dict[str, pa.Table]:
    f = _S57File(open(path, "rb").read())
    by_layer: dict[str, list] = {}
    for feat in f.features:
        acro = OBJECT_CLASSES.get(feat["OBJL"], f"OBJL_{feat['OBJL']}")
        by_layer.setdefault(acro, []).append(feat)

    out: dict[str, pa.Table] = {}
    # DSID pseudo-layer
    if f.dsid:
        out["DSID"] = pa.table({
            "fid": pa.array([0], pa.int64()),
            **{k: pa.array([str(v)], pa.string())
               for k, v in f.dsid.items()}})
    for acro, feats in by_layer.items():
        attr_names: list[str] = []
        for ft in feats:
            for k in ft["attrs"]:
                if k not in attr_names:
                    attr_names.append(k)
        cols: dict[str, list] = {
            "RCID": [], "PRIM": [], "GRUP": [], "OBJL": [],
            "RVER": [], "AGEN": [], "FIDN": [], "FIDS": [], "LNAM": []}
        for k in attr_names:
            cols[k] = []
        geoms, zs = [], []
        for ft in feats:
            for k in ("RCID", "PRIM", "GRUP", "OBJL", "RVER", "AGEN",
                      "FIDN", "FIDS", "LNAM"):
                cols[k].append(ft.get(k))
            for k in attr_names:
                v = ft["attrs"].get(k)
                cols[k].append(v)
            g = f.geometry(ft)
            geoms.append(g)
            zv = getattr(g, "z", None)
            zs.append(list(zv) if zv is not None else None)
        tbl: dict = {"fid": pa.array(range(len(feats)), pa.int64())}
        for k, vals in cols.items():
            if k == "LNAM" or all(isinstance(v, str) or v is None
                                  for v in vals):
                if any(isinstance(v, list) for v in vals):
                    tbl[k] = pa.array(vals, pa.list_(pa.string()))
                else:
                    tbl[k] = pa.array(vals)
            else:
                tbl[k] = pa.array(vals)
        t = with_geometry(pa.table(tbl), geoms)
        if any(z is not None for z in zs):      # z sits right after wkb
            t = t.add_column(t.schema.get_field_index("wkb") + 1, "z",
                             pa.array(zs, pa.list_(pa.float64())))
        out[acro] = t.replace_schema_metadata({b"crs": b"EPSG:4326"})
    return out


def read_s57_table(path: str, layer: str | None = None) -> pa.Table:
    layers = read_s57_layers(path)
    if layer is None:
        for k, v in layers.items():
            if k != "DSID":
                return v
        raise ValueError("S-57 file has no feature layers")
    return layers[layer]
