"""OpenStreetMap reader — .osm.pbf (protobuf) and .osm (XML), with
the reference's five-layer model.

Reference driver: ogr/ogrsf_frmts/osm/ (+ data/osmconf.ini defaults,
replicated here):
- ``points``: nodes carrying at least one tag beyond the
  "unsignificant" set (created_by, source, …); attribute columns
  name/barrier/highway/ref/address/is_in/place/man_made, remaining
  tags as an HSTORE-style ``other_tags`` string.
- ``lines``: tagged ways that are not area-closed; computed
  ``z_order`` (osm2pgsql formula: highway rank + bridge/tunnel/
  railway/layer terms — osmconf.ini z_order_sql).
- ``multipolygons``: type=multipolygon/boundary relations (member
  ways stitched into outer/inner rings; ``osm_id``) plus closed
  standalone ways whose tag is in closed_ways_are_polygons
  (``osm_way_id``).
- ``multilinestrings``: type=route relations.
- ``other_relations``: remaining typed relations as
  GEOMETRYCOLLECTION.

PBF layout from the public fileformat spec: [int32-BE len |
BlobHeader | Blob(zlib)] framing, PrimitiveBlock string table +
dense-node delta coding (granularity 100, nano-degree offsets),
packed sint64 deltas for way refs / relation memids.

Scale note: this module holds one file's node index in memory (the
reference does the same with a temporary node DB). At planet scale
run per-blob node extraction through ``map_batches`` and replace the
dict lookup with a hash join of ways against the nodes table on
ref id — the layer assembly itself is embarrassingly parallel per
way/relation once node coordinates are joined.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .mvt import _fields, _packed_varints, _zigzag
from .vector import with_geometry

__all__ = ["read_osm_table", "read_osm_layers"]

_UNSIGNIFICANT = {"created_by", "converted_by", "source", "time",
                  "ele", "attribution"}
_IGNORE = {"created_by", "converted_by", "source", "time", "ele",
           "note", "todo", "fixme", "FIXME"}
_POINT_ATTRS = ["name", "barrier", "highway", "ref", "address",
                "is_in", "place", "man_made"]
_LINE_ATTRS = ["name", "highway", "waterway", "aerialway", "barrier",
               "man_made", "railway"]
_MPOLY_ATTRS = ["name", "type", "aeroway", "amenity", "admin_level",
                "barrier", "boundary", "building", "craft",
                "geological", "historic", "land_area", "landuse",
                "leisure", "man_made", "military", "natural", "office",
                "place", "shop", "sport", "tourism"]
_MLINE_ATTRS = ["name", "type"]
_OTHER_ATTRS = ["name", "type"]
_CLOSED_ARE_POLYGONS = {"aeroway", "amenity", "boundary", "building",
                        "craft", "geological", "historic", "landuse",
                        "leisure", "military", "natural", "office",
                        "place", "shop", "sport", "tourism"}
_Z_HIGHWAY = {"minor": 3, "road": 3, "unclassified": 3,
              "residential": 3, "tertiary_link": 4, "tertiary": 4,
              "secondary_link": 6, "secondary": 6, "primary_link": 7,
              "primary": 7, "trunk_link": 8, "trunk": 8,
              "motorway_link": 9, "motorway": 9}


def _z_order(tags: dict) -> int:
    z = _Z_HIGHWAY.get(tags.get("highway", ""), 0)
    if tags.get("bridge") in ("yes", "true", "1"):
        z += 10
    if tags.get("tunnel") in ("yes", "true", "1"):
        z -= 10
    if "railway" in tags:
        z += 5
    layer = tags.get("layer")
    if layer is not None:
        try:
            z += 10 * int(layer)
        except ValueError:
            pass
    return z


# -------------------------------------------------------- PBF parsing
def _parse_pbf(buf: bytes):
    nodes: dict[int, tuple[float, float]] = {}
    node_tags: dict[int, dict] = {}
    ways: dict[int, tuple[list[int], dict]] = {}
    rels: list[tuple[int, dict, list[tuple[int, int, str]]]] = []
    off = 0
    n = len(buf)
    while off + 4 <= n:
        (hlen,) = struct.unpack_from(">i", buf, off)
        off += 4
        header = memoryview(buf)[off:off + hlen]
        off += hlen
        btype = ""
        dsize = 0
        for f, w, v in _fields(header):
            if f == 1:
                btype = bytes(v).decode()
            elif f == 3:
                dsize = v
        blob = memoryview(buf)[off:off + dsize]
        off += dsize
        raw = None
        for f, w, v in _fields(blob):
            if f == 1:
                raw = bytes(v)
            elif f == 3:
                raw = zlib.decompress(bytes(v))
        if btype != "OSMData" or raw is None:
            continue
        _parse_primitive_block(raw, nodes, node_tags, ways, rels)
    return nodes, node_tags, ways, rels


def _parse_primitive_block(raw: bytes, nodes, node_tags, ways, rels):
    mv = memoryview(raw)
    strings: list[str] = []
    groups = []
    gran = 100
    lat_off = lon_off = 0
    for f, w, v in _fields(mv):
        if f == 1:
            for sf, sw, sv in _fields(v):
                if sf == 1:
                    strings.append(bytes(sv).decode("utf-8", "replace"))
        elif f == 2:
            groups.append(v)
        elif f == 17:
            gran = v
        elif f == 19:
            lat_off = v
        elif f == 20:
            lon_off = v

    def coord(raw_lat, raw_lon):
        return (1e-9 * (lon_off + gran * raw_lon),
                1e-9 * (lat_off + gran * raw_lat))

    for g in groups:
        for f, w, v in _fields(g):
            if f == 1:  # plain Node
                nid = 0
                keys = vals = []
                la = lo = 0
                for nf, nw, nv in _fields(v):
                    if nf == 1:
                        nid = _zigzag(nv)
                    elif nf == 2:
                        keys = _packed_varints(nv)
                    elif nf == 3:
                        vals = _packed_varints(nv)
                    elif nf == 8:
                        la = _zigzag(nv)
                    elif nf == 9:
                        lo = _zigzag(nv)
                nodes[nid] = coord(la, lo)
                if keys:
                    node_tags[nid] = {strings[k]: strings[val]
                                      for k, val in zip(keys, vals)}
            elif f == 2:  # DenseNodes
                ids = lats = lons = kv = []
                for nf, nw, nv in _fields(v):
                    if nf == 1:
                        ids = _packed_varints(nv)
                    elif nf == 8:
                        lats = _packed_varints(nv)
                    elif nf == 9:
                        lons = _packed_varints(nv)
                    elif nf == 10:
                        kv = _packed_varints(nv)
                cid = cla = clo = 0
                ki = 0
                for i in range(len(ids)):
                    cid += _zigzag(ids[i])
                    cla += _zigzag(lats[i])
                    clo += _zigzag(lons[i])
                    nodes[cid] = coord(cla, clo)
                    tags = {}
                    while ki < len(kv) and kv[ki] != 0:
                        tags[strings[kv[ki]]] = strings[kv[ki + 1]]
                        ki += 2
                    ki += 1
                    if tags:
                        node_tags[cid] = tags
            elif f == 3:  # Way
                wid = 0
                keys = vals = refs = []
                for nf, nw, nv in _fields(v):
                    if nf == 1:
                        wid = nv
                    elif nf == 2:
                        keys = _packed_varints(nv)
                    elif nf == 3:
                        vals = _packed_varints(nv)
                    elif nf == 8:
                        refs = _packed_varints(nv)
                acc = 0
                ref_ids = []
                for r in refs:
                    acc += _zigzag(r)
                    ref_ids.append(acc)
                ways[wid] = (ref_ids, {strings[k]: strings[val]
                                       for k, val in zip(keys, vals)})
            elif f == 4:  # Relation
                rid = 0
                keys = vals = roles = mids = mtypes = []
                for nf, nw, nv in _fields(v):
                    if nf == 1:
                        rid = nv
                    elif nf == 2:
                        keys = _packed_varints(nv)
                    elif nf == 3:
                        vals = _packed_varints(nv)
                    elif nf == 8:
                        roles = _packed_varints(nv)
                    elif nf == 9:
                        mids = _packed_varints(nv)
                    elif nf == 10:
                        mtypes = _packed_varints(nv)
                acc = 0
                members = []
                for i, m in enumerate(mids):
                    acc += _zigzag(m)
                    members.append((acc, mtypes[i],
                                    strings[roles[i]] if i < len(roles)
                                    else ""))
                rels.append((rid, {strings[k]: strings[val]
                                   for k, val in zip(keys, vals)},
                             members))


# -------------------------------------------------------- XML parsing
def _parse_xml(path: str):
    import xml.etree.ElementTree as ET
    nodes: dict[int, tuple[float, float]] = {}
    node_tags: dict[int, dict] = {}
    ways: dict[int, tuple[list[int], dict]] = {}
    rels: list[tuple[int, dict, list[tuple[int, int, str]]]] = []
    root = ET.parse(path).getroot()
    for el in root:
        if el.tag == "node":
            nid = int(el.get("id"))
            nodes[nid] = (float(el.get("lon")), float(el.get("lat")))
            tags = {t.get("k"): t.get("v") for t in el if t.tag == "tag"}
            if tags:
                node_tags[nid] = tags
        elif el.tag == "way":
            wid = int(el.get("id"))
            refs = [int(nd.get("ref")) for nd in el if nd.tag == "nd"]
            tags = {t.get("k"): t.get("v") for t in el if t.tag == "tag"}
            ways[wid] = (refs, tags)
        elif el.tag == "relation":
            rid = int(el.get("id"))
            members = []
            for m in el:
                if m.tag != "member":
                    continue
                mtype = {"node": 0, "way": 1, "relation": 2}.get(
                    m.get("type"), 0)
                members.append((int(m.get("ref")), mtype,
                                m.get("role", "")))
            tags = {t.get("k"): t.get("v") for t in el if t.tag == "tag"}
            rels.append((rid, tags, members))
    return nodes, node_tags, ways, rels


# ------------------------------------------------------ layer builder
def _other_tags(tags: dict, attrs: list[str],
                extra_ignore: tuple = ()) -> str | None:
    rest = {k: v for k, v in tags.items()
            if k not in attrs and k not in _IGNORE
            and k not in extra_ignore
            and not k.startswith("openGeoDB:")}
    if not rest:
        return None
    return ",".join(f'"{k}"=>"{v}"' for k, v in rest.items())


def _stitch_rings(parts: list[list]) -> list[np.ndarray]:
    """Chain way segments into closed rings by endpoint matching."""
    segs = [list(p) for p in parts if len(p) >= 2]
    rings = []
    while segs:
        ring = segs.pop(0)
        changed = True
        while changed and ring[0] != ring[-1]:
            changed = False
            for i, s in enumerate(segs):
                if s[0] == ring[-1]:
                    ring += s[1:]
                elif s[-1] == ring[-1]:
                    ring += s[-2::-1]
                elif s[-1] == ring[0]:
                    ring = s + ring[1:]
                elif s[0] == ring[0]:
                    ring = s[::-1] + ring[1:]
                else:
                    continue
                segs.pop(i)
                changed = True
                break
        if len(ring) >= 4 and ring[0] == ring[-1]:
            rings.append(np.asarray(ring, np.float64))
    return rings


def read_osm_layers(path: str) -> dict[str, pa.Table]:
    if path.endswith((".pbf",)):
        nodes, node_tags, ways, rels = _parse_pbf(open(path, "rb").read())
    else:
        nodes, node_tags, ways, rels = _parse_xml(path)

    def line_of(refs):
        pts = [nodes[r] for r in refs if r in nodes]
        return pts

    # ways consumed by multipolygon/route relations keep their line
    # role unless untagged (the reference only emits tagged ways)
    out: dict[str, pa.Table] = {}

    # --- points
    rows = []
    for nid, tags in node_tags.items():
        if all(k in _UNSIGNIFICANT for k in tags):
            continue
        if nid not in nodes:
            continue
        row = {"osm_id": str(nid)}
        for a in _POINT_ATTRS:
            row[a] = tags.get(a)
        row["other_tags"] = _other_tags(tags, _POINT_ATTRS)
        rows.append((row, W.point(*nodes[nid])))
    out["points"] = _to_table(rows, ["osm_id"] + _POINT_ATTRS +
                              ["other_tags"])

    # ways consumed as members of multipolygon relations are not
    # emitted standalone (reference: ogrosmdatasource.cpp "interesting
    # polygons of multipolygons" bookkeeping)
    mp_member_ways = set()
    for _rid, tags, members in rels:
        if tags.get("type") in ("multipolygon", "boundary"):
            for mid, mtype, _role in members:
                if mtype == 1:
                    mp_member_ways.add(mid)

    # --- closed area-ish ways are polygons, never lines; the ones
    # not consumed by a relation are standalone multipolygon features
    closed_area_ways = set()
    for wid, (refs, tags) in ways.items():
        if not tags or all(k in _UNSIGNIFICANT for k in tags):
            continue
        if refs and refs[0] == refs[-1]:
            if any(k in _CLOSED_ARE_POLYGONS for k in tags) or \
                    tags.get("area") == "yes":
                closed_area_ways.add(wid)
    poly_way_ids = closed_area_ways - mp_member_ways

    rows = []
    for wid, (refs, tags) in ways.items():
        if not tags or all(k in _UNSIGNIFICANT for k in tags):
            continue
        if wid in closed_area_ways:
            continue
        pts = line_of(refs)
        if len(pts) < 2:
            continue
        row = {"osm_id": str(wid)}
        for a in _LINE_ATTRS:
            row[a] = tags.get(a)
        row["z_order"] = _z_order(tags)
        row["other_tags"] = _other_tags(tags, _LINE_ATTRS)
        rows.append((row, W.linestring(pts)))
    out["lines"] = _to_table(rows, ["osm_id"] + _LINE_ATTRS +
                             ["z_order", "other_tags"],
                             {"z_order": pa.int32()})

    # --- multipolygons: relations + standalone closed ways
    rows = []
    for rid, tags, members in rels:
        if tags.get("type") not in ("multipolygon", "boundary"):
            continue
        # a missing member way skips the whole relation (the
        # reference's behavior — test.osm relation 2)
        if any(mtype == 1 and mid not in ways
               for mid, mtype, _role in members):
            continue
        outers, inners = [], []
        outer_tags: dict = {}
        for mid, mtype, role in members:
            if mtype != 1:
                continue
            pts = line_of(ways[mid][0])
            if role == "inner":
                inners.append(pts)
            else:
                outers.append(pts)
                outer_tags.update(ways[mid][1])
        # old-style multipolygon (only a type tag): inherit the outer
        # ways' tags (test.osm relation 5)
        if not any(k != "type" and k not in _IGNORE and k != "area"
                   for k in tags):
            tags = {**outer_tags, **tags}
        oring = _stitch_rings(outers)
        iring = _stitch_rings(inners)
        if not oring:
            continue
        polys = [W.Geometry(W.POLYGON, rings=[r]) for r in oring]
        for r in iring:  # attach each inner to the containing outer
            for p in polys:
                o = p.rings[0]
                if (r[:, 0].min() >= o[:, 0].min()
                        and r[:, 0].max() <= o[:, 0].max()
                        and r[:, 1].min() >= o[:, 1].min()
                        and r[:, 1].max() <= o[:, 1].max()):
                    p.rings.append(r)
                    break
        g = W.multipolygon(polys)
        row = {"osm_id": str(rid), "osm_way_id": None}
        for a in _MPOLY_ATTRS:
            row[a] = tags.get(a)
        row["other_tags"] = _other_tags(tags, _MPOLY_ATTRS, ("area",))
        rows.append((row, g))
    for wid in sorted(poly_way_ids):
        refs, tags = ways[wid]
        pts = line_of(refs)
        if len(pts) < 4:
            continue
        row = {"osm_id": None, "osm_way_id": str(wid)}
        for a in _MPOLY_ATTRS:
            row[a] = tags.get(a)
        row["other_tags"] = _other_tags(tags, _MPOLY_ATTRS, ("area",))
        rows.append((row, W.multipolygon([W.polygon(pts)])))
    out["multipolygons"] = _to_table(
        rows, ["osm_id", "osm_way_id"] + _MPOLY_ATTRS + ["other_tags"])

    # --- multilinestrings (type=route)
    rows = []
    for rid, tags, members in rels:
        if tags.get("type") != "route":
            continue
        parts = []
        for mid, mtype, role in members:
            if mtype == 1 and mid in ways:
                pts = line_of(ways[mid][0])
                if len(pts) >= 2:
                    parts.append(W.linestring(pts))
        if not parts:
            continue
        row = {"osm_id": str(rid)}
        for a in _MLINE_ATTRS:
            row[a] = tags.get(a)
        row["other_tags"] = _other_tags(tags, _MLINE_ATTRS, ("area",))
        rows.append((row, W.Geometry(W.MULTILINESTRING, parts=parts)))
    out["multilinestrings"] = _to_table(rows, ["osm_id"] + _MLINE_ATTRS
                                        + ["other_tags"])

    # --- other_relations
    rows = []
    for rid, tags, members in rels:
        if not tags or tags.get("type") in ("multipolygon", "boundary",
                                            "route") or "type" not in tags:
            continue
        parts = []
        for mid, mtype, role in members:
            if mtype == 0 and mid in nodes:
                parts.append(W.point(*nodes[mid]))
            elif mtype == 1 and mid in ways:
                pts = line_of(ways[mid][0])
                if len(pts) >= 2:
                    parts.append(W.linestring(pts))
        if not parts:
            continue
        row = {"osm_id": str(rid)}
        for a in _OTHER_ATTRS:
            row[a] = tags.get(a)
        row["other_tags"] = _other_tags(tags, _OTHER_ATTRS, ("area",))
        rows.append((row, W.collection(parts)))
    out["other_relations"] = _to_table(rows, ["osm_id"] + _OTHER_ATTRS
                                       + ["other_tags"])
    return out


def _to_table(rows, names, types=None) -> pa.Table:
    types = types or {}
    cols = {n: [r.get(n) for r, _g in rows] for n in names}
    t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                  **{n: pa.array(cols[n], types.get(n, pa.string()))
                     for n in names}})
    return with_geometry(t, [g for _r, g in rows]).replace_schema_metadata({b"crs": b"EPSG:4326"})


def read_osm_table(path: str, layer: str = "points") -> pa.Table:
    layers = read_osm_layers(path)
    if layer not in layers:
        raise ValueError(f"no OSM layer {layer!r} "
                         f"(have {sorted(layers)})")
    return layers[layer]
