"""WKT and GeoJSON geometry codecs.

Reference semantics: ogr/ogrgeometryfactory.cpp (createFromWkt /
exportToWkt, 6,988 LoC) and the GeoJSON geometry mapping used by
ogr/ogrsf_frmts/geojson. Round-trips through the same Geometry dataclass
as the WKB codec (core/wkb.py) — one in-memory model, three wire forms,
exactly OGR's arrangement.

WKT numbers are emitted with repr-shortest formatting (no trailing
zeros), 2-D only, uppercase tag names — the OGR default dialect.
"""

from __future__ import annotations

import re

import numpy as np

from .wkb import (GEOMETRYCOLLECTION, LINESTRING, MULTILINESTRING,
                  MULTIPOINT, MULTIPOLYGON, POINT, POLYGON, Geometry,
                  collection, linestring, multipolygon, point, polygon)

_TAGS = {POINT: "POINT", LINESTRING: "LINESTRING", POLYGON: "POLYGON",
         MULTIPOINT: "MULTIPOINT", MULTILINESTRING: "MULTILINESTRING",
         MULTIPOLYGON: "MULTIPOLYGON",
         GEOMETRYCOLLECTION: "GEOMETRYCOLLECTION"}


def _fmt(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _coords_wkt(arr) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in np.asarray(arr))


def dumps_wkt(g: Geometry) -> str:
    t = g.geom_type
    if t == POINT:
        return f"POINT ({_coords_wkt(g.coords)})"
    if t == LINESTRING:
        return f"LINESTRING ({_coords_wkt(g.coords)})"
    if t == POLYGON:
        rings = ", ".join(f"({_coords_wkt(r)})" for r in g.rings)
        return f"POLYGON ({rings})"
    if t == MULTIPOINT:
        pts = ", ".join(f"({_coords_wkt(p.coords)})" for p in g.parts)
        return f"MULTIPOINT ({pts})"
    if t == MULTILINESTRING:
        ls = ", ".join(f"({_coords_wkt(p.coords)})" for p in g.parts)
        return f"MULTILINESTRING ({ls})"
    if t == MULTIPOLYGON:
        ps = ", ".join(
            "(" + ", ".join(f"({_coords_wkt(r)})" for r in p.rings) + ")"
            for p in g.parts)
        return f"MULTIPOLYGON ({ps})"
    if t == GEOMETRYCOLLECTION:
        if not g.parts:
            return "GEOMETRYCOLLECTION EMPTY"
        return ("GEOMETRYCOLLECTION ("
                + ", ".join(dumps_wkt(p) for p in g.parts) + ")")
    raise ValueError(f"unsupported geometry type {t}")


class _Parser:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.s) and self.s[self.i] in " \t\n\r":
            self.i += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.i >= len(self.s) or self.s[self.i] != ch:
            raise ValueError(
                f"WKT parse error at {self.i}: expected {ch!r} "
                f"in {self.s[max(0, self.i - 10):self.i + 10]!r}")
        self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.s[self.i] if self.i < len(self.s) else ""

    def word(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z]+", self.s[self.i:])
        if not m:
            raise ValueError(f"WKT parse error at {self.i}: expected tag")
        self.i += m.end()
        return m.group(0).upper()

    def number(self) -> float:
        self.skip_ws()
        m = re.match(r"[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?",
                     self.s[self.i:])
        if not m:
            raise ValueError(f"WKT parse error at {self.i}: expected number")
        self.i += m.end()
        return float(m.group(0))

    def coords_list(self) -> np.ndarray:
        self.expect("(")
        pts = []
        while True:
            x = self.number()
            y = self.number()
            pts.append((x, y))
            if self.peek() == ",":
                self.i += 1
                continue
            break
        self.expect(")")
        return np.array(pts, np.float64)

    def ring_list(self) -> list:
        self.expect("(")
        rings = [self.coords_list()]
        while self.peek() == ",":
            self.i += 1
            rings.append(self.coords_list())
        self.expect(")")
        return rings


def loads_wkt(s: str) -> Geometry:
    p = _Parser(s)
    g = _parse_geom(p)
    p.skip_ws()
    if p.i != len(p.s):
        raise ValueError(f"trailing characters after WKT at {p.i}")
    return g


def _parse_geom(p: _Parser) -> Geometry:
    tag = p.word()
    if p.peek().upper() == "E":          # EMPTY
        w = p.word()
        if w != "EMPTY":
            raise ValueError(f"unexpected token {w}")
        if tag == "GEOMETRYCOLLECTION":
            return collection([])
        raise ValueError(f"{tag} EMPTY not supported")
    if tag == "POINT":
        c = p.coords_list()
        return point(c[0, 0], c[0, 1])
    if tag == "LINESTRING":
        return linestring(p.coords_list())
    if tag == "POLYGON":
        rings = p.ring_list()
        return polygon(rings[0], holes=rings[1:])
    if tag == "MULTIPOINT":
        p.expect("(")
        parts = []
        while True:
            if p.peek() == "(":
                c = p.coords_list()
                parts.append(point(c[0, 0], c[0, 1]))
            else:
                parts.append(point(p.number(), p.number()))
            if p.peek() == ",":
                p.i += 1
                continue
            break
        p.expect(")")
        return Geometry(MULTIPOINT, parts=parts)
    if tag == "MULTILINESTRING":
        rings = _Parser.ring_list(p)
        return Geometry(MULTILINESTRING, parts=[linestring(r) for r in rings])
    if tag == "MULTIPOLYGON":
        p.expect("(")
        parts = [polygon(r[0], holes=r[1:]) for r in iter_polys(p)]
        p.expect(")")
        return multipolygon(parts)
    if tag == "GEOMETRYCOLLECTION":
        p.expect("(")
        parts = [_parse_geom(p)]
        while p.peek() == ",":
            p.i += 1
            parts.append(_parse_geom(p))
        p.expect(")")
        return collection(parts)
    raise ValueError(f"unknown WKT tag {tag}")


def iter_polys(p: _Parser):
    while True:
        yield p.ring_list()
        if p.peek() == ",":
            p.i += 1
            continue
        break


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------

def to_geojson(g: Geometry) -> dict:
    t = g.geom_type
    if t == POINT:
        return {"type": "Point", "coordinates": g.coords[0].tolist()}
    if t == LINESTRING:
        return {"type": "LineString", "coordinates": g.coords.tolist()}
    if t == POLYGON:
        return {"type": "Polygon",
                "coordinates": [r.tolist() for r in g.rings]}
    if t == MULTIPOINT:
        return {"type": "MultiPoint",
                "coordinates": [p.coords[0].tolist() for p in g.parts]}
    if t == MULTILINESTRING:
        return {"type": "MultiLineString",
                "coordinates": [p.coords.tolist() for p in g.parts]}
    if t == MULTIPOLYGON:
        return {"type": "MultiPolygon",
                "coordinates": [[r.tolist() for r in p.rings]
                                for p in g.parts]}
    if t == GEOMETRYCOLLECTION:
        return {"type": "GeometryCollection",
                "geometries": [to_geojson(p) for p in g.parts]}
    raise ValueError(f"unsupported geometry type {t}")


def _xy(positions) -> np.ndarray:
    """GeoJSON positions → an (n, 2) float64 array. A Z or M ordinate is
    dropped (the geometry model is 2-D, as in ``wkb._read``); a position
    without x and y, or a nested one, raises ValueError."""
    a = np.asarray(positions, dtype=np.float64)
    if a.size == 0:
        return np.empty((0, 2))
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("a GeoJSON position needs an x and a y")
    return a[:, :2]


def _polygon(rings) -> Geometry:
    return polygon(_xy(rings[0]), holes=[_xy(h) for h in rings[1:]])


def from_geojson(obj: dict) -> Geometry:
    t = obj["type"]
    c = obj.get("coordinates")
    if t == "Point":
        return point(*_xy([c])[0])
    if t == "LineString":
        return linestring(_xy(c))
    if t == "Polygon":
        return _polygon(c)
    if t == "MultiPoint":
        return Geometry(MULTIPOINT, parts=[point(x, y) for x, y in _xy(c)])
    if t == "MultiLineString":
        return Geometry(MULTILINESTRING,
                        parts=[linestring(_xy(ls)) for ls in c])
    if t == "MultiPolygon":
        return multipolygon([_polygon(pp) for pp in c])
    if t == "GeometryCollection":
        return collection([from_geojson(o) for o in obj["geometries"]])
    raise ValueError(f"unknown GeoJSON type {t}")
