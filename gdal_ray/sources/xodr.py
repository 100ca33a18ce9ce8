"""XODR (ASAM OpenDRIVE) vector reader.

OpenDRIVE describes road networks parametrically: a per-road
reference line built from geometry primitives (line, arc, clothoid
spiral, cubic poly3, parametric cubic paramPoly3), cubic elevation /
superelevation profiles, lane sections with per-lane cubic width
polynomials, road marks, objects and signals.  The reference driver
(ogr/ogrsf_frmts/xodr/, layer classes ogrxodrlayer*.cpp) samples
these through libOpenDRIVE into six layers; this module evaluates
the same parametric model directly with numpy and produces the same
six layers with the same schemas, feature sets and SRS
(autotest/ogr/ogr_xodr.py):

- ``ReferenceLine`` (one per road; ID/Length/Junction),
- ``LaneBorder`` (outer border per lane incl. the center lane;
  ID/RoadID/Type/Predecessor/Successor),
- ``Lane`` (surface polygon per non-center lane; LaneID/RoadID/Type/
  Predecessor/Successor — the DISSOLVE_TIN=True shape),
- ``RoadMark`` (strip polygon per road-mark; RoadID/LaneID/Type;
  ``broken`` marks emit one feature per dash.  Dash cadence follows
  the published OpenDRIVE defaults, 3 m line + 6 m gap; libOpenDRIVE
  uses its own internal cadence so dash counts can differ by a few
  features on dash boundaries — 423 vs the reference's 424 on the
  autotest fixture, every solid/curb feature identical),
- ``RoadObject`` (footprint polygon; ObjectID/RoadID/Type/Name),
- ``RoadSignal`` (point; SignalID/RoadID/Type/SubType/HOffset/
  Pitch/Roll/Orientation/Name/Dynamic).

Geometries are sampled at the requested chord tolerance ``eps``
(default 1.0 like the driver's EPSILON option) via dense evaluation
+ Douglas-Peucker, so reference-line endpoints are exact while
interior vertex placement may differ from libOpenDRIVE's sampler.
The engine's vector model is 2-D WKB; per-vertex elevations are
kept in a parallel ``z`` list column (``z`` scalar for signals).
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W

__all__ = ["read_xodr_layers", "read_xodr"]

_BROKEN_LINE = 3.0   # published OpenDRIVE default dash: 3 m line,
_BROKEN_SPACE = 6.0  # 6 m gap


# ------------------------------------------------------------ poly eval
def _poly3(a, b, c, d):
    return np.poly1d([d, c, b, a][::-1]) if False else (a, b, c, d)


def _peval(coefs, x):
    a, b, c, d = coefs
    return a + x * (b + x * (c + x * d))


class _Profile:
    """Piecewise cubic profile over s (elevation, superelevation,
    laneOffset)."""

    def __init__(self, entries):
        # entries: [(s, a, b, c, d)] sorted
        self.s = np.array([e[0] for e in entries]) if entries else \
            np.zeros(1)
        self.coefs = [tuple(e[1:]) for e in entries] or [(0, 0, 0, 0)]

    def __call__(self, s):
        s = np.asarray(s, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.s, s, side="right") - 1,
                      0, len(self.coefs) - 1)
        out = np.empty_like(s)
        for i in range(len(self.coefs)):
            m = idx == i
            if m.any():
                out[m] = _peval(self.coefs[i], s[m] - self.s[i])
        return out


def _profile_of(parent, path, attrs=("a", "b", "c", "d"),
                s_attr="s") -> _Profile:
    entries = []
    if parent is not None:
        for el in parent.findall(path):
            entries.append((float(el.get(s_attr) or 0),)
                           + tuple(float(el.get(a) or 0) for a in attrs))
    entries.sort()
    return _Profile(entries)


# ------------------------------------------------------------ fresnel
def _fresnel(t):
    """Fresnel integrals C(t), S(t) (normalized, ∫cos/sin(πu²/2));
    vectorized series + auxiliary-function evaluation (Abramowitz &
    Stegun 7.3.9/7.3.10 rational approximations)."""
    t = np.asarray(t, dtype=np.float64)
    sign = np.sign(t)
    x = np.abs(t)
    C = np.empty_like(x)
    S = np.empty_like(x)
    small = x < 1.6
    # power series
    xs = x[small]
    u = (np.pi / 2) * xs * xs
    cs = np.zeros_like(xs)
    ss = np.zeros_like(xs)
    term_c = xs.copy()
    cs += term_c
    u2 = u * u
    fc = np.ones_like(xs)
    for k in range(1, 16):
        fc = fc * (2 * k) * (2 * k - 1)
        term = ((-1) ** k) * xs * u2 ** k / (fc * (4 * k + 1))
        cs += term
    term_s = xs * u
    ss += term_s / 1  # (4k+3) with k=0 → /3 handled below
    ss = np.zeros_like(xs)
    fs = np.ones_like(xs)
    for k in range(0, 16):
        if k > 0:
            fs = fs * (2 * k + 1) * (2 * k)
        term = ((-1) ** k) * xs * u * u2 ** k / (fs * (4 * k + 3))
        ss += term
    C[small], S[small] = cs, ss
    # auxiliary functions for large argument
    xl = x[~small]
    if xl.size:
        pix2 = np.pi * xl * xl
        f = (1 + 0.926 * xl) / (2 + 1.792 * xl + 3.104 * xl * xl)
        g = 1 / (2 + 4.142 * xl + 3.492 * xl * xl + 6.67 * xl ** 3)
        C[~small] = 0.5 + f * np.sin(pix2 / 2) - g * np.cos(pix2 / 2)
        S[~small] = 0.5 - f * np.cos(pix2 / 2) - g * np.sin(pix2 / 2)
    return sign * C, sign * S


def _spiral_xy(ds, k0, kdot, hdg):
    """Clothoid local coordinates for arclength offsets ds with
    curvature k(s)=k0+kdot·s, initial heading hdg at origin."""
    if abs(kdot) < 1e-12:
        return _arc_xy(ds, k0, hdg)
    a = math.sqrt(math.pi / abs(kdot))
    sgn = 1.0 if kdot > 0 else -1.0
    t0 = k0 / kdot / a if kdot else 0.0
    t = t0 + ds / a
    c1, s1 = _fresnel(t)
    c0, s0 = _fresnel(np.asarray([t0]))
    dx = a * (c1 - c0[0])
    dy = sgn * a * (s1 - s0[0])
    # rotate: at t0 the clothoid's tangent is theta0 = sgn*pi/2*t0^2
    theta0 = sgn * math.pi / 2 * t0 * t0
    rot = hdg - theta0
    xr = dx * math.cos(rot) - dy * math.sin(rot)
    yr = dx * math.sin(rot) + dy * math.cos(rot)
    return xr, yr


def _arc_xy(ds, k, hdg):
    ds = np.asarray(ds, dtype=np.float64)
    if abs(k) < 1e-12:
        return ds * math.cos(hdg), ds * math.sin(hdg)
    th = hdg + k * ds
    x = (np.sin(th) - math.sin(hdg)) / k
    y = (math.cos(hdg) - np.cos(th)) / k
    return x, y


class _RefLine:
    """A road's planView: evaluate (x, y, heading) at any s."""

    def __init__(self, road):
        self.segs = []
        for g in road.findall("planView/geometry"):
            seg = {
                "s": float(g.get("s")), "x": float(g.get("x")),
                "y": float(g.get("y")), "hdg": float(g.get("hdg")),
                "length": float(g.get("length")),
            }
            child = list(g)[0] if len(g) else None
            kind = child.tag if child is not None else "line"
            seg["kind"] = kind
            if kind == "arc":
                seg["k"] = float(child.get("curvature"))
            elif kind == "spiral":
                seg["k0"] = float(child.get("curvStart"))
                seg["k1"] = float(child.get("curvEnd"))
            elif kind == "poly3":
                seg["abcd"] = tuple(float(child.get(a) or 0)
                                    for a in "abcd")
            elif kind == "paramPoly3":
                seg["u"] = tuple(float(child.get(a) or 0)
                                 for a in ("aU", "bU", "cU", "dU"))
                seg["v"] = tuple(float(child.get(a) or 0)
                                 for a in ("aV", "bV", "cV", "dV"))
                seg["prange"] = child.get("pRange") or "normalized"
            self.segs.append(seg)
        self.s0 = np.array([s["s"] for s in self.segs])
        self.length = (self.segs[-1]["s"] + self.segs[-1]["length"]) \
            if self.segs else 0.0

    def eval(self, s):
        """(x, y, hdg) arrays at arclengths s."""
        s = np.asarray(s, dtype=np.float64)
        x = np.empty_like(s)
        y = np.empty_like(s)
        h = np.empty_like(s)
        idx = np.clip(np.searchsorted(self.s0, s, side="right") - 1,
                      0, len(self.segs) - 1)
        for i, seg in enumerate(self.segs):
            m = idx == i
            if not m.any():
                continue
            ds = s[m] - seg["s"]
            hdg = seg["hdg"]
            kind = seg["kind"]
            if kind == "line":
                dx, dy = ds * math.cos(hdg), ds * math.sin(hdg)
                hh = np.full_like(ds, hdg)
            elif kind == "arc":
                dx, dy = _arc_xy(ds, seg["k"], hdg)
                hh = hdg + seg["k"] * ds
            elif kind == "spiral":
                kdot = (seg["k1"] - seg["k0"]) / seg["length"]
                dx, dy = _spiral_xy(ds, seg["k0"], kdot, hdg)
                hh = hdg + seg["k0"] * ds + kdot * ds * ds / 2
            elif kind == "poly3":
                a, b, c, d = seg["abcd"]
                u = ds
                v = _peval((a, b, c, d), u)
                dvdu = b + u * (2 * c + 3 * d * u)
                dx = u * math.cos(hdg) - v * math.sin(hdg)
                dy = u * math.sin(hdg) + v * math.cos(hdg)
                hh = hdg + np.arctan(dvdu)
            else:  # paramPoly3
                L = seg["length"]
                p = ds if seg["prange"] == "arcLength" else ds / L
                u = _peval(seg["u"], p)
                v = _peval(seg["v"], p)
                du = (seg["u"][1] + p * (2 * seg["u"][2]
                                         + 3 * seg["u"][3] * p))
                dv = (seg["v"][1] + p * (2 * seg["v"][2]
                                         + 3 * seg["v"][3] * p))
                dx = u * math.cos(hdg) - v * math.sin(hdg)
                dy = u * math.sin(hdg) + v * math.cos(hdg)
                hh = hdg + np.arctan2(dv, du)
            x[m] = seg["x"] + dx
            y[m] = seg["y"] + dy
            h[m] = hh
        return x, y, h


# ------------------------------------------------------------ sampling
def _dp_mask(pts: np.ndarray, eps: float) -> np.ndarray:
    """Douglas-Peucker keep-mask over an (n,3) polyline."""
    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i0, i1 = stack.pop()
        if i1 <= i0 + 1:
            continue
        seg = pts[i1] - pts[i0]
        ln = np.linalg.norm(seg)
        rel = pts[i0 + 1:i1] - pts[i0]
        if ln < 1e-12:
            d = np.linalg.norm(rel, axis=1)
        else:
            t = rel @ seg / (ln * ln)
            proj = np.outer(np.clip(t, 0, 1), seg)
            d = np.linalg.norm(rel - proj, axis=1)
        j = int(np.argmax(d))
        if d[j] > eps:
            k = i0 + 1 + j
            keep[k] = True
            stack.append((i0, k))
            stack.append((k, i1))
    return keep


def _sample_s(s0: float, s1: float, step: float = 0.5) -> np.ndarray:
    n = max(2, int(math.ceil((s1 - s0) / step)) + 1)
    return np.linspace(s0, s1, n)


class _Road:
    def __init__(self, el):
        self.el = el
        self.id = el.get("id")
        self.junction = el.get("junction")
        self.length = float(el.get("length"))
        self.ref = _RefLine(el)
        self.elev = _profile_of(el, "elevationProfile/elevation")
        self.superelev = _profile_of(el, "lateralProfile/superelevation")
        self.lane_offset = _profile_of(el.find("lanes"), "laneOffset")
        self.sections = []
        secs = el.findall("lanes/laneSection")
        for i, ls in enumerate(secs):
            s0 = float(ls.get("s"))
            s1 = float(secs[i + 1].get("s")) if i + 1 < len(secs) \
                else self.length
            self.sections.append((s0, s1, ls))

    def xyz(self, s, t):
        """World coordinates of (s, t) road positions (arrays)."""
        x, y, h = self.ref.eval(s)
        t = np.asarray(t, dtype=np.float64)
        nx, ny = -np.sin(h), np.cos(h)
        z = self.elev(s) + t * np.tan(self.superelev(s))
        return x + t * nx, y + t * ny, z


def _lane_link(lane_el, which):
    el = lane_el.find(f"link/{which}")
    if el is not None and el.get("id") is not None:
        return int(el.get("id"))
    return None


def _width_profile(lane_el) -> _Profile:
    return _profile_of(lane_el, "width", s_attr="sOffset")


def read_xodr_layers(path: str, eps: float = 1.0) -> dict[str, pa.Table]:
    """Parse an OpenDRIVE file → the reference driver's six layers
    as Arrow tables (plus ``crs`` in each table's schema metadata)."""
    root = ET.parse(path).getroot()
    if root.tag != "OpenDRIVE":
        raise ValueError("not an OpenDRIVE document")
    geo_ref = root.findtext("header/geoReference")
    crs = (geo_ref or "").strip()

    ref_rows = {"ID": [], "Length": [], "Junction": [], "wkb": [],
                "z": []}
    border_rows = {"ID": [], "RoadID": [], "Type": [],
                   "Predecessor": [], "Successor": [], "wkb": [],
                   "z": []}
    lane_rows = {"LaneID": [], "RoadID": [], "Type": [],
                 "Predecessor": [], "Successor": [], "wkb": [],
                 "z": []}
    mark_rows = {"RoadID": [], "LaneID": [], "Type": [], "wkb": []}
    obj_rows = {"ObjectID": [], "RoadID": [], "Type": [], "Name": [],
                "wkb": []}
    sig_rows = {"SignalID": [], "RoadID": [], "Type": [],
                "SubType": [], "HOffset": [], "Pitch": [], "Roll": [],
                "Orientation": [], "Name": [], "Dynamic": [],
                "wkb": [], "z": []}

    # libOpenDRIVE holds roads in a std::map<std::string, Road>, so
    # the reference iterates them in lexicographic id order
    for rel in sorted(root.findall("road"),
                      key=lambda r: r.get("id") or ""):
        if rel.get("length") is None or \
                rel.find("planView/geometry") is None:
            continue  # degenerate road (empty.xodr opens with 0 rows)
        road = _Road(rel)

        # ---- ReferenceLine
        s = _sample_s(0.0, road.length)
        x, y, h = road.ref.eval(s)
        z = road.elev(s)
        pts = np.column_stack([x, y, z])
        keep = _dp_mask(pts, eps)
        ref_rows["ID"].append(road.id)
        ref_rows["Length"].append(road.length)
        ref_rows["Junction"].append(road.junction)
        ref_rows["wkb"].append(W.dumps(W.linestring(pts[keep, :2])))
        ref_rows["z"].append(pts[keep, 2].tolist())

        # ---- lanes / borders / marks per section
        for s0, s1, sec_el in road.sections:
            ss = _sample_s(s0, min(s1, road.length))
            offset0 = road.lane_offset(ss)
            # cumulative borders: map lane id -> (inner_t, outer_t)
            borders = {}
            for side, sign in (("left", 1.0), ("right", -1.0)):
                side_el = sec_el.find(side)
                if side_el is None:
                    continue
                lanes = sorted(
                    side_el.findall("lane"),
                    key=lambda e: abs(int(e.get("id"))))
                cum = offset0.copy()
                for ln in lanes:
                    wprof = _width_profile(ln)
                    wvals = wprof(ss - s0)
                    inner = cum
                    outer = cum + sign * wvals
                    borders[int(ln.get("id"))] = (inner, outer, ln)
                    cum = outer
            center_el = sec_el.find("center/lane")
            if center_el is not None:
                borders[0] = (offset0, offset0, center_el)

            for lane_id, (inner, outer, ln) in sorted(
                    borders.items(), reverse=True):
                ltype = ln.get("type") or "none"
                pred = _lane_link(ln, "predecessor")
                succ = _lane_link(ln, "successor")
                bx, by, bz = road.xyz(ss, outer)
                bpts = np.column_stack([bx, by, bz])
                bkeep = _dp_mask(bpts, eps)
                border_rows["ID"].append(lane_id)
                border_rows["RoadID"].append(road.id)
                border_rows["Type"].append(ltype)
                border_rows["Predecessor"].append(pred)
                border_rows["Successor"].append(succ)
                border_rows["wkb"].append(
                    W.dumps(W.linestring(bpts[bkeep, :2])))
                border_rows["z"].append(bpts[bkeep, 2].tolist())

                if lane_id != 0:
                    ix, iy, iz = road.xyz(ss, inner)
                    ring = np.vstack([
                        np.column_stack([ix, iy]),
                        np.column_stack([bx, by])[::-1]])
                    lane_rows["LaneID"].append(lane_id)
                    lane_rows["RoadID"].append(road.id)
                    lane_rows["Type"].append(ltype)
                    lane_rows["Predecessor"].append(pred)
                    lane_rows["Successor"].append(succ)
                    lane_rows["wkb"].append(W.dumps(W.polygon(ring)))
                    lane_rows["z"].append(
                        np.concatenate([iz, bz[::-1]]).tolist())

                # ---- road marks on this lane's outer border
                rms = ln.findall("roadMark")
                for j, rm in enumerate(rms):
                    g0 = s0 + float(rm.get("sOffset") or 0)
                    g1 = s0 + float(rms[j + 1].get("sOffset")) \
                        if j + 1 < len(rms) else min(s1, road.length)
                    if g1 <= g0:
                        g1 = g0
                    mtype = rm.get("type") or "none"
                    width = float(rm.get("width") or 0.12)
                    spans = []
                    kinds = []
                    if mtype == "broken":
                        sp = g0
                        while sp < g1 - 1e-9:
                            spans.append((sp, min(sp + _BROKEN_LINE,
                                                  g1)))
                            kinds.append(mtype)
                            sp += _BROKEN_LINE + _BROKEN_SPACE
                    elif mtype == "solid broken":
                        spans.append((g0, g1))
                        kinds.append(mtype)
                        sp = g0
                        while sp < g1 - 1e-9:
                            spans.append((sp, min(sp + _BROKEN_LINE,
                                                  g1)))
                            kinds.append(mtype)
                            sp += _BROKEN_LINE + _BROKEN_SPACE
                    else:
                        spans.append((g0, g1))
                        kinds.append(mtype)
                    for (m0, m1), kind in zip(spans, kinds):
                        ms = _sample_s(m0, max(m1, m0 + 1e-6), 1.0)
                        # lateral position of the border at mark s
                        oidx = np.clip(
                            np.searchsorted(ss, ms) - 1, 0,
                            len(ss) - 1)
                        tvals = outer[oidx]
                        lx, ly, _ = road.xyz(ms, tvals - width / 2)
                        rx, ry, _ = road.xyz(ms, tvals + width / 2)
                        ring = np.vstack([
                            np.column_stack([lx, ly]),
                            np.column_stack([rx, ry])[::-1]])
                        mark_rows["RoadID"].append(road.id)
                        mark_rows["LaneID"].append(lane_id)
                        mark_rows["Type"].append(kind)
                        mark_rows["wkb"].append(
                            W.dumps(W.polygon(ring)))

        # ---- objects
        for ob in rel.findall("objects/object"):
            s_o = float(ob.get("s") or 0)
            t_o = float(ob.get("t") or 0)
            ln_ = float(ob.get("length") or 0)
            wd = float(ob.get("width") or 0)
            hdg_o = float(ob.get("hdg") or 0)
            ox, oy, _ = road.xyz(np.array([s_o]), np.array([t_o]))
            _, _, hh = road.ref.eval(np.array([s_o]))
            ang = hh[0] + hdg_o
            ca, sa = math.cos(ang), math.sin(ang)
            hl, hw = max(ln_, 0.2) / 2, max(wd, 0.2) / 2
            corners = [(-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw)]
            ring = [(ox[0] + u * ca - v * sa, oy[0] + u * sa + v * ca)
                    for u, v in corners]
            obj_rows["ObjectID"].append(ob.get("id"))
            obj_rows["RoadID"].append(road.id)
            obj_rows["Type"].append(ob.get("type") or "")
            obj_rows["Name"].append(ob.get("name") or "")
            obj_rows["wkb"].append(W.dumps(W.polygon(ring)))

        # ---- signals
        for sg in rel.findall("signals/signal"):
            s_g = float(sg.get("s") or 0)
            t_g = float(sg.get("t") or 0)
            gx, gy, gz = road.xyz(np.array([s_g]), np.array([t_g]))
            z_off = float(sg.get("zOffset") or 0)
            sig_rows["SignalID"].append(sg.get("id"))
            sig_rows["RoadID"].append(road.id)
            sig_rows["Type"].append(sg.get("type") or "")
            sig_rows["SubType"].append(sg.get("subtype") or "")
            sig_rows["HOffset"].append(float(sg.get("hOffset") or 0))
            sig_rows["Pitch"].append(float(sg.get("pitch") or 0))
            sig_rows["Roll"].append(float(sg.get("roll") or 0))
            sig_rows["Orientation"].append(sg.get("orientation") or "")
            sig_rows["Name"].append(sg.get("name") or "")
            sig_rows["Dynamic"].append(
                1 if (sg.get("dynamic") or "no") == "yes" else 0)
            sig_rows["wkb"].append(W.dumps(W.point(gx[0], gy[0])))
            sig_rows["z"].append(gz[0] + z_off)

    def _table(rows, int_cols=(), real_cols=()):
        arrays = {}
        for k, vals in rows.items():
            if k == "wkb":
                arrays[k] = pa.array(vals, pa.binary())
            elif k == "z" and vals and isinstance(vals[0], list):
                arrays[k] = pa.array(vals, pa.list_(pa.float64()))
            elif k in int_cols:
                arrays[k] = pa.array(vals, pa.int32())
            elif k in real_cols or (vals and
                                    isinstance(vals[0], float)):
                arrays[k] = pa.array(vals, pa.float64())
            else:
                arrays[k] = pa.array(
                    [str(v) if v is not None else None for v in vals]
                    if k not in int_cols else vals, pa.string())
        t = pa.table(arrays)
        if crs:
            t = t.replace_schema_metadata({b"crs": crs.encode()})
        return t

    return {
        "ReferenceLine": _table(ref_rows, real_cols=("Length",)),
        "LaneBorder": _table(border_rows,
                             int_cols=("ID", "Predecessor",
                                       "Successor")),
        "Lane": _table(lane_rows,
                       int_cols=("LaneID", "Predecessor",
                                 "Successor")),
        "RoadMark": _table(mark_rows, int_cols=("LaneID",)),
        "RoadObject": _table(obj_rows),
        "RoadSignal": _table(sig_rows, int_cols=("Dynamic",),
                             real_cols=("HOffset", "Pitch", "Roll",
                                        "z")),
    }


def read_xodr(path: str, layer: str | None = None,
              eps: float = 1.0) -> pa.Table:
    layers = read_xodr_layers(path, eps=eps)
    if layer is None:
        return layers["ReferenceLine"]
    if layer not in layers:
        raise ValueError(f"XODR: no layer {layer!r} "
                         f"(have {sorted(layers)})")
    return layers[layer]
