"""PDF vector layers — OGR-PDF analog, reader and writer.

Reader re-creates the reference's vector PDF model
(frmts/pdf/pdfreadvectors.cpp): walks page content streams with a
graphic-state stack (q/Q/cm), path construction operators
(m/l/c/v/y/re/h) with cubic Beziers sampled at the reference's 10
steps, paint operators deciding geometry kind (f/F/B/b/f* → polygon
rings organized with hole assignment, S/s → line strings, bare moveto
→ point), GDAL point-symbol recognition (the 4-arc bezier circle and
the square written for point features), marked-content layer routing
(/OC BDC against the OCG property map for layer-style PDFs) and the
structure-tree path (StructTreeRoot → per-layer K arrays with /MCID
references and /A /UserProperties attribute dictionaries).

Writer emits the same structure the reference writer produces
(pdfcreatecopy.cpp): one OCG per layer, content stream with
``/feature <</MCID n>> BDC … EMC`` blocks, and a structure tree
carrying each feature's attributes as UserProperties P arrays — so
round-trips carry both geometry and typed attributes.
"""
from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa

from ..codecs.pdf import PdfFile, Stream, decode_stream, read_pdf
from ..core import wkb as W
from . import pick_layer
from .vector import ENVELOPE, with_geometry

__all__ = ["read_pdf_layers", "read_pdf_vector_table",
           "write_pdf_vector"]

BEZIER_STEPS = 10
_NEW = float("-1e300")       # NEW_SUBPATH sentinel
_CLOSE = float("-1e301")     # CLOSE_SUBPATH
_FILL = float("-1e302")      # FILL_SUBPATH
_EPS = 1e-5


def _bezier(coords, p0, p1, p2, p3):
    x0, y0 = p0
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    for i in range(1, BEZIER_STEPS):
        t = i / BEZIER_STEPS
        mt = 1 - t
        a = mt * mt * mt
        b = 3 * t * mt
        c = t * t * t
        coords.append(a * x0 + b * (mt * x1 + t * x2) + c * x3)
        coords.append(a * y0 + b * (mt * y1 + t * y2) + c * y3)
    coords.append(x3)
    coords.append(y3)


class _GS:
    __slots__ = ("cm",)

    def __init__(self, cm=(1, 0, 0, 1, 0, 0)):
        self.cm = cm

    def apply(self, x, y):
        a, b, c, d, e, f = self.cm
        return a * x + c * y + e, b * x + d * y + f

    def mul(self, m):
        a1, b1, c1, d1, e1, f1 = m
        a2, b2, c2, d2, e2, f2 = self.cm
        self.cm = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                   c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
                   e1 * a2 + f1 * c2 + e2, e1 * b2 + f1 * d2 + f2)


def _circle_center(pts):
    """GDAL 4-arc bezier circle recognition (PDFGetCircleCenter)."""
    if len(pts) != 1 + 4 * BEZIER_STEPS:
        return None
    B = BEZIER_STEPS
    if pts[0 * B][1] == pts[2 * B][1] and \
            pts[1 * B][0] == pts[3 * B][0] and \
            abs((pts[0 * B][0] + pts[2 * B][0]) / 2 - pts[1 * B][0]) \
            < _EPS and \
            abs((pts[1 * B][1] + pts[3 * B][1]) / 2 - pts[0 * B][1]) \
            < _EPS:
        return ((pts[0 * B][0] + pts[2 * B][0]) / 2,
                (pts[1 * B][1] + pts[3 * B][1]) / 2)
    return None


def _square_center(pts):
    if len(pts) not in (4, 5):
        return None
    if abs(pts[0][0] - pts[3][0]) < _EPS and \
            abs(pts[1][0] - pts[2][0]) < _EPS and \
            abs(pts[0][1] - pts[1][1]) < _EPS and \
            abs(pts[2][1] - pts[3][1]) < _EPS and \
            abs(abs(pts[0][0] - pts[1][0]) -
                abs(pts[0][1] - pts[3][1])) < _EPS:
        return ((pts[0][0] + pts[1][0]) / 2,
                (pts[0][1] + pts[3][1]) / 2)
    return None


class _PageSpace:
    """PDFCoordsToSRSCoords: page units -> georeferenced (or raster)
    coordinates."""

    def __init__(self, pw, ph, nx, ny, gt):
        self.pw = pw
        self.ph = ph
        self.nx = nx
        self.ny = ny
        self.gt = gt

    def to_srs(self, x, y):
        px = x / self.pw * self.nx
        if self.gt is not None:
            py = (1 - y / self.ph) * self.ny
            gt = self.gt
        else:
            py = y / self.ph * self.ny
            gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        X = gt[0] + px * gt[1] + py * gt[2]
        Y = gt[3] + px * gt[4] + py * gt[5]
        if abs(X - round(X)) < 1e-8:
            X = round(X)
        if abs(Y - round(Y)) < 1e-8:
            Y = round(Y)
        return X, Y


def _build_geometry(coords, has_fill, multipart, space):
    """BuildGeometry analog over the sentinel-tagged coordinate list."""
    if not coords:
        return None
    if len(coords) == 2:
        return W.point(*space.to_srs(coords[0], coords[1]))
    if not has_fill:
        parts = []
        cur = []
        for i in range(0, len(coords), 2):
            x, y = coords[i], coords[i + 1]
            if x == _NEW:
                if cur:
                    parts.append(cur)
                cur = []
            elif x == _CLOSE:
                if len(cur) >= 2 and cur[0] != cur[-1]:
                    cur.append(cur[0])
            elif x == _FILL:
                pass
            else:
                cur.append((x, y))
        if cur:
            parts.append(cur)
        if len(parts) == 1:
            pts = parts[0]
            c = _circle_center(pts) or _square_center(pts)
            if c is not None:
                return W.point(*space.to_srs(*c))
            return W.linestring(
                [space.to_srs(x, y) for x, y in pts])
        if not parts:
            return None
        # GDAL cross/diagcross point recognition
        if len(parts) == 2 and len(parts[0]) == 2 and len(parts[1]) == 2:
            (a1, a2), (b1, b2) = parts
            if a1[1] == a2[1] and b1[0] == b2[0] and \
                    abs(abs(a1[0] - a2[0]) - abs(b1[1] - b2[1])) < _EPS:
                return W.point(*space.to_srs(b1[0], a1[1]))
        return W.Geometry(W.MULTILINESTRING, parts=[
            W.linestring([space.to_srs(x, y) for x, y in p])
            for p in parts if len(p) >= 2])
    # filled: rings → polygons with hole assignment
    rings = []
    cur = []
    first_ring_pts = None
    for i in range(0, len(coords), 2):
        x, y = coords[i], coords[i + 1]
        if x == _NEW:
            if len(cur) >= 3:
                rings.append(cur)
            cur = []
        elif x in (_CLOSE, _FILL):
            if cur:
                if cur[0] != cur[-1]:
                    cur.append(cur[0])
                if first_ring_pts is None:
                    first_ring_pts = cur
                    c = _circle_center(cur) or _square_center(cur[:-1])
                    if not rings and c is not None and x == _FILL:
                        return W.point(*space.to_srs(*c))
                if len(cur) >= 4:
                    rings.append(cur)
                cur = []
        else:
            cur.append((x, y))
    if len(cur) >= 3:
        rings.append(cur)
    if not rings:
        return None
    # dedupe identical consecutive rings (stroke+fill double emit)
    uniq = []
    for r in rings:
        if uniq and len(uniq[-1]) == len(r) and \
                np.allclose(uniq[-1], r):
            continue
        uniq.append(r)
    srs_rings = [np.array([space.to_srs(x, y) for x, y in r])
                 for r in uniq]
    from .mif import assemble_rings
    return assemble_rings(srs_rings)


_NUM_RE = re.compile(rb"^[-+.0-9]+$")


def _pdf_text(v):
    if isinstance(v, bytes):
        if v[:2] == b"\xfe\xff":
            return v[2:].decode("utf-16-be", "replace")
        return v.decode("utf-8", "replace")
    return v


def _parse_content(data: bytes, space, prop_to_layer, emit, layer0=None,
                   pdf=None, resources=None, depth=0, gs0=None,
                   layer_in=None, ocg_to_layer=None):
    """ParseContent analog: walks the operator stream, building path
    coordinates and emitting (layer, geometry) via emit()."""
    lx_tokens = re.findall(
        rb"/[^\s/\[\]()<>{}%]*|\((?:\\.|[^\\)])*\)|<<|>>|[\[\]{}]|"
        rb"[^\s/\[\]()<>{}%]+", data)
    if depth > 8:
        return
    gs = _GS(gs0.cm) if gs0 is not None else _GS()
    gs_stack = []
    layer_stack = []
    cur_layer = layer_in if layer_in is not None else layer0
    stack: list = []
    coords: list = []
    has_fill = False
    multipart = False
    bt = 0
    i = 0
    n = len(lx_tokens)

    def nums(k):
        vals = stack[-k:]
        del stack[-k:]
        return [float(v) for v in vals]

    while i < n:
        tok = lx_tokens[i]
        i += 1
        if tok[:1] in b"([{<" or _NUM_RE.match(tok) or \
                tok[:1] == b"/" or tok in (b">>", b"]", b"}"):
            stack.append(tok.decode("latin1", "replace")
                         if not _NUM_RE.match(tok) else tok)
            if len(stack) > 64:
                del stack[:32]
            continue
        op = tok
        emit_now = False
        try:
            if op == b"q":
                gs_stack.append(_GS(gs.cm))
            elif op == b"Q":
                gs = gs_stack.pop() if gs_stack else _GS()
            elif op == b"cm":
                m = nums(6)
                gs.mul(tuple(m))
            elif op == b"m" or op == b"l":
                x, y = nums(2)
                if op == b"m":
                    if coords:
                        multipart = True
                    coords += [_NEW, _NEW]
                coords += list(gs.apply(x, y))
            elif op == b"c":
                v = nums(6)
                p1 = gs.apply(v[0], v[1])
                p2 = gs.apply(v[2], v[3])
                p3 = gs.apply(v[4], v[5])
                p0 = (coords[-2], coords[-1]) if coords else p1
                _bezier(coords, p0, p1, p2, p3)
            elif op == b"v":
                v = nums(4)
                p2 = gs.apply(v[0], v[1])
                p3 = gs.apply(v[2], v[3])
                p0 = (coords[-2], coords[-1]) if coords else p2
                _bezier(coords, p0, p0, p2, p3)
            elif op == b"y":
                v = nums(4)
                p1 = gs.apply(v[0], v[1])
                p3 = gs.apply(v[2], v[3])
                p0 = (coords[-2], coords[-1]) if coords else p1
                _bezier(coords, p0, p1, p3, p3)
            elif op == b"re":
                x, y, w, h = nums(4)
                c0 = gs.apply(x, y)
                c2 = gs.apply(x + w, y + h)
                if coords:
                    multipart = True
                coords += [_NEW, _NEW, c0[0], c0[1], c2[0], c0[1],
                           c2[0], c2[1], c0[0], c2[1], _CLOSE, _CLOSE]
            elif op == b"h":
                if not (coords and coords[-1] == _CLOSE):
                    coords += [_CLOSE, _CLOSE]
            elif op in (b"b", b"b*"):
                if not (coords and coords[-1] == _CLOSE):
                    coords += [_CLOSE, _CLOSE]
                coords += [_FILL, _FILL]
                has_fill = True
                emit_now = True
            elif op in (b"B", b"B*", b"f", b"F", b"f*"):
                coords += [_FILL, _FILL]
                has_fill = True
                emit_now = True
            elif op == b"n":
                coords = []
            elif op == b"s":
                if not (coords and coords[-1] == _CLOSE):
                    coords += [_CLOSE, _CLOSE]
                emit_now = True
            elif op == b"S":
                emit_now = True
            elif op == b"BDC":
                name = stack[-2] if len(stack) >= 2 else None
                prop = stack[-1] if len(stack) >= 1 else None
                mcid = None
                if isinstance(prop, dict):
                    mcid = prop.get("MCID")
                if isinstance(prop, str) and prop.startswith("<<"):
                    prop = None
                # inline dict form: scan back for "/MCID <n>"
                if mcid is None and len(stack) >= 2:
                    for k in range(len(stack) - 1, -1, -1):
                        if stack[k] == "/MCID" and k + 1 < len(stack):
                            try:
                                mcid = int(stack[k + 1])
                            except (TypeError, ValueError):
                                pass
                            break
                layer_stack.append(cur_layer)
                if name == "/OC" and isinstance(prop, str) and \
                        prop.startswith("/"):
                    lyr = prop_to_layer.get(prop[1:])
                    if lyr is not None:
                        cur_layer = lyr
                elif mcid is not None:
                    cur_layer = ("__mcid__", mcid)
                del stack[:]
            elif op == b"BMC":
                layer_stack.append(cur_layer)
                del stack[-1:]
            elif op == b"EMC":
                if layer_stack:
                    cur_layer = layer_stack.pop()
            elif op == b"BT":
                bt += 1
            elif op == b"ET":
                bt = max(0, bt - 1)
            elif op == b"BI":
                while i < n and lx_tokens[i] != b"EI":
                    i += 1
                i += 1
            elif op == b"Do":
                name = stack[-1] if stack else None
                if pdf is not None and resources is not None and \
                        isinstance(name, str) and name.startswith("/"):
                    from ..codecs.pdf import Stream as _St
                    from ..codecs.pdf import decode_stream as _ds
                    xobjs = pdf.resolve(resources.get("XObject")) or {}
                    xo = pdf.resolve(xobjs.get(name[1:]))
                    if isinstance(xo, _St) and \
                            pdf.resolve(xo.dict.get("Subtype")) == "Form":
                        m = pdf.resolve(xo.dict.get("Matrix")) or \
                            [1, 0, 0, 1, 0, 0]
                        sub_gs = _GS(gs.cm)
                        sub_gs.mul(tuple(float(v) for v in m))
                        fres = pdf.resolve(xo.dict.get("Resources"))
                        if not isinstance(fres, dict):
                            fres = resources
                        sub_layer = cur_layer
                        oc = xo.dict.get("OC")
                        if ocg_to_layer is not None and \
                                getattr(oc, "num", None) in ocg_to_layer:
                            sub_layer = ocg_to_layer[oc.num]
                        _parse_content(_ds(pdf, xo), space,
                                       prop_to_layer, emit, layer0,
                                       pdf, fres, depth + 1, sub_gs,
                                       sub_layer, ocg_to_layer)
        except (IndexError, ValueError):
            pass
        if emit_now:
            if cur_layer is not None and not bt:
                g = _build_geometry(coords, has_fill, multipart, space)
                if g is not None:
                    emit(cur_layer, g)
            coords = []
            has_fill = False
            multipart = False
        stack.clear()
    return


def _page_content(pdf: PdfFile, pg: dict) -> bytes:
    content = pdf.resolve(pg.get("Contents"))
    items = content if isinstance(content, list) else [content]
    chunks = []
    for c in items:
        c = pdf.resolve(c)
        if isinstance(c, Stream):
            chunks.append(decode_stream(pdf, c))
    return b"\n".join(chunks)


def read_pdf_layers(path, *, non_structured: bool = False,
                    page: int = 1) -> dict[str, pa.Table]:
    """Vector layers of a PDF → {name: layer table (fid, fields...,
    wkb, envelope)}."""
    raw = path if isinstance(path, bytes) else open(path, "rb").read()
    pdf = PdfFile(raw)
    pages = pdf.pages()
    if not pages:
        raise ValueError("PDF has no pages")
    pg = pages[page - 1]
    media = [float(pdf.resolve(v))
             for v in pdf.resolve(pg.get("MediaBox")) or [0, 0, 612, 792]]
    pw, ph = media[2] - media[0], media[3] - media[1]
    _, gt, _, meta = read_pdf(raw, page=page, pixels=False)
    nx, ny = meta["size"]
    space = _PageSpace(pw, ph, nx, ny, gt)
    content = _page_content(pdf, pg)

    root = pdf.resolve(pdf.trailer.get("Root")) or {}
    struct_root = pdf.resolve(root.get("StructTreeRoot"))

    # property name -> layer name (from Resources.Properties OCG refs)
    prop_to_layer: dict[str, str] = {}
    res = pdf.resolve(pg.get("Resources")) or {}
    props = pdf.resolve(res.get("Properties")) or {}
    ocg_to_layer: dict[int, str] = {}
    for key, obj in props.items():
        o = pdf.resolve(obj)
        if isinstance(o, dict) and "Name" in o:
            nm = _pdf_text(pdf.resolve(o["Name"]))
            nm = str(nm) if nm else ""
            # PDFSanitizeLayerName: empty names become "unnamed"
            lname = nm if nm.strip() else "unnamed"
            prop_to_layer[key] = lname
            if hasattr(obj, "num"):
                ocg_to_layer[obj.num] = lname

    feats: dict[str, list] = {}
    mcid_geom: dict[int, object] = {}

    def emit(layer, geom):
        if isinstance(layer, tuple) and layer[0] == "__mcid__":
            mcid_geom.setdefault(layer[1], []).append(geom)
        else:
            feats.setdefault(str(layer), []).append((geom, {}))

    if struct_root is not None and not non_structured:
        _parse_content(content, space, prop_to_layer, emit, layer0=None,
                       pdf=pdf, resources=res,
                       ocg_to_layer=ocg_to_layer)
        _walk_struct_tree(pdf, struct_root, mcid_geom, feats)
    else:
        layer0 = "content" if not prop_to_layer else None
        _parse_content(content, space, prop_to_layer, emit,
                       layer0=layer0, pdf=pdf, resources=res,
                       ocg_to_layer=ocg_to_layer)

    out = {}
    for name, rows in feats.items():
        if not rows:
            continue
        out[name] = _finish_table(rows)
    return out


def _merge_parts(parts):
    """Several paint emits under one /MCID combine into a multi
    geometry (one feature = one marked-content block)."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    kinds = {g.geom_type for g in parts}
    if kinds == {W.POLYGON}:
        return W.Geometry(W.MULTIPOLYGON, parts=list(parts))
    if kinds == {W.LINESTRING}:
        return W.Geometry(W.MULTILINESTRING, parts=list(parts))
    if kinds == {W.POINT}:
        return W.Geometry(W.MULTIPOINT, parts=list(parts))
    return W.collection(list(parts))


def _walk_struct_tree(pdf, node, mcid_geom, feats, depth=0,
                      seen=None):
    if depth > 16 or not isinstance(node, dict):
        return
    if seen is None:
        seen = set()
    k = pdf.resolve(node.get("K"))
    title = pdf.resolve(node.get("T")) or pdf.resolve(node.get("S"))
    if isinstance(title, bytes):
        title = title.decode("utf-8", "replace")
    if isinstance(k, list):
        items = [pdf.resolve(e) for e in k]
        feature_like = [e for e in items if isinstance(e, dict)
                        and isinstance(pdf.resolve(e.get("K")), int)]
        if feature_like:
            name = str(title) if title else f"Layer{len(feats) + 1}"
            rows = feats.setdefault(name, [])
            for e in feature_like:
                mcid = pdf.resolve(e.get("K"))
                attrs = {}
                a = pdf.resolve(e.get("A"))
                if isinstance(a, dict) and \
                        pdf.resolve(a.get("O")) == "UserProperties":
                    for kv in pdf.resolve(a.get("P")) or []:
                        kv = pdf.resolve(kv)
                        if isinstance(kv, dict):
                            nm = pdf.resolve(kv.get("N"))
                            if isinstance(nm, bytes):
                                nm = nm.decode("utf-8", "replace")
                            v = pdf.resolve(kv.get("V"))
                            if isinstance(v, bytes):
                                v = v.decode("utf-8", "replace")
                            if nm:
                                attrs[str(nm)] = v
                g = _merge_parts(mcid_geom.get(mcid))
                if g is not None or attrs:
                    rows.append((g, attrs))
        else:
            for e in items:
                _walk_struct_tree(pdf, e, mcid_geom, feats, depth + 1,
                                  seen)
    elif isinstance(k, dict):
        _walk_struct_tree(pdf, k, mcid_geom, feats, depth + 1, seen)


def _finish_table(rows) -> pa.Table:
    names: list[str] = []
    for g, attrs in rows:
        for nm in attrs:
            if nm not in names:
                names.append(nm)
    cols = {"fid": pa.array(range(len(rows)), pa.int64())}
    for nm in names:
        vals = [attrs.get(nm) for g, attrs in rows]
        typed = [v for v in vals if v is not None]
        if typed and all(isinstance(v, bool) for v in typed):
            cols[nm] = pa.array(vals, pa.bool_())
        elif typed and all(isinstance(v, int) and
                           not isinstance(v, bool) for v in typed):
            cols[nm] = pa.array(vals, pa.int64())
        elif typed and all(isinstance(v, (int, float)) and
                           not isinstance(v, bool) for v in typed):
            cols[nm] = pa.array([float(v) if v is not None else None
                                 for v in vals], pa.float64())
        else:
            cols[nm] = pa.array(
                [str(v) if v is not None else None for v in vals],
                pa.string())
    return with_geometry(pa.table(cols), [g for g, _attrs in rows])


def read_pdf_vector_table(path, layer: str | None = None,
                          **kw) -> pa.Table:
    layers = read_pdf_layers(path, **kw)
    if not layers:
        raise ValueError("no vector layers found (try "
                         "non_structured=True)")
    return pick_layer(layers, path, layer)


# ------------------------------------------------------------- writer


_KAPPA = 0.5522847498307933


def _fmt(v: float) -> str:
    return f"{v:.10f}".rstrip("0").rstrip(".")


def write_pdf_vector(layers: dict[str, pa.Table], path: str, *,
                     gt=None, crs=None, epsg=None,
                     page_size=(595.0, 842.0),
                     point_radius_pts: float = 2.0) -> int:
    """{name: layer table with wkb} -> vector PDF with one OCG per
    layer, per-feature MCID marked content and a structure tree
    carrying the attributes (the reference writer's object graph)."""
    pw, ph = page_size
    # page transform: fit union envelope (or gt grid) onto the page
    all_env = []
    for t in layers.values():
        e = [t[c] for c in ENVELOPE]
        vals = [np.asarray(c.to_numpy(zero_copy_only=False), np.float64)
                for c in e]
        if len(vals[0]):
            all_env.append((np.nanmin(vals[0]), np.nanmin(vals[1]),
                            np.nanmax(vals[2]), np.nanmax(vals[3])))
    if not all_env:
        raise ValueError("no features to write")
    minx = min(e[0] for e in all_env)
    miny = min(e[1] for e in all_env)
    maxx = max(e[2] for e in all_env)
    maxy = max(e[3] for e in all_env)
    dx = maxx - minx or 1.0
    dy = maxy - miny or 1.0
    margin = 10.0
    sc = min((pw - 2 * margin) / dx, (ph - 2 * margin) / dy)

    def to_page(x, y):
        return ((x - minx) * sc + margin, (y - miny) * sc + margin)

    # georeference so reading back recovers original coordinates
    gt_out = (minx - margin / sc, 1.0 / sc * (dx * sc + 2 * margin) /
              (pw / (pw / (dx * sc + 2 * margin))) if False else 0,)
    # simpler: raster grid == page points at dpi 72, so
    # gt maps page pixel -> world: x = minx - margin/sc + px/sc
    gt_out = (minx - margin / sc, 1.0 / sc, 0.0,
              maxy + margin / sc, 0.0, -1.0 / sc)

    content = []
    struct_feats = []              # (layer_name, mcid, attrs)
    mcid = 0
    ocg_names = list(layers)
    for li, (lname, t) in enumerate(layers.items()):
        content.append(f"/OC /Lyr{li} BDC\n")
        field_cols = [c for c in t.column_names
                      if c not in ("fid", "wkb", *ENVELOPE)]
        for r in range(t.num_rows):
            b = t["wkb"][r].as_py()
            if b is None:
                continue
            g = W.loads(b)
            attrs = {}
            for c in field_cols:
                v = t[c][r].as_py()
                if v is not None:
                    attrs[c] = v
            content.append(f"/feature <</MCID {mcid}>> BDC\n")
            content.append(_geom_ops(g, to_page, point_radius_pts))
            content.append("EMC\n")
            struct_feats.append((lname, mcid, attrs))
            mcid += 1
        content.append("EMC\n")
    stream = "".join(content).encode("latin1")
    comp = zlib.compress(stream, 6)

    # object graph
    objs: dict[int, bytes] = {}
    nlayers = len(ocg_names)
    ocg_base = 20
    feat_base = ocg_base + nlayers
    lyrstruct_base = feat_base + len(struct_feats)

    def esc(s):
        return str(s).replace("\\", r"\\").replace("(", r"\(")\
            .replace(")", r"\)")

    objs[1] = (b"<< /Type /Catalog /Pages 2 0 R /StructTreeRoot 6 0 R "
               b"/OCProperties << /OCGs [ " +
               " ".join(f"{ocg_base + i} 0 R"
                        for i in range(nlayers)).encode() +
               b" ] /D << /Order [ " +
               " ".join(f"{ocg_base + i} 0 R"
                        for i in range(nlayers)).encode() +
               b" ] >> >> >>")
    objs[2] = b"<< /Type /Pages /Count 1 /Kids [ 3 0 R ] >>"
    props = " ".join(f"/Lyr{i} {ocg_base + i} 0 R"
                     for i in range(nlayers))
    objs[3] = (f"<< /Type /Page /Parent 2 0 R "
               f"/MediaBox [ 0 0 {_fmt(pw)} {_fmt(ph)} ] "
               f"/Contents 4 0 R "
               f"/Resources << /Properties << {props} >> >> "
               f"/VP [ 7 0 R ] /StructParents 0 >>").encode()
    objs[4] = (f"<< /Length {len(comp)} /Filter /FlateDecode "
               f">>\nstream\n").encode() + comp + b"\nendstream"
    # ISO32000 georef
    from ..codecs.pdf import _wkt_geogcs_corners
    nx, ny = int(pw + 0.5), int(ph + 0.5)
    corners = _wkt_geogcs_corners(
        gt_out, nx, ny, crs or (f"EPSG:{epsg}" if epsg else None))
    gpts = " ".join(f"{lat:.16g} {lon:.16g}" for lat, lon in corners)
    gcs = ["/Type /GEOGCS"]
    if epsg:
        gcs.append(f"/EPSG {int(epsg)}")
    if crs:
        gcs.append(f"/WKT ({esc(crs)})")
    objs[7] = (f"<< /Type /Viewport /BBox [ 0 0 {_fmt(pw)} {_fmt(ph)} ]"
               f" /Name (Layers) /Measure 8 0 R >>").encode()
    objs[8] = (f"<< /Type /Measure /Subtype /GEO "
               f"/Bounds [ 0 1 0 0 1 0 1 1 ] /GPTS [ {gpts} ] "
               f"/LPTS [ 0 1 0 0 1 0 1 1 ] /GCS 9 0 R >>").encode()
    objs[9] = ("<< " + " ".join(gcs) + " >>").encode()

    for i, nm in enumerate(ocg_names):
        objs[ocg_base + i] = (f"<< /Type /OCG /Name ({esc(nm)}) "
                              f">>").encode()
    # structure tree: root -> one element per layer -> feature elts
    by_layer: dict[str, list[int]] = {}
    for fi, (lname, mc, attrs) in enumerate(struct_feats):
        pieces = [f"<< /Type /StructElem /S /feature /P "
                  f"{lyrstruct_base + ocg_names.index(lname)} 0 R "
                  f"/K {mc}"]
        if attrs:
            kvs = []
            for k, v in attrs.items():
                if isinstance(v, bool):
                    vv = "true" if v else "false"
                elif isinstance(v, int):
                    vv = str(v)
                elif isinstance(v, float):
                    vv = _fmt(v) if v == v else "0"
                    if "." not in vv and "e" not in vv:
                        vv += ".0"
                else:
                    vv = f"({esc(v)})"
                kvs.append(f"<< /N ({esc(k)}) /V {vv} >>")
            pieces.append(" /A << /O /UserProperties /P [ " +
                          " ".join(kvs) + " ] >>")
        pieces.append(" >>")
        objs[feat_base + fi] = "".join(pieces).encode()
        by_layer.setdefault(lname, []).append(feat_base + fi)
    for i, nm in enumerate(ocg_names):
        kids = " ".join(f"{k} 0 R" for k in by_layer.get(nm, []))
        objs[lyrstruct_base + i] = (
            f"<< /Type /StructElem /S /Layer /T ({esc(nm)}) /P 6 0 R "
            f"/K [ {kids} ] >>").encode()
    objs[6] = (b"<< /Type /StructTreeRoot /K [ " +
               " ".join(f"{lyrstruct_base + i} 0 R"
                        for i in range(nlayers)).encode() + b" ] >>")

    out = bytearray(b"%PDF-1.6\n%\xff\xff\xff\xff\n")
    offsets = {}
    for num in sorted(objs):
        offsets[num] = len(out)
        out += f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n"
    xref_at = len(out)
    maxnum = max(objs)
    out += f"xref\n0 {maxnum + 1}\n".encode() + b"0000000000 65535 f \n"
    for num in range(1, maxnum + 1):
        if num in offsets:
            out += f"{offsets[num]:010d} 00000 n \n".encode()
        else:
            out += b"0000000000 65535 f \n"
    out += (f"trailer\n<< /Size {maxnum + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_at}\n%%EOF\n").encode()
    open(path, "wb").write(bytes(out))
    return mcid


def _geom_ops(g, to_page, r) -> str:
    """Geometry → PDF path operators (points as the GDAL filled-circle
    symbol: four KAPPA bezier arcs)."""
    t = g.geom_type
    if t == W.POINT:
        x, y = to_page(g.coords[0, 0], g.coords[0, 1])
        k = _KAPPA * r
        return (f"{_fmt(x - r)} {_fmt(y)} m\n"
                f"{_fmt(x - r)} {_fmt(y + k)} {_fmt(x - k)} {_fmt(y + r)}"
                f" {_fmt(x)} {_fmt(y + r)} c\n"
                f"{_fmt(x + k)} {_fmt(y + r)} {_fmt(x + r)} {_fmt(y + k)}"
                f" {_fmt(x + r)} {_fmt(y)} c\n"
                f"{_fmt(x + r)} {_fmt(y - k)} {_fmt(x + k)} {_fmt(y - r)}"
                f" {_fmt(x)} {_fmt(y - r)} c\n"
                f"{_fmt(x - k)} {_fmt(y - r)} {_fmt(x - r)} {_fmt(y - k)}"
                f" {_fmt(x - r)} {_fmt(y)} c\n"
                "f\n")
    if t == W.LINESTRING:
        ops = []
        for i, (x, y) in enumerate(g.coords):
            px, py = to_page(x, y)
            ops.append(f"{_fmt(px)} {_fmt(py)} {'m' if i == 0 else 'l'}")
        return "\n".join(ops) + "\nS\n"
    if t == W.POLYGON:
        ops = []
        for ring in g.rings:
            for i, (x, y) in enumerate(np.asarray(ring)[:-1]):
                px, py = to_page(x, y)
                ops.append(f"{_fmt(px)} {_fmt(py)} "
                           f"{'m' if i == 0 else 'l'}")
            ops.append("h")
        return "\n".join(ops) + "\nf*\n"
    if t == W.MULTIPOLYGON:
        ops = []
        for part in g.parts:
            for ring in part.rings:
                for i, (x, y) in enumerate(np.asarray(ring)[:-1]):
                    px, py = to_page(x, y)
                    ops.append(f"{_fmt(px)} {_fmt(py)} "
                               f"{'m' if i == 0 else 'l'}")
                ops.append("h")
        return "\n".join(ops) + "\nf*\n"
    if t == W.MULTILINESTRING:
        ops = []
        for part in g.parts:
            for i, (x, y) in enumerate(part.coords):
                px, py = to_page(x, y)
                ops.append(f"{_fmt(px)} {_fmt(py)} "
                           f"{'m' if i == 0 else 'l'}")
        return "\n".join(ops) + "\nS\n"
    # other multi parts: concatenate (reader merges same-MCID parts)
    return "".join(_geom_ops(p, to_page, r) for p in g.parts)
