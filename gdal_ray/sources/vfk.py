"""VFK (Czech cadastre exchange, ISKN) reader — ``&H`` header blocks
define file metadata, ``&B`` blocks the per-layer schemas
(``&BPAR;ID N30;...``), ``&D`` lines carry
rows, and geometry is reconstructed from the topological layers.

Reference ogr/ogrsf_frmts/vfk/vfkdatablock.cpp: point layers carry
SOURADNICE_Y/X in S-JTSK (x = -Y, y = -X, LoadGeometryPoint); SBP
rows chain points into segments split where PORADOVE_CISLO_BODU == 1
(LoadGeometryLineStringSBP); HP/DPM/ZVB take the SBP chain whose
``<NAME>_ID`` matches their ID (LoadGeometryLineStringHP); PAR/BUD
polygons are ring-assembled from the HP edges referencing them via
PAR_ID_1/PAR_ID_2 (LoadGeometryPolygon + AppendLineToRing endpoint
chaining).  Codepage WE8ISO8859P2 = latin-2.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from . import pick_layer
from .vector import with_geometry

__all__ = ["read_vfk", "read_vfk_table"]


def _split_semis(line: str) -> list[str]:
    out = []
    cur = []
    inq = False
    i = 0
    while i < len(line):
        c = line[i]
        if inq:
            if c == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    cur.append('"')
                    i += 1
                else:
                    inq = False
            else:
                cur.append(c)
        elif c == '"':
            inq = True
        elif c == ";":
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    out.append("".join(cur))
    return out


def _parse(path: str):
    """-> (schemas {name: [(field, type)]}, rows {name: [list[str]]})"""
    text = open(path, "rb").read().decode("iso-8859-2", "replace")
    schemas: dict = {}
    rows: dict = {}
    order: list = []
    for line in text.splitlines():
        if len(line) < 3 or line[0] != "&":
            continue
        kind, body = line[1], line[2:]
        parts = _split_semis(body)
        name = parts[0]
        if kind == "B":
            # schema iff every remaining token is "FIELD TYPE"
            fields = []
            ok = len(parts) > 1
            for p in parts[1:]:
                m = re.match(r"^(\w+) ([NTD])[\d.]*$", p.strip())
                if not m:
                    ok = False
                    break
                fields.append((m.group(1), m.group(2)))
            if ok:
                schemas[name] = fields
                order.append(name)
        elif kind == "D":
            rows.setdefault(name, []).append(parts[1:])
    return schemas, rows, order


def _ring_assemble(lines: list) -> list:
    """Greedy endpoint chaining (AppendLineToRing): -> list of rings
    (each a list of (x, y))."""
    rings: list[list] = []
    pending = [list(map(tuple, ln)) for ln in lines if len(ln) >= 2]
    count, count_max = 0, len(pending) * 2
    new_ring = True
    while pending and count < count_max:
        found = False
        for idx, ln in enumerate(pending):
            if new_ring:
                rings.append(list(ln))
                found = True
                pending.pop(idx)
                break
            ring = rings[-1]
            if ln[0] == ring[-1]:
                ring.extend(ln[1:])
            elif ln[-1] == ring[-1]:
                ring.extend(reversed(ln[:-1]))
            elif ln[0] == ring[0]:
                ring[:0] = reversed(ln[1:])
            elif ln[-1] == ring[0]:
                ring[:0] = ln[:-1]
            else:
                continue
            found = True
            pending.pop(idx)
            break
        new_ring = not found
        count += 1
    return rings


def read_vfk(path: str) -> dict:
    """-> {layer: pyarrow.Table} for every &H-defined data block."""
    schemas, rows, order = _parse(path)

    def col(name, field):
        sch = schemas[name]
        idx = next((i for i, (f, _) in enumerate(sch) if f == field), -1)
        if idx < 0:
            return None
        return [r[idx] if idx < len(r) else "" for r in rows.get(name, [])]

    # --- points (SOBR/SPOL): x = -Y, y = -X
    points: dict = {}
    for name in ("SOBR", "SPOL"):
        ys = col(name, "SOURADNICE_Y") if name in schemas else None
        xs = col(name, "SOURADNICE_X") if name in schemas else None
        ids = col(name, "ID") if name in schemas else None
        if ys and xs and ids:
            for i, pid in enumerate(ids):
                try:
                    points[pid] = (-float(ys[i]), -float(xs[i]))
                except ValueError:
                    pass

    # --- SBP chains
    sbp_geoms: dict = {}          # row index -> list[(x, y)]
    chains_by_ref: dict = {}      # (ref field, id) -> chain
    if "SBP" in schemas and "SBP" in rows:
        sch = {f: i for i, (f, _) in enumerate(schemas["SBP"])}
        cur: list = []
        start_row = None
        start_vals = None

        def flush():
            if start_row is not None and len(cur) >= 2:
                sbp_geoms[start_row] = list(cur)
                for fld in ("HP_ID", "OB_ID", "DPM_ID", "ZVB_ID"):
                    if fld in sch and start_vals[sch[fld]].strip():
                        chains_by_ref[(fld, start_vals[sch[fld]])] = \
                            list(cur)
        for j, r in enumerate(rows["SBP"]):
            pcb = r[sch["PORADOVE_CISLO_BODU"]]
            if pcb.strip() == "1":
                flush()
                cur = []
                start_row = j
                start_vals = r
            pt = points.get(r[sch["BP_ID"]])
            if pt is not None:
                cur.append(pt)
        flush()

    out = {}
    for name in order:
        sch = schemas[name]
        data = rows.get(name, [])
        if name in ("SBP", "SBPG"):
            # one feature per chain (the reference's SQLite-backed VFK
            # reader amalgamates segment rows; FID = chain number)
            pcb_i = next((i for i, (f, _) in enumerate(sch)
                          if f == "PORADOVE_CISLO_BODU"), -1)
            keep = [j for j, r in enumerate(data)
                    if pcb_i >= 0 and r[pcb_i].strip() == "1"]
            sbp_geoms = {k: sbp_geoms[j] for k, j in enumerate(keep)
                         if j in sbp_geoms}
            data = [data[j] for j in keep]
        cols = {"fid": pa.array(range(1, len(data) + 1), pa.int64())}
        arrays = {}
        for i, (fld, typ) in enumerate(sch):
            vals = [r[i] if i < len(r) else "" for r in data]
            if typ == "N":
                conv = []
                is_float = any("." in v for v in vals)
                for v in vals:
                    v = v.strip()
                    try:
                        conv.append(float(v) if is_float else int(v))
                    except ValueError:
                        conv.append(None)
                arrays[fld] = pa.array(
                    conv, pa.float64() if is_float else pa.int64())
            else:
                arrays[fld] = pa.array(vals, pa.string())
        geoms = [None] * len(data)
        idx_of = {f: i for i, (f, _) in enumerate(sch)}
        if name in ("SOBR", "SPOL"):
            for j, r in enumerate(data):
                pt = points.get(r[idx_of["ID"]])
                if pt:
                    geoms[j] = W.dumps(W.point(*pt))
        elif name in ("SBP", "SBPG"):
            for j in range(len(data)):
                if j in sbp_geoms:
                    geoms[j] = W.dumps(W.linestring(
                        np.asarray(sbp_geoms[j])))
        elif name in ("HP", "DPM", "ZVB"):
            for j, r in enumerate(data):
                chain = chains_by_ref.get((f"{name}_ID",
                                           r[idx_of["ID"]]))
                if chain:
                    geoms[j] = W.dumps(W.linestring(np.asarray(chain)))
        elif name == "PAR" and "HP" in schemas:
            hsch = {f: i for i, (f, _) in enumerate(schemas["HP"])}
            for j, r in enumerate(data):
                pid = r[idx_of["ID"]]
                edges = []
                for hr in rows.get("HP", []):
                    if (hr[hsch["PAR_ID_1"]].strip() == pid
                            or hr[hsch["PAR_ID_2"]].strip() == pid):
                        chain = chains_by_ref.get(("HP_ID",
                                                   hr[hsch["ID"]]))
                        if chain:
                            edges.append(chain)
                rings = _ring_assemble(edges)
                if rings:
                    geoms[j] = W.dumps(W.polygon(
                        np.asarray(rings[0]),
                        [np.asarray(rg) for rg in rings[1:]]))
        out[name] = with_geometry(pa.table({**cols, **arrays}), geoms)
    return out


def read_vfk_table(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_vfk(path), path, layer, prefer=("PAR",))
