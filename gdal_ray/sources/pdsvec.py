"""PDS3 TABLE vector reader (reference: ogr/ogrsf_frmts/pds/) —
detached PVL labels with a ``^TABLE`` pointer to fixed-width ASCII or
binary record files, column layouts from inline COLUMN objects or a
``^STRUCTURE`` .fmt companion (NAME / DATA_TYPE / START_BYTE / BYTES,
ITEMS arrays expanded to ``NAME_i`` fields like the reference), and
point geometry from LONGITUDE/LATITUDE columns.

Parity targets (autotest/ogr/ogr_pds.py): ap01578l.lbl layer
RAMAPPING — 74786 rows, first row NOISE_COUNTS_1 = 96 and
POINT (146.1325 -55.648), row 1 MARS_RADIUS = 3385310.2;
virsvd_orb_11187_050618.lbl (binary) — INCIDENCE_ANGLE ≈ 3.56775538,
TEMP_2 ≈ 28.124.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import with_geometry

__all__ = ["read_pds_table"]

_KV = re.compile(r"^\s*(\^?[A-Za-z0-9_:]+)\s*=\s*(.*?)\s*$")


def _parse_columns(text: str):
    """COLUMN objects from a label/.fmt body → list of dicts."""
    cols = []
    cur = None
    depth_item = None
    for line in text.splitlines():
        m = _KV.match(line)
        if not m:
            continue
        k, v = m.group(1).upper(), m.group(2).strip()
        v = v.strip('"').strip()
        if k == "OBJECT" and v.upper() == "COLUMN":
            cur = {}
        elif k == "END_OBJECT" and cur is not None:
            cols.append(cur)
            cur = None
        elif cur is not None:
            if k in ("NAME", "DATA_TYPE"):
                cur[k] = v.upper() if k == "DATA_TYPE" else v
            elif k in ("START_BYTE", "BYTES", "ITEMS", "ITEM_BYTES",
                       "ITEM_OFFSET"):
                try:
                    cur[k] = int(v.split()[0])
                except ValueError:
                    pass
    return cols


def _find_file(directory: str, name: str) -> str:
    cand = os.path.join(directory, name)
    if os.path.exists(cand):
        return cand
    low = name.lower()
    for f in os.listdir(directory):
        if f.lower() == low:
            return os.path.join(directory, f)
    raise FileNotFoundError(name)


_BIN_TYPES = {
    ("MSB_UNSIGNED_INTEGER", 1): ">u1", ("MSB_UNSIGNED_INTEGER", 2): ">u2",
    ("MSB_UNSIGNED_INTEGER", 4): ">u4", ("MSB_UNSIGNED_INTEGER", 8): ">u8",
    ("MSB_INTEGER", 1): ">i1", ("MSB_INTEGER", 2): ">i2",
    ("MSB_INTEGER", 4): ">i4", ("MSB_INTEGER", 8): ">i8",
    ("IEEE_REAL", 4): ">f4", ("IEEE_REAL", 8): ">f8",
    ("MSB_IEEE_REAL", 4): ">f4", ("MSB_IEEE_REAL", 8): ">f8",
    ("LSB_UNSIGNED_INTEGER", 1): "<u1", ("LSB_UNSIGNED_INTEGER", 2): "<u2",
    ("LSB_UNSIGNED_INTEGER", 4): "<u4",
    ("LSB_INTEGER", 1): "<i1", ("LSB_INTEGER", 2): "<i2",
    ("LSB_INTEGER", 4): "<i4",
    ("PC_REAL", 4): "<f4", ("PC_REAL", 8): "<f8",
}


def read_pds_table(path: str) -> pa.Table:
    """PDS3 TABLE label → Arrow table (fid, fields..., wkb + envelope
    when LONGITUDE/LATITUDE columns exist)."""
    text = open(path, encoding="ascii", errors="replace").read()
    kv = {}
    for line in text.splitlines():
        m = _KV.match(line)
        if m:
            k = m.group(1).upper()
            if k not in kv:
                kv[k] = m.group(2).strip()
    if "^TABLE" not in kv:
        raise ValueError("PDS label has no ^TABLE pointer")
    record_bytes = int(kv.get("RECORD_BYTES", "0").split()[0] or 0)
    ptr = kv["^TABLE"]
    m = re.match(r'\(\s*"?([^",)]+)"?\s*,\s*(\d+)', ptr)
    if m:
        data_name, start_rec = m.group(1), int(m.group(2))
    else:
        data_name, start_rec = ptr.strip('"'), 1
    base = os.path.dirname(os.path.abspath(path))
    data_path = _find_file(base, data_name)

    # TABLE object body: between OBJECT=TABLE and END_OBJECT
    tm = re.search(r"OBJECT\s*=\s*TABLE(.*?)END_OBJECT\s*=\s*TABLE",
                   text, re.S)
    body = tm.group(1) if tm else text
    tkv = {}
    for line in body.splitlines():
        m2 = _KV.match(line)
        if m2 and m2.group(1).upper() not in tkv:
            tkv[m2.group(1).upper()] = m2.group(2).strip()
    fmt = tkv.get("INTERCHANGE_FORMAT", "ASCII").strip('"').upper()
    rows = int(tkv.get("ROWS", kv.get("FILE_RECORDS", "0")).split()[0])
    name = tkv.get("NAME", "TABLE").strip('"')

    cols = _parse_columns(body)
    if "^STRUCTURE" in tkv or not cols:
        sname = (tkv.get("^STRUCTURE") or "").strip('"')
        if sname:
            stext = open(_find_file(base, sname), encoding="ascii",
                         errors="replace").read()
            cols = _parse_columns(stext)
            for line in stext.splitlines():
                m3 = _KV.match(line)
                if m3 and m3.group(1).upper() == "ROW_BYTES":
                    tkv.setdefault("ROW_BYTES", m3.group(2).strip())
    row_bytes = int(tkv.get("ROW_BYTES",
                            str(record_bytes)).split()[0] or record_bytes)
    if not cols:
        raise ValueError("PDS TABLE has no COLUMN definitions")

    buf = open(data_path, "rb").read()
    off = (start_rec - 1) * (record_bytes or row_bytes)
    data = buf[off:off + rows * row_bytes]
    if len(data) < rows * row_bytes:
        rows = len(data) // row_bytes
        data = data[:rows * row_bytes]

    out: dict[str, list | np.ndarray] = {}
    grid = np.frombuffer(data, np.uint8).reshape(rows, row_bytes)

    def add_field(nm, dtype_key, start0, nbytes):
        if fmt == "BINARY":
            dt = _BIN_TYPES.get((dtype_key, nbytes))
            if dt is None:
                out[nm] = [None] * rows          # opaque column
                return
            raw = np.ascontiguousarray(
                grid[:, start0:start0 + nbytes]).tobytes()
            out[nm] = np.frombuffer(raw, dt).astype(
                np.float64 if "f" in dt else np.int64)
        else:
            txt = [bytes(grid[r, start0:start0 + nbytes])
                   .decode("ascii", "replace").strip()
                   for r in range(rows)]
            if dtype_key in ("ASCII_REAL",):
                out[nm] = [float(t) if t else None for t in txt]
            elif dtype_key in ("ASCII_INTEGER",):
                out[nm] = [int(t) if t.lstrip("+-").isdigit() else None
                           for t in txt]
            else:
                out[nm] = txt

    for c in cols:
        nm = c.get("NAME", f"col{len(out)}")
        dt_key = c.get("DATA_TYPE", "CHARACTER")
        start0 = c.get("START_BYTE", 1) - 1
        items = c.get("ITEMS")
        if items:
            ib = c.get("ITEM_BYTES",
                       c.get("BYTES", items) // items)
            step = c.get("ITEM_OFFSET", ib)
            for i in range(items):
                add_field(f"{nm}_{i + 1}", dt_key,
                          start0 + i * step, ib)
        else:
            add_field(nm, dt_key, start0, c.get("BYTES", 1))

    cols_out = {"fid": pa.array(np.arange(rows, dtype=np.int64))}
    for k, v in out.items():
        key = k
        while key in cols_out:
            key += "_"
        cols_out[key] = pa.array(v)
    t = pa.table(cols_out)

    lon_col = next((k for k in out if k.upper() == "LONGITUDE"), None)
    lat_col = next((k for k in out if k.upper() == "LATITUDE"), None)
    if lon_col and lat_col:
        lons = np.asarray(out[lon_col], np.float64)
        lats = np.asarray(out[lat_col], np.float64)
        t = with_geometry(t, [W.point(float(x), float(y))
                              for x, y in zip(lons, lats)])
    t = t.replace_schema_metadata({b"pds_table_name": name.encode()})
    return t
