"""CSV vector driver — schema-on-read with WKT geometry or x/y point
columns (reference behavior: ogr/ogrsf_frmts/csv/ with GEOM_POSSIBLE_
NAMES / X_POSSIBLE_NAMES semantics)."""

from __future__ import annotations

import csv
import io

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from ..core import wkt as WT
from .vector import ENVELOPE, attribute_names, with_geometry

_GEOM_NAMES = ("wkt", "geometry", "geom", "the_geom")
_X_NAMES = ("x", "lon", "longitude", "easting")
_Y_NAMES = ("y", "lat", "latitude", "northing")


def _infer(v: str):
    if v == "":
        return None
    try:
        return int(v)
    except ValueError:
        pass
    try:
        return float(v)
    except ValueError:
        return v


def read_csv(path_or_text: str, *, geom_col: str | None = None,
             x_col: str | None = None, y_col: str | None = None) -> pa.Table:
    """CSV file path (or literal text containing a newline) → Arrow
    table with fid, wkb, envelope cols + typed attribute columns.
    Geometry comes from a WKT column (auto-detected name) or x/y
    columns; attribute types are inferred per column (int → float →
    string, schema-on-read)."""
    if "\n" in path_or_text:
        f = io.StringIO(path_or_text)
    else:
        f = open(path_or_text, newline="", encoding="utf-8-sig")
    with f:
        rdr = csv.reader(f)
        try:
            header = next(rdr)
        except StopIteration:
            raise ValueError("empty CSV")
        if not any(h.strip() for h in header):
            raise ValueError("empty CSV header")
        lower = [h.strip().lower() for h in header]
        if geom_col is None:
            for cand in _GEOM_NAMES:
                if cand in lower:
                    geom_col = header[lower.index(cand)]
                    break
        if geom_col is None and x_col is None:
            for cx in _X_NAMES:
                if cx in lower:
                    x_col = header[lower.index(cx)]
                    break
            for cy in _Y_NAMES:
                if cy in lower:
                    y_col = header[lower.index(cy)]
                    break
        gi = header.index(geom_col) if geom_col else None
        xi = header.index(x_col) if x_col else None
        yi = header.index(y_col) if y_col else None
        attr_idx = [k for k in range(len(header)) if k != gi]
        keys = dict(zip(attr_idx, attribute_names(
            header[k].strip() for k in attr_idx)))
        attrs: dict[str, list] = {nm: [] for nm in keys.values()}
        geoms = []
        for row in rdr:
            if not row:
                continue
            g = None
            if gi is not None and gi < len(row) and row[gi].strip():
                try:
                    g = WT.loads_wkt(row[gi])
                except ValueError:
                    g = None             # unparsable WKT → null geom
            elif xi is not None and yi is not None:
                try:
                    g = W.point(float(row[xi]), float(row[yi]))
                except (ValueError, IndexError):
                    g = None
            geoms.append(g)
            for k in attr_idx:
                attrs[keys[k]].append(_infer(row[k].strip())
                                      if k < len(row) else None)
        t = with_geometry(pa.table({"fid": np.arange(len(geoms))}), geoms)
        # OGR-style per-column type promotion: int -> real -> string
        for nm, vals in attrs.items():
            kinds = {type(v) for v in vals if v is not None}
            if str in kinds and len(kinds) > 1:
                vals = [None if v is None else str(v) for v in vals]
            elif kinds == {int, float}:
                vals = [None if v is None else float(v) for v in vals]
            t = t.append_column(nm, pa.array(vals))
        return t


def write_csv(table: pa.Table, path: str) -> None:
    """Arrow table with a WKB column → CSV with a WKT geometry column."""
    skip = {"wkb", *ENVELOPE}
    attr = [c for c in table.column_names if c not in skip]
    with open(path, "w", newline="") as f:
        wtr = csv.writer(f)
        wtr.writerow(attr + ["WKT"])
        wkbs = table["wkb"].to_pylist() if "wkb" in table.column_names \
            else [None] * table.num_rows
        for i in range(table.num_rows):
            row = [table[c][i].as_py() for c in attr]
            g = wkbs[i]
            row.append(WT.dumps_wkt(W.loads(g)) if g is not None else "")
            wtr.writerow(row)
