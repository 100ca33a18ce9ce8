"""SQLite / SpatiaLite vector reader — stdlib sqlite3 over the two
geometry conventions the reference SQLite driver handles
(ogr/ogrsf_frmts/sqlite/): SpatiaLite geometry BLOBs (legacy v2/v3
text-typed and v4 int-typed ``geometry_columns``) and OGR-style plain
WKB blobs.

SpatiaLite BLOB layout (public format spec): 0x00, endian byte,
int32 srid, 4 float64 MBR, 0x7C, int32 geometry class, body, 0xFE.
The body is WKB-like but nested collection members carry a 0x69
marker + class int32 instead of a full WKB header; classes +1000000
are the compressed variants (first vertex float64, deltas float32).
Output is the engine's standard layer table (fid, attrs..., wkb,
minx..maxy) with geometry re-emitted as standard WKB.
"""

from __future__ import annotations

import os
import sqlite3
import struct

import numpy as np
import pyarrow as pa

from .vector import ENVELOPE, with_geometry

__all__ = ["read_sqlite", "read_sqlite_layers", "spatialite_to_wkb"]


def _body_to_wkb(buf: bytes, pos: int, cls: int, le: str,
                 out: bytearray):
    """Append one geometry body as standard WKB; return new pos."""
    compressed = cls >= 1000000
    base = cls % 1000000
    dims = base // 1000          # 0=XY 1=XYZ 2=XYM 3=XYZM
    gtype = base % 1000
    ncoord = 2 + (1 if dims in (1, 2) else 0) + (2 if dims == 3 else 0)
    wkb_type = gtype + (1000 if dims == 1 else 2000 if dims == 2
                        else 3000 if dims == 3 else 0)
    out.append(1 if le == "<" else 0)
    out += struct.pack(le + "I", wkb_type)

    def read_pts(n, pos):
        if not compressed or n == 0:
            pts = np.frombuffer(buf, le + "f8", n * ncoord, pos)
            return pts.reshape(n, ncoord), pos + 8 * n * ncoord
        # compressed: first and last vertices absolute float64,
        # intermediates float32 deltas from the previous vertex
        # (extra Z/M dims stay float64)
        pts = np.zeros((n, ncoord))
        for i in range(n):
            if i == 0 or i == n - 1:
                pts[i, :2] = np.frombuffer(buf, le + "f8", 2, pos)
                pos += 16
            else:
                dx, dy = struct.unpack_from(le + "2f", buf, pos)
                pos += 8
                pts[i, 0] = pts[i - 1, 0] + dx
                pts[i, 1] = pts[i - 1, 1] + dy
            if ncoord > 2:
                pts[i, 2:] = np.frombuffer(buf, le + "f8", ncoord - 2,
                                           pos)
                pos += 8 * (ncoord - 2)
        return pts, pos

    if gtype == 1:                                 # point
        pts = np.frombuffer(buf, le + "f8", ncoord, pos)
        pos += 8 * ncoord
        out += struct.pack(le + f"{ncoord}d", *pts)
    elif gtype == 2:                               # linestring
        n = struct.unpack_from(le + "i", buf, pos)[0]
        pos += 4
        out += struct.pack(le + "I", n)
        pts, pos = read_pts(n, pos)
        out += pts.astype(le + "f8").tobytes()
    elif gtype == 3:                               # polygon
        nr = struct.unpack_from(le + "i", buf, pos)[0]
        pos += 4
        out += struct.pack(le + "I", nr)
        for _ in range(nr):
            n = struct.unpack_from(le + "i", buf, pos)[0]
            pos += 4
            out += struct.pack(le + "I", n)
            pts, pos = read_pts(n, pos)
            out += pts.astype(le + "f8").tobytes()
    elif gtype in (4, 5, 6, 7):                    # multi / collection
        n = struct.unpack_from(le + "i", buf, pos)[0]
        pos += 4
        out += struct.pack(le + "I", n)
        for _ in range(n):
            if buf[pos] != 0x69:
                raise ValueError("SpatiaLite: missing entity marker")
            pos += 1
            sub_cls = struct.unpack_from(le + "i", buf, pos)[0]
            pos += 4
            pos = _body_to_wkb(buf, pos, sub_cls, le, out)
    else:
        raise ValueError(f"SpatiaLite: geometry class {cls}")
    return pos


def spatialite_to_wkb(blob: bytes) -> bytes | None:
    """SpatiaLite geometry BLOB -> standard WKB (None for NULL)."""
    if blob is None:
        return None
    if len(blob) < 45 or blob[0] != 0x00 or blob[-1] != 0xFE:
        # OGR-style plain WKB blob
        if blob[:1] in (b"\x00", b"\x01") and len(blob) >= 5:
            return bytes(blob)
        raise ValueError("not a SpatiaLite geometry blob")
    le = "<" if blob[1] == 1 else ">"
    if blob[38] != 0x7C:
        raise ValueError("SpatiaLite: missing MBR end marker")
    cls = struct.unpack_from(le + "i", blob, 39)[0]
    out = bytearray()
    _body_to_wkb(blob, 43, cls, le, out)
    return bytes(out)


def read_sqlite_layers(path: str) -> list[tuple[str, str]]:
    """[(table, geometry_column)] from geometry_columns (both the
    text-typed legacy and int-typed v4 schemas)."""
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        rows = con.execute(
            "SELECT f_table_name, f_geometry_column "
            "FROM geometry_columns").fetchall()
        return [(t, g) for t, g in rows]
    except sqlite3.Error:
        return []
    finally:
        con.close()


def read_sqlite(path: str, table: str | None = None) -> pa.Table:
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        layers = dict(read_sqlite_layers(path))
        if table is None:
            if not layers:
                raise ValueError("SQLite DB has no geometry_columns")
            table = next(iter(layers))
        geom_col = layers.get(table)
        cols = con.execute(f'PRAGMA table_info("{table}")').fetchall()
        names = [c[1] for c in cols]
        if geom_col is not None and geom_col not in names:
            # geometry_columns stores the name lowercased in v4
            for n in names:
                if n.lower() == geom_col.lower():
                    geom_col = n
                    break
        decls = {c[1]: (c[2] or "").upper() for c in cols}
        attr_names = [n for n in names if n != geom_col]
        sel = ", ".join(f'"{n}"' for n in names)
        rows = con.execute(f'SELECT {sel} FROM "{table}"').fetchall()
    finally:
        con.close()

    data = {n: [] for n in attr_names}
    wkbs = []
    fids = []
    gi = names.index(geom_col) if geom_col in names else None
    fid_col = None
    for n in attr_names:
        if n.upper() in ("OGC_FID", "FID", "ROWID", "PK_UID"):
            fid_col = n
            break
    for i, r in enumerate(rows):
        for j, n in enumerate(names):
            if n == geom_col:
                continue
            data[n].append(r[j])
        blob = r[gi] if gi is not None else None
        wkbs.append(spatialite_to_wkb(blob) if blob is not None
                    else None)
        fids.append(r[names.index(fid_col)] if fid_col else i)

    def patype(decl: str):
        if "INT" in decl:
            return pa.int64()
        if any(k in decl for k in ("FLOAT", "REAL", "DOUB")):
            return pa.float64()
        if "BLOB" in decl:
            return pa.binary()
        return pa.string()

    t = pa.table({"fid": pa.array(
        [int(f) if f is not None else 0 for f in fids], pa.int64())})
    for n in attr_names:
        if n == fid_col:
            continue
        t = t.append_column(n, pa.array(data[n], patype(decls[n])))
    return with_geometry(t, wkbs)


def write_sqlite(table: pa.Table, path: str, *, layer: str = "layer",
                 geom_type: str = "GEOMETRY", srid: int = 0):
    """OGR-style SQLite layer: plain WKB geometry blobs + the legacy
    text-typed geometry_columns registration the reference's SQLite
    driver writes without SpatiaLite (ogr/ogrsf_frmts/sqlite)."""
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.execute(
            "CREATE TABLE geometry_columns (f_table_name TEXT NOT NULL,"
            "f_geometry_column TEXT NOT NULL,type TEXT NOT NULL,"
            "coord_dimension TEXT NOT NULL,srid INTEGER NOT NULL,"
            "spatial_index_enabled INTEGER NOT NULL)")
        con.execute(
            "INSERT INTO geometry_columns VALUES (?,?,?,?,?,0)",
            (layer, "GEOMETRY", geom_type, "XY", srid))
        attr_cols = [c for c in table.column_names
                     if c not in ("wkb", *ENVELOPE)]
        decls = []
        for c in attr_cols:
            t = table.schema.field(c).type
            if pa.types.is_integer(t):
                decls.append(f'"{c}" INTEGER')
            elif pa.types.is_floating(t):
                decls.append(f'"{c}" FLOAT')
            else:
                decls.append(f'"{c}" VARCHAR')
        con.execute(f'CREATE TABLE "{layer}" ({", ".join(decls)}, '
                    f"GEOMETRY {geom_type})")
        cols = ", ".join(f'"{c}"' for c in attr_cols) + ", GEOMETRY"
        ph = ", ".join("?" * (len(attr_cols) + 1))
        rows = []
        wkbs = table["wkb"].to_pylist() if "wkb" in table.column_names \
            else [None] * table.num_rows
        data = {c: table[c].to_pylist() for c in attr_cols}
        for i in range(table.num_rows):
            rows.append(tuple(data[c][i] for c in attr_cols)
                        + (wkbs[i],))
        con.executemany(
            f'INSERT INTO "{layer}" ({cols}) VALUES ({ph})', rows)
        con.commit()
    finally:
        con.close()
    return path
