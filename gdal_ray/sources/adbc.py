"""ADBC-style database reading: DuckDB files, Parquet-via-DuckDB and
SQLite databases through one interface.

The reference's ADBC driver (ogr/ogrsf_frmts/adbc/) drives
libduckdb / adbc_driver_sqlite through Arrow streams; this module is
the same shape over the in-process ``duckdb`` module (Arrow output,
zero-copy into Ray) with the driver's conventions: every user table
is a layer, a ``geometry`` BLOB column is WKB (GeoParquet/DuckDB
spatial convention), an optional ``sql`` parameter replaces the table
scan (the driver's SQL open option / ADBC: prefix syntax).
"""

from __future__ import annotations

import pyarrow as pa

__all__ = ["list_duckdb_tables", "read_duckdb"]


def list_duckdb_tables(path: str) -> list[str]:
    import duckdb
    con = duckdb.connect(path, read_only=True)
    try:
        return [r[0] for r in con.execute("SHOW TABLES").fetchall()]
    finally:
        con.close()


def read_duckdb(path: str, table: str | None = None,
                sql: str | None = None) -> pa.Table:
    """→ Arrow table.  Default layer = first table; ``sql`` runs an
    arbitrary query instead (the ADBC driver's SQL open option).
    ``path`` may also be a parquet file — the driver's
    duckdb-over-parquet path."""
    import duckdb
    if path.endswith(".parquet"):
        con = duckdb.connect()
        try:
            q = sql or f"SELECT * FROM read_parquet('{path}')"
            return con.execute(q).fetch_arrow_table()
        finally:
            con.close()
    con = duckdb.connect(path, read_only=True)
    try:
        if sql is None:
            if table is None:
                tables = [r[0] for r in
                          con.execute("SHOW TABLES").fetchall()]
                if not tables:
                    raise ValueError("DuckDB file has no tables")
                table = tables[0]
            sql = f'SELECT * FROM "{table}"'
        t = con.execute(sql).fetch_arrow_table()
        # normalize the spatial convention: a binary `geometry`
        # column holds DuckDB-spatial serialized geometry (or plain
        # WKB) → expose as standard WKB in a `wkb` column
        if "geometry" in t.column_names and "wkb" not in t.column_names:
            idx = t.column_names.index("geometry")
            ft = t.schema.field(idx).type
            if pa.types.is_binary(ft) or pa.types.is_large_binary(ft):
                vals = [_to_wkb(v.as_py()) for v in t.column(idx)]
                t = t.remove_column(idx)
                t = t.append_column("wkb", pa.array(vals, pa.binary()))
        return t
    finally:
        con.close()


def _to_wkb(blob: bytes | None) -> bytes | None:
    """DuckDB-spatial serialized geometry → WKB (passes real WKB
    through).  Serialized layout: u8 type / u8 flags / u16 / u32 pad,
    optional float32 bbox (flag 0x4... any flags beyond type), then
    the geometry body: u32 type, u32 counts, ring-count arrays padded
    to 8-byte alignment, float64 xy pairs."""
    import struct

    import numpy as np

    from ..core import wkb as W
    if blob is None:
        return None
    if blob[:1] in (b"\x00", b"\x01") and len(blob) >= 5:
        return blob                              # already WKB
    gtype, flags = blob[0], blob[1]
    off = 8
    if flags & 0x0F:                             # bbox present
        off += 16

    def parse(o):
        t, = struct.unpack_from("<I", blob, o)
        o += 4
        if t == 0:                               # point
            n, = struct.unpack_from("<I", blob, o)
            o += 4
            if n == 0:
                return None, o
            x, y = struct.unpack_from("<2d", blob, o)
            return W.point(x, y), o + 16
        if t == 1:                               # linestring
            n, = struct.unpack_from("<I", blob, o)
            o += 4
            if o % 8:
                o += 8 - o % 8
            pts = np.frombuffer(blob, "<f8", 2 * n, o).reshape(n, 2)
            return W.linestring(pts.copy()), o + 16 * n
        if t == 2:                               # polygon
            nr, = struct.unpack_from("<I", blob, o)
            o += 4
            counts = struct.unpack_from(f"<{nr}I", blob, o)
            o += 4 * nr
            if o % 8:
                o += 8 - o % 8
            rings = []
            for c in counts:
                pts = np.frombuffer(blob, "<f8", 2 * c, o).reshape(c, 2)
                rings.append(pts.copy())
                o += 16 * c
            if not rings:
                return None, o
            return W.polygon(rings[0], holes=rings[1:]), o
        if t in (3, 4, 5, 6):                    # multi* / collection
            n, = struct.unpack_from("<I", blob, o)
            o += 4
            parts = []
            for _ in range(n):
                g, o = parse(o)
                if g is not None:
                    parts.append(g)
            if not parts:
                return None, o
            if t == 3:
                return W.Geometry(W.MULTIPOINT, parts=parts), o
            if t == 4:
                return W.Geometry(W.MULTILINESTRING, parts=parts), o
            if t == 5:
                return W.multipolygon(parts), o
            return W.collection(parts), o
        raise ValueError(f"DuckDB geometry type {t}")

    g, _ = parse(off)
    return W.dumps(g) if g is not None else None
