"""GeoPackage feature reader — stdlib sqlite3, pure Python.

Independently implements the published OGC GeoPackage 1.x encoding
(reference behavior: ogr/ogrsf_frmts/gpkg/): feature tables discovered
via gpkg_contents/gpkg_geometry_columns, geometry columns carry a GPB
(GeoPackage Binary) header — magic 'GP', version, flags (envelope
size, endianness, empty bit) — followed by ISO WKB, which the engine's
codec parses directly."""

from __future__ import annotations

import sqlite3
import struct

import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, attribute_names, with_geometry

_ENV_SIZE = {0: 0, 1: 32, 2: 48, 3: 48, 4: 64}


def _parse_gpb(blob: bytes):
    """GPB blob → Geometry | None (empty geometry bit honored)."""
    if blob is None or len(blob) < 8 or blob[:2] != b"GP":
        raise ValueError("not a GeoPackage binary geometry")
    flags = blob[3]
    # bit 5 = extended-type flag, bit 4 = empty flag (spec §2.1.3 /
    # ogr/ogrsf_frmts/gpkg/ogrgeopackageutility.cpp:368 byFlags & 0x10)
    if flags & 0b00100000:
        raise ValueError("extended (non-standard) GPB geometry type")
    if flags & 0b00010000:           # empty-geometry flag
        return None
    env_code = (flags >> 1) & 0b111
    if env_code not in _ENV_SIZE:
        raise ValueError(f"invalid GPB envelope code {env_code}")
    off = 8 + _ENV_SIZE[env_code]
    return W.loads(blob[off:])


def list_feature_tables(path: str) -> list[str]:
    con = sqlite3.connect(path)
    try:
        rows = con.execute(
            "SELECT table_name FROM gpkg_contents "
            "WHERE data_type = 'features'").fetchall()
        return [r[0] for r in rows]
    finally:
        con.close()


def read_gpkg(path: str, table: str | None = None) -> pa.Table:
    """GeoPackage feature table → Arrow table (fid, wkb, envelope cols,
    attributes)."""
    con = sqlite3.connect(path)
    try:
        if table is None:
            tables = [r[0] for r in con.execute(
                "SELECT table_name FROM gpkg_contents "
                "WHERE data_type = 'features'")]
            if not tables:
                raise ValueError(f"no feature tables in {path}")
            table = tables[0]
        geom_col = None
        row = con.execute(
            "SELECT column_name FROM gpkg_geometry_columns "
            "WHERE table_name = ?", (table,)).fetchone()
        if row:
            geom_col = row[0]
        # the INTEGER PRIMARY KEY is the feature id, as in OGR's driver
        pk = [(r[1], r[2]) for r in con.execute(
            f'PRAGMA table_info("{table}")') if r[5]]
        fid_col = pk[0][0] if len(pk) == 1 \
            and pk[0][1].upper() == "INTEGER" else None
        cur = con.execute(f'SELECT * FROM "{table}"')
        names = [d[0] for d in cur.description]
        fields = [n for n in names if n not in (geom_col, fid_col)]
        keys = dict(zip(fields, attribute_names(fields)))
        fids, geoms = [], []
        attrs: dict[str, list] = {k: [] for k in keys.values()}
        for rec in cur:
            rowd = dict(zip(names, rec))
            fids.append(len(fids) if fid_col is None else rowd[fid_col])
            blob = rowd.get(geom_col)
            geoms.append(None if blob is None else _parse_gpb(blob))
            for n, k in keys.items():
                attrs[k].append(rowd[n])
        t = with_geometry(pa.table({"fid": pa.array(fids, pa.int64())}), geoms)
        for k, vals in attrs.items():
            t = t.append_column(k, pa.array(vals))
        return t
    finally:
        con.close()


def write_gpkg(table: pa.Table, path: str, *, layer: str = "layer",
               srs_id: int = 3857) -> None:
    """Arrow table with a WKB column → minimal spec-compliant GeoPackage
    (gpkg_spatial_ref_sys / gpkg_contents / gpkg_geometry_columns +
    feature table with GPB-wrapped geometry)."""
    import os
    if os.path.exists(path):
        os.remove(path)
    con = sqlite3.connect(path)
    try:
        con.execute("PRAGMA application_id = 0x47504B47")   # 'GPKG'
        con.execute("PRAGMA user_version = 10300")          # 1.3
        con.execute("""CREATE TABLE gpkg_spatial_ref_sys (
            srs_name TEXT NOT NULL, srs_id INTEGER PRIMARY KEY,
            organization TEXT NOT NULL, organization_coordsys_id INTEGER,
            definition TEXT NOT NULL, description TEXT)""")
        for sid, nm in ((-1, "Undefined cartesian"), (0, "Undefined geo"),
                        (srs_id, f"EPSG:{srs_id}")):
            con.execute("INSERT INTO gpkg_spatial_ref_sys VALUES "
                        "(?, ?, 'EPSG', ?, 'undefined', NULL)",
                        (nm, sid, max(sid, 0)))
        con.execute("""CREATE TABLE gpkg_contents (
            table_name TEXT PRIMARY KEY, data_type TEXT NOT NULL,
            identifier TEXT UNIQUE, description TEXT DEFAULT '',
            last_change DATETIME, min_x DOUBLE, min_y DOUBLE,
            max_x DOUBLE, max_y DOUBLE, srs_id INTEGER)""")
        con.execute("""CREATE TABLE gpkg_geometry_columns (
            table_name TEXT NOT NULL, column_name TEXT NOT NULL,
            geometry_type_name TEXT NOT NULL, srs_id INTEGER NOT NULL,
            z TINYINT NOT NULL, m TINYINT NOT NULL,
            CONSTRAINT pk_geom_cols PRIMARY KEY (table_name, column_name))""")
        skip = {"wkb", "fid", *ENVELOPE}
        attrs = [c for c in table.column_names if c not in skip]

        def sql_type(col):
            import pyarrow as _pa
            t = table.schema.field(col).type
            if _pa.types.is_integer(t):
                return "INTEGER"
            if _pa.types.is_floating(t):
                return "REAL"
            return "TEXT"

        cols_sql = ", ".join(f'"{c}" {sql_type(c)}' for c in attrs)
        con.execute(f'CREATE TABLE "{layer}" (fid INTEGER PRIMARY KEY, '
                    f'geom BLOB{", " + cols_sql if cols_sql else ""})')
        con.execute("INSERT INTO gpkg_contents VALUES "
                    "(?, 'features', ?, '', NULL, NULL, NULL, NULL, NULL, ?)",
                    (layer, layer, srs_id))
        con.execute("INSERT INTO gpkg_geometry_columns VALUES "
                    "(?, 'geom', 'GEOMETRY', ?, 0, 0)", (layer, srs_id))
        fids = table["fid"].to_pylist() if "fid" in table.column_names \
            else list(range(table.num_rows))
        wkbs = table["wkb"].to_pylist()
        hdr = b"GP\x00" + bytes([0b00000001]) + struct.pack("<i", srs_id)
        ph = ", ".join(["?"] * (2 + len(attrs)))
        for i in range(table.num_rows):
            blob = (hdr + wkbs[i]) if wkbs[i] is not None else None
            vals = [fids[i], blob] + [table[c][i].as_py() for c in attrs]
            con.execute(f'INSERT INTO "{layer}" VALUES ({ph})', vals)
        con.commit()
    finally:
        con.close()


# ---------------------------------------------------------------------------
# GeoPackage raster tiles (frmts/gpkg tile-matrix analog)
# ---------------------------------------------------------------------------
# Spec: OGC GeoPackage §2.2 — gpkg_tile_matrix_set fixes the grid
# extent per table, gpkg_tile_matrix fixes matrix/tile dimensions and
# pixel sizes per zoom, and the tile table stores (zoom_level,
# tile_column, tile_row, tile_data) with row 0 at the TOP (unlike
# MBTiles' TMS rows). Tile blobs are PNG/JPEG/WebP, decoded by the
# engine's own codecs; the '2d-gridded-coverage' extension stores
# elevation as 16-bit PNG with coverage-level scale/offset.
# Reference behavior: frmts/gpkg/gdalgeopackagerasterband.cpp.
# Goldens (tests/test_gpkg_raster.py): byte.gpkg / the old-elevation
# uint16 fixture -> checksum 4672 each (autotest gpkg.py).

def list_tile_tables(path: str) -> list[str]:
    con = sqlite3.connect(path)
    try:
        return [r[0] for r in con.execute(
            "SELECT table_name FROM gpkg_contents WHERE data_type IN "
            "('tiles', '2d-gridded-coverage')")]
    finally:
        con.close()


def _decode_tile(blob: bytes):
    """Tile blob → ndarray via magic sniff (PNG/JPEG/WebP)."""
    import numpy as np
    if blob[:8] == b"\x89PNG\r\n\x1a\n":
        from ..codecs.png import decode
        return np.asarray(decode(bytes(blob)))
    if blob[:2] == b"\xff\xd8":
        from ..codecs.jpeg import decode_jpeg
        return np.asarray(decode_jpeg(bytes(blob)))
    if blob[:4] == b"RIFF" and blob[8:12] == b"WEBP":
        from ..codecs.webp import decode_webp
        return np.asarray(decode_webp(bytes(blob)))
    raise ValueError("unsupported GPKG tile format "
                     f"(magic {bytes(blob[:4])!r})")


def read_gpkg_raster(path: str, table: str | None = None,
                     zoom: int | None = None):
    """GeoPackage tile pyramid → (pixels, geotransform, nodata, meta)
    over the gpkg_contents extent at the chosen zoom (default: max)."""
    import numpy as np
    con = sqlite3.connect(path)
    try:
        tables = list_tile_tables(path)
        if not tables:
            raise ValueError(f"{path} has no tile pyramids")
        if table is None:
            table = tables[0]
        elif table not in tables:
            raise ValueError(f"tile table {table!r} not in {tables}")
        c = con.execute(
            "SELECT min_x, min_y, max_x, max_y, srs_id, data_type "
            "FROM gpkg_contents WHERE table_name = ?",
            (table,)).fetchone()
        tms = con.execute(
            "SELECT min_x, min_y, max_x, max_y FROM gpkg_tile_matrix_set "
            "WHERE table_name = ?", (table,)).fetchone()
        if zoom is None:
            zoom = con.execute(
                "SELECT MAX(zoom_level) FROM gpkg_tile_matrix "
                "WHERE table_name = ?", (table,)).fetchone()[0]
        tm = con.execute(
            "SELECT matrix_width, matrix_height, tile_width, tile_height,"
            " pixel_x_size, pixel_y_size FROM gpkg_tile_matrix "
            "WHERE table_name = ? AND zoom_level = ?",
            (table, zoom)).fetchone()
        if tm is None:
            raise ValueError(f"zoom {zoom} not in {table}'s tile matrix")
        mw, mh, tw, th, pxs, pys = tm
        # content window relative to the tile-matrix-set origin
        # (top-left = (tms.min_x, tms.max_y))
        col0 = int(round((c[0] - tms[0]) / pxs))
        row0 = int(round((tms[3] - c[3]) / pys))
        width = int(round((c[2] - c[0]) / pxs))
        height = int(round((c[3] - c[1]) / pys))
        scale, offset = 1.0, 0.0
        grid_float = False
        if c[5] == "2d-gridded-coverage":
            anc = con.execute(
                "SELECT scale, offset, datatype FROM "
                "gpkg_2d_gridded_coverage_ancillary "
                "WHERE tile_matrix_set_name = ?", (table,)).fetchone()
            if anc is not None:
                scale, offset = float(anc[0]), float(anc[1])
                grid_float = (anc[2] == "float") or scale != 1.0 \
                    or offset != 0.0
        out = None
        for tc, tr, blob in con.execute(
                f'SELECT tile_column, tile_row, tile_data FROM "{table}" '
                "WHERE zoom_level = ?", (zoom,)):
            px = _decode_tile(blob)
            if px.ndim == 3 and px.shape[2] == 1:
                px = px[:, :, 0]
            if grid_float:
                px = px.astype(np.float64) * scale + offset
            if out is None:
                nb = 1 if px.ndim == 2 else px.shape[2]
                shape = (height, width) if nb == 1 \
                    else (height, width, nb)
                out = np.zeros(shape, px.dtype)
            y0 = tr * th - row0
            x0 = tc * tw - col0
            sy, sx = max(0, -y0), max(0, -x0)
            ey = min(px.shape[0], height - y0)
            ex = min(px.shape[1], width - x0)
            if ey <= sy or ex <= sx:
                continue
            out[y0 + sy:y0 + ey, x0 + sx:x0 + ex] = px[sy:ey, sx:ex]
        if out is None:
            out = np.zeros((height, width), np.uint8)
        gt = (float(c[0]), float(pxs), 0.0, float(c[3]), 0.0,
              float(-pys))
        meta = {"table": table, "zoom": int(zoom),
                "srs_id": int(c[4]), "data_type": c[5]}
        srs = con.execute(
            "SELECT definition FROM gpkg_spatial_ref_sys "
            "WHERE srs_id = ?", (c[4],)).fetchone()
        if srs and srs[0] not in (None, "undefined"):
            meta["crs"] = srs[0]
        return out, gt, None, meta
    finally:
        con.close()


def read_gpkg_tiles(path: str, table: str | None = None, zooms=None):
    """GeoPackage tile table → Ray Dataset(z, x, y, data) — one
    read_sql task per zoom (parallel read-only sqlite connections),
    same shape as read_mbtiles. Rows keep GPKG's top-down convention
    (== XYZ y for web-mercator pyramids)."""
    import ray.data as rd

    if table is None:
        tables = list_tile_tables(path)
        if not tables:
            raise ValueError(f"{path} has no tile pyramids")
        table = tables[0]
    if zooms is None:
        con = sqlite3.connect(path)
        try:
            zooms = [r[0] for r in con.execute(
                f'SELECT DISTINCT zoom_level FROM "{table}" ORDER BY 1')]
        finally:
            con.close()

    def level(z: int):
        q = (f'SELECT zoom_level AS z, tile_column AS x, tile_row AS y, '
             f'tile_data AS data FROM "{table}" '
             f"WHERE zoom_level = {int(z)}")
        return rd.read_sql(q, lambda: sqlite3.connect(path))

    parts = [level(z) for z in zooms]
    if not parts:
        return rd.from_arrow(pa.table({"z": pa.array([], pa.int64()),
                                       "x": pa.array([], pa.int64()),
                                       "y": pa.array([], pa.int64()),
                                       "data": pa.array([], pa.binary())}))
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def write_gpkg_tiles(levels: dict, path: str, *, table: str = "tiles",
                     srs_id: int = 3857, bounds=None,
                     tile_size: int = 256, fmt: str = "png",
                     batch_size: int = 1024) -> dict:
    """Write a tile pyramid ({zoom: Dataset(z, x, y, png)}, XYZ global
    web-mercator grid) into a GeoPackage. Like the MBTiles sink this
    funnels into one SQLite writer — bounded exports; the 100 TB path
    stays write_tile_tree/parquet. Streams iter_batches; XYZ y equals
    GPKG tile_row directly (both count from the top)."""
    import os
    if os.path.exists(path):
        os.remove(path)
    # web-mercator world extent (the XYZ grid definition)
    W = 20037508.342789244
    con = sqlite3.connect(path)
    try:
        con.executescript(
            "PRAGMA application_id = 0x47504B47;\n"
            "PRAGMA user_version = 10300;\n"
            "CREATE TABLE gpkg_spatial_ref_sys (srs_name TEXT NOT NULL,"
            " srs_id INTEGER PRIMARY KEY, organization TEXT NOT NULL,"
            " organization_coordsys_id INTEGER, definition TEXT NOT NULL,"
            " description TEXT);\n"
            "CREATE TABLE gpkg_contents (table_name TEXT PRIMARY KEY,"
            " data_type TEXT NOT NULL, identifier TEXT UNIQUE,"
            " description TEXT DEFAULT '', last_change DATETIME,"
            " min_x DOUBLE, min_y DOUBLE, max_x DOUBLE, max_y DOUBLE,"
            " srs_id INTEGER);\n"
            "CREATE TABLE gpkg_tile_matrix_set (table_name TEXT PRIMARY"
            " KEY, srs_id INTEGER NOT NULL, min_x DOUBLE NOT NULL,"
            " min_y DOUBLE NOT NULL, max_x DOUBLE NOT NULL,"
            " max_y DOUBLE NOT NULL);\n"
            "CREATE TABLE gpkg_tile_matrix (table_name TEXT NOT NULL,"
            " zoom_level INTEGER NOT NULL, matrix_width INTEGER NOT"
            " NULL, matrix_height INTEGER NOT NULL, tile_width INTEGER"
            " NOT NULL, tile_height INTEGER NOT NULL, pixel_x_size"
            " DOUBLE NOT NULL, pixel_y_size DOUBLE NOT NULL,"
            " CONSTRAINT pk_ttm PRIMARY KEY (table_name, zoom_level));\n")
        for sid, nm in ((-1, "Undefined cartesian"),
                        (0, "Undefined geographic"),
                        (srs_id, f"EPSG:{srs_id}")):
            con.execute("INSERT INTO gpkg_spatial_ref_sys VALUES "
                        "(?, ?, 'EPSG', ?, 'undefined', NULL)",
                        (nm, sid, max(sid, 0)))
        con.execute(
            f'CREATE TABLE "{table}" (id INTEGER PRIMARY KEY'
            " AUTOINCREMENT, zoom_level INTEGER NOT NULL, tile_column"
            " INTEGER NOT NULL, tile_row INTEGER NOT NULL, tile_data"
            " BLOB NOT NULL, UNIQUE (zoom_level, tile_column,"
            " tile_row))")
        bx = bounds or (-W, -W, W, W)
        con.execute("INSERT INTO gpkg_contents VALUES (?, 'tiles', ?,"
                    " '', NULL, ?, ?, ?, ?, ?)",
                    (table, table, bx[0], bx[1], bx[2], bx[3], srs_id))
        con.execute("INSERT INTO gpkg_tile_matrix_set VALUES "
                    "(?, ?, ?, ?, ?, ?)", (table, srs_id, -W, -W, W, W))
        counts: dict[int, int] = {}
        for z, ds in sorted(levels.items()):
            npx = 2.0 * W / ((1 << z) * tile_size)
            con.execute("INSERT INTO gpkg_tile_matrix VALUES "
                        "(?, ?, ?, ?, ?, ?, ?, ?)",
                        (table, z, 1 << z, 1 << z, tile_size,
                         tile_size, npx, npx))
            n = 0
            for b in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=batch_size):
                rows = [(int(zz), int(xx), int(yy), sqlite3.Binary(pp))
                        for zz, xx, yy, pp in zip(
                            b["z"].to_pylist(), b["x"].to_pylist(),
                            b["y"].to_pylist(), b["png"].to_pylist())]
                con.executemany(
                    f'INSERT OR REPLACE INTO "{table}" (zoom_level,'
                    " tile_column, tile_row, tile_data) VALUES"
                    " (?,?,?,?)", rows)
                n += len(rows)
            counts[z] = n
        con.commit()
        return counts
    finally:
        con.close()
