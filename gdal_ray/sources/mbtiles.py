"""MBTiles driver — read/write the SQLite tile-pyramid container.

Implements the public MBTiles 1.3 spec (mapbox/mbtiles-spec): a SQLite
database with a ``metadata`` name/value table and a ``tiles`` table
keyed (zoom_level, tile_column, tile_row) where tile_row uses the TMS
y-convention (row 0 at the BOTTOM), i.e. tms_row = 2^z - 1 - xyz_y.
Reference behavior: frmts/mbtiles/mbtilesdataset.cpp (identify/open
:~1500, y-flip at tile fetch, metadata read), written from the spec —
no code consulted.

Scale notes
-----------
MBTiles is BY DEFINITION a single SQLite file, so the sink is the one
place in this repo where output funnels through a single writer — the
format itself is the bottleneck, exactly as in the reference (its
MBTiles driver also serializes into one sqlite handle). The writer
therefore STREAMS ``iter_batches`` into the db (bounded driver memory,
never a whole-table pull) and is meant for bounded exports (a city extract, a
pyramid level); the 100 TB path is ``write_tile_tree`` / parquet.

The reader IS parallel: one read task per zoom level (each worker opens
its own read-only sqlite connection via ``ray.data.read_sql``), which
matches how sqlite likes to be shared — many readers, one writer.
"""
from __future__ import annotations

import sqlite3

import pyarrow as pa


def write_mbtiles(levels: dict, path: str, *, name: str = "gdal_ray",
                  fmt: str = "png", bounds=None, batch_size: int = 1024):
    """Write pyramid ``levels`` ({zoom: Dataset with z,x,y,png}) to an
    MBTiles file. XYZ y in the dataset is flipped to the spec's TMS row.

    Returns the per-zoom tile counts that were written.
    """
    con = sqlite3.connect(path)
    try:
        con.executescript(
            "PRAGMA journal_mode=OFF;\n"
            "PRAGMA synchronous=OFF;\n"
            "CREATE TABLE IF NOT EXISTS metadata (name text, value text);\n"
            "CREATE TABLE IF NOT EXISTS tiles (zoom_level integer, "
            "tile_column integer, tile_row integer, tile_data blob);\n"
            "CREATE UNIQUE INDEX IF NOT EXISTS tile_index ON tiles "
            "(zoom_level, tile_column, tile_row);\n"
            "DELETE FROM tiles; DELETE FROM metadata;\n")
        zooms = sorted(levels)
        counts: dict[int, int] = {}
        for z, ds in sorted(levels.items()):
            n = 0
            # stream blocks to the single writer — never materialize a
            # level as one Python list
            for b in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=batch_size):
                zs = b["z"].to_pylist()
                xs = b["x"].to_pylist()
                ys = b["y"].to_pylist()
                ps = b["png"].to_pylist()
                rows = [(int(zz), int(xx), (1 << int(zz)) - 1 - int(yy),
                         sqlite3.Binary(pp))
                        for zz, xx, yy, pp in zip(zs, xs, ys, ps)]
                con.executemany("INSERT OR REPLACE INTO tiles VALUES "
                                "(?,?,?,?)", rows)
                n += len(rows)
            counts[z] = n
        meta = {"name": name, "format": fmt, "version": "1.3",
                "type": "overlay", "minzoom": str(zooms[0]),
                "maxzoom": str(zooms[-1])}
        if bounds is not None:
            meta["bounds"] = ",".join(f"{v:.8f}" for v in bounds)
        con.executemany("INSERT INTO metadata VALUES (?,?)",
                        sorted(meta.items()))
        con.commit()
        return counts
    finally:
        con.close()


def read_mbtiles_metadata(path: str) -> dict:
    con = sqlite3.connect(path)
    try:
        return dict(con.execute("SELECT name, value FROM metadata"))
    finally:
        con.close()


def read_mbtiles(path: str, zooms=None):
    """MBTiles → Ray Dataset(z, x, y, png) in XYZ y-convention.

    One ``read_sql`` task per zoom level (parallel read-only sqlite
    connections); pass ``zooms`` to prune levels at the read.
    """
    import ray.data as rd

    if zooms is None:
        con = sqlite3.connect(path)
        try:
            zooms = [r[0] for r in con.execute(
                "SELECT DISTINCT zoom_level FROM tiles ORDER BY 1")]
        finally:
            con.close()

    def level(z: int):
        # flip TMS row back to XYZ y inside sqlite — workers receive
        # final coordinates, no post-map needed
        q = (f"SELECT zoom_level AS z, tile_column AS x, "
             f"(1 << zoom_level) - 1 - tile_row AS y, "
             f"tile_data AS png FROM tiles WHERE zoom_level = {int(z)}")
        return rd.read_sql(q, lambda: sqlite3.connect(path))

    parts = [level(z) for z in zooms]
    if not parts:
        return rd.from_arrow(pa.table({"z": pa.array([], pa.int64()),
                                       "x": pa.array([], pa.int64()),
                                       "y": pa.array([], pa.int64()),
                                       "png": pa.array([], pa.binary())}))
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
