"""Flagship pipeline: image corpus → XYZ tile pyramid (+ manifest).

Composition (all lazy; the streaming executor pipelines the stages):

  images ─ map_batches(with_georef)            metadata only
         ─ map_batches(warp_fragments_batch)   decode once, one pre-warped
                                               fragment per covering tile
         ─ map_batches(_with_bucket("cell"))   salted shuffle key
         ─ groupby(bucket).map_groups(RenderFragments)    ← the shuffle
         ─ [per zoom, descending] add_parent_cell → _with_bucket("parent")
           → groupby(bucket).map_groups(CombineChildren)
         ─ write_parquet(out/z=K/)             resumable, one directory per
                                               zoom: one file per level up to
                                               Ray's block-size target; no
                                               blob statistics

Both exchanges hand their callables Arrow groups (batch_format=
"pyarrow") and get TILE_SCHEMA tables back: no pandas round trip, and no
pandas schema metadata in the tile store's Parquet footers.

The overview cascade keeps gdal2tiles' per-zoom barrier
(gdal2tiles.py:4547): level z is materialized before level z-1 starts —
each level is small relative to the base and the barrier is inherent to
the 4→1 dependency.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.images import images_dataset
from ..stages.georef import with_georef
from ..stages.tiles import (CombineChildren, RenderFragments,
                            add_parent_cell, warp_fragments_batch)


N_RENDER_BUCKETS = 128
# Arrow's default row-group cap; any tile-store file below it is one
# row group
_ROW_GROUP_ROWS = 1 << 20


def _stats_columns(schema: pa.Schema) -> list[str]:
    """Columns that get Parquet min/max statistics: every non-binary
    one. A binary blob (the PNG tile) is never pruned on, and its min and
    max values would be stored twice per file, in the footer and in the
    data-page header."""
    return [f.name for f in schema
            if not (pa.types.is_binary(f.type)
                    or pa.types.is_large_binary(f.type))]


def _with_bucket(batch: pa.Table, key: str) -> pa.Table:
    """Salted shuffle key (shared recipe in stages/join.py): ~n_cpus×4
    buckets instead of one Ray group per tile — balanced reduce tasks,
    per-group overhead amortized."""
    from ..stages.join import salted_bucket
    return salted_bucket(batch, key, N_RENDER_BUCKETS)


def build_base_tiles(images, zoom: int | None = None, *,
                     resampling: str = "bilinear",
                     render_concurrency: int | None = None):
    """images Dataset (raw schema) → base-zoom tile Dataset.

    Scale shape (round-2 fix for the shuffle-volume risk): the MAP side
    decodes each image once and pre-warps one ≤256² RGBA-PNG fragment
    per covering tile (warp_fragments_batch), so the groupby exchange
    carries ≈1× the corpus in encoded fragments — NOT the source bytes
    duplicated per covering cell (up to cover-factor×, unbounded at low
    zooms). The reduce side only composites fragments (later-image-id
    wins), which also moves the warp compute to the perfectly-parallel
    map stage. Pixel output is checksum-identical to the previous
    warp-in-reduce path (tests/test_tiles.py parity test)."""
    ds = images.map_batches(with_georef, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: warp_fragments_batch(b, zoom, resampling=resampling),
        batch_format="pyarrow")
    ds = ds.map_batches(lambda b: _with_bucket(b, "cell"),
                        batch_format="pyarrow")
    renderer = RenderFragments()

    def render_tile_group(g):
        return renderer(g)

    return ds.groupby("bucket").map_groups(render_tile_group,
                                           batch_format="pyarrow")


def build_overviews(tiles, min_z: int, max_z: int):
    """Tile Dataset at max_z → list of (z, Dataset) down to min_z.

    Materializes each level (per-zoom barrier) and feeds it to the next.
    """
    levels = {max_z: tiles}
    cur = tiles
    combiner = CombineChildren()

    def combine_children_group(g):
        return combiner(g)

    for z in range(max_z, min_z, -1):
        cur = (cur.map_batches(add_parent_cell, batch_format="pyarrow")
               .map_batches(lambda b: _with_bucket(b, "parent"),
                            batch_format="pyarrow")
               .groupby("bucket")
               .map_groups(combine_children_group, batch_format="pyarrow")
               .materialize())
        levels[z - 1] = cur
    return levels


def tile_pyramid(n_images: int, zoom: int = 8, min_z: int = 5, *,
                 resampling: str = "bilinear"):
    """End-to-end synthetic run: n images → pyramid levels dict."""
    imgs = images_dataset(n_images)
    base = build_base_tiles(imgs, zoom, resampling=resampling).materialize()
    return build_overviews(base, min_z, zoom)


def write_pyramid(levels: dict, out_dir: str):
    """Write each level to out_dir/z=K/ (one directory per zoom; one
    Parquet file per level up to Ray's block-size target; min/max
    statistics on every column but the PNG blobs).

    Resumable (gdal raster tile --resume, gdalalg_raster_tile.cpp:288):
    a level whose directory is already recorded in manifest.json is
    skipped on restart; the manifest is written only AFTER the level's
    parquet lands, so a killed run re-does at most one level. Returns
    the manifest dict."""
    import json
    import os

    from ray.data import DataContext

    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "manifest.json")
    manifest = {}
    if os.path.exists(mpath):
        with open(mpath) as f:
            manifest = json.load(f)
    import time

    for z, ds in sorted(levels.items()):
        key = f"z={z}"
        path = os.path.join(out_dir, key)
        if key in manifest:
            continue
        t0 = time.time()
        drop = [c for c in ("parent", "bucket") if c in ds.schema().names]
        out = (ds.drop_columns(drop) if drop else ds).materialize()
        # count()/size_bytes() on the materialized handle are block
        # metadata, and the aggregates below read cached blocks instead
        # of re-running the render pipeline
        n = out.count()
        size = out.size_bytes()
        avg_row = max(1, size // max(n, 1))
        # One file per level, capped by Ray's own block-size target: a
        # small level (every overview) is exactly one file, a large base
        # level still writes files of about that size in parallel. Ray
        # keeps each group's table as its own chunk and write_dataset
        # writes a row group per chunk unless told to buffer, so
        # row_group_size keeps one row group per file. No statistics on
        # the PNG blobs: a min and a max tile would pad every file.
        target = DataContext.get_current().target_max_block_size or size
        out.write_parquet(path, min_rows_per_file=max(1, target // avg_row),
                          row_group_size=_ROW_GROUP_ROWS,
                          write_statistics=_stats_columns(
                              out.schema().base_schema))
        # per-partition LINEAGE + METRICS row (north rule): counts,
        # source fan-in, a checksum digest of the level's tile
        # checksums (order-free XOR — parallel-safe), wall time.
        digest = 0
        n_src_total = 0
        for b in out.iter_batches(batch_format="pyarrow", batch_size=4096):
            cs = (b["cs_r"].to_numpy().astype(np.int64)
                  ^ (b["cs_g"].to_numpy().astype(np.int64) << 16)
                  ^ (b["cs_b"].to_numpy().astype(np.int64) << 32))
            digest ^= int(np.bitwise_xor.reduce(cs))
            n_src_total += int(np.sum(b["n_src"].to_numpy()))
        manifest[key] = {"n_tiles": n,
                         "n_source_contributions": n_src_total,
                         "checksum_digest": digest,
                         "wall_sec": round(time.time() - t0, 3)}
        with open(mpath, "w") as f:
            json.dump(manifest, f)
    return manifest


def render_base_resumable(images, zoom: int, out_dir: str, *,
                          resampling: str = "bilinear",
                          resume: bool = True) -> dict:
    """Base-zoom render with TILE-GRANULAR resume (the reference's
    per-tile resume contract: gdal2tiles.py:1492-1494 checks each tile
    file, apps/gdalalg_raster_tile.cpp:663-667 skips existing tiles).

    Commit unit = one rendered block: each block writes
    ``out_dir/tiles/<name>.parquet`` and THEN its manifest twin
    ``out_dir/cells/<name>.parquet`` (cell ids only). A kill between
    the two leaves an orphan tiles file that no manifest names — it is
    ignored on read and its cells re-render on resume, so the pyramid
    is always exactly the manifest's cells, no duplicates.

    On restart the done-cell list (ids only — bounded by the tile count
    at this zoom, not the corpus) broadcasts via ``ray.put`` and prunes
    fragments on the MAP side: finished cells never enter the shuffle,
    so a resumed run pays only for the missing tiles.

    Returns {"n_rendered", "n_skipped", "dataset"} — the dataset reads
    every manifest-validated tiles file (the complete level so far)."""
    import hashlib
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    tiles_dir = os.path.join(out_dir, "tiles")
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(tiles_dir, exist_ok=True)
    os.makedirs(cells_dir, exist_ok=True)

    done = np.array([], dtype=np.int64)
    if resume:
        parts = []
        for f in sorted(os.listdir(cells_dir)):
            # trust a manifest only when its tiles twin survived
            if f.endswith(".parquet") \
                    and os.path.exists(os.path.join(tiles_dir, f)):
                parts.append(pq.read_table(
                    os.path.join(cells_dir, f), columns=["cell"])
                    ["cell"].to_numpy())
        if parts:
            # cell ids are uint64 hashes: keep the comparison in uint64
            # (mixing int64/uint64 in np.isin promotes to float64 and
            # loses precision above 2^53 — every cell would "match")
            done = np.unique(np.concatenate(parts)).astype(np.uint64)
    done_ref = ray.put(done)

    ds = images.map_batches(with_georef, batch_format="pyarrow")
    ds = ds.map_batches(
        lambda b: warp_fragments_batch(b, zoom, resampling=resampling),
        batch_format="pyarrow")
    if len(done):
        def drop_done(t: pa.Table) -> pa.Table:
            d = ray.get(done_ref)
            keep = ~np.isin(t["cell"].to_numpy().astype(np.uint64), d)
            return t.filter(pa.array(keep))
        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    ds = ds.map_batches(lambda b: _with_bucket(b, "cell"),
                        batch_format="pyarrow")
    renderer = RenderFragments()

    def render_tile_group(g):
        return renderer(g)

    rendered = ds.groupby("bucket").map_groups(render_tile_group,
                                               batch_format="pyarrow")

    def commit_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        cells = np.sort(t["cell"].to_numpy())
        name = hashlib.sha1(cells.tobytes()).hexdigest()[:16]
        drop = [c for c in ("parent", "bucket") if c in t.column_names]
        t = t.drop_columns(drop) if drop else t
        pq.write_table(t, os.path.join(tiles_dir, f"{name}.parquet"),
                       write_statistics=_stats_columns(t.schema))
        # manifest row lands strictly AFTER the tiles file: the commit
        pq.write_table(pa.table({"cell": pa.array(cells)}),
                       os.path.join(cells_dir, f"{name}.parquet"))
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    counts = rendered.map_batches(commit_block,
                                  batch_format="pyarrow").to_pandas()
    n_rendered = int(counts["n"].sum()) if len(counts) else 0

    valid = [f for f in sorted(os.listdir(cells_dir))
             if f.endswith(".parquet")
             and os.path.exists(os.path.join(tiles_dir, f))]
    full = rd.read_parquet([os.path.join(tiles_dir, f) for f in valid]) \
        if valid else None
    return {"n_rendered": n_rendered, "n_skipped": int(len(done)),
            "dataset": full}


def write_tile_tree(levels: dict, out_dir: str, ext: str = "png"):
    """Write tiles as a z/x/y.<ext> file tree (the gdal2tiles /
    `gdal raster tile` on-disk layout, apps/gdalalg_raster_tile.cpp:
    653-660, XYZ y-convention). Distributed: each block of tiles writes
    its own files via map_batches; resumable per level through the same
    manifest as write_pyramid.

    ext selects the tile codec (gdal2tiles --tiledriver PNG/WEBP/JPEG
    analog): tiles are rendered as PNG internally; other extensions
    transcode per block through the codec registry (WebP = this
    package's lossless VP8L, JPEG = T.81)."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "tree_manifest.json")
    manifest = {}
    if os.path.exists(mpath):
        with open(mpath) as f:
            manifest = json.load(f)

    def write_block(t: pa.Table) -> pa.Table:
        # pyarrow.fs keeps this multi-node portable: out_dir may be a
        # local path OR any fs URI (s3://, gs://, hdfs://) — workers on
        # different nodes write through the same filesystem handle
        # (VSI-filesystem analog, port/cpl_vsil_*.cpp)
        from pyarrow import fs as pafs
        try:
            fsys, root = pafs.FileSystem.from_uri(out_dir)
        except (ValueError, pafs.lib.ArrowInvalid):
            fsys, root = pafs.LocalFileSystem(), out_dir
        from ..codecs import decode as codec_decode, encode as codec_encode
        fmt = {"jpg": "jpeg", "tif": "gtiff"}.get(ext, ext)
        made: set[str] = set()          # one create_dir round-trip per
        for i in range(t.num_rows):     # z/x column, not per tile row
            z = int(t["z"][i].as_py())
            x = int(t["x"][i].as_py())
            y = int(t["y"][i].as_py())
            buf = t["png"][i].as_py()
            if fmt != "png":
                px = codec_decode(buf, "png")
                if fmt == "jpeg":           # JPEG has no alpha channel
                    px = px[:, :, :3]
                buf = codec_encode(px, fmt)
            d = f"{root}/{z}/{x}"
            if d not in made:
                fsys.create_dir(d, recursive=True)
                made.add(d)
            with fsys.open_output_stream(f"{d}/{y}.{ext}") as f:
                f.write(buf)
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    for z, ds in sorted(levels.items()):
        key = f"z={z}"
        if key in manifest:
            continue
        counts = ds.map_batches(write_block, batch_format="pyarrow") \
            .to_pandas()
        manifest[key] = {"n_tiles": int(counts["n"].sum())}
        with open(mpath, "w") as f:
            json.dump(manifest, f)
    return manifest
