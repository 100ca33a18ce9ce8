"""Tile pipeline conformance: cover assignment vs float oracle, aligned
render pixel-exactness, overview cascade math, caption preservation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gdal_ray.codecs import decode, encode, psnr
from gdal_ray.core import geotransform as gtr
from gdal_ray.core import mercator as merc
from gdal_ray.core.checksum import checksum_multiband
from gdal_ray.sources.images import (caption_of, images_dataset, make_image_batch,
                                     render_pixels)
from gdal_ray.stages.georef import with_georef
from gdal_ray.stages.tiles import (CombineChildren, RenderTile, cover_batch,
                                   tile_geotransform)


def oracle_cover(minx, miny, maxx, maxy, z):
    """Independent brute-force tile cover: scan the whole tile range that
    could touch the envelope and keep tiles whose bounds overlap."""
    n = 2**z
    out = set()
    for tx in range(n):
        b = merc.tile_bounds(tx, 0, z)
        if b[2] <= minx or b[0] >= maxx:
            continue
        for ty in range(n):
            bb = merc.tile_bounds(tx, ty, z)
            if bb[3] <= miny or bb[1] >= maxy:
                continue
            out.add((tx, int(merc.tms_to_xyz(ty, z))))
    return out


class TestCover:
    def test_cover_vs_oracle(self, ray_session):
        ds = images_dataset(40).map_batches(with_georef, batch_format="pyarrow")
        tbl = pa.concat_tables(
            [b for b in ds.map_batches(lambda b: cover_batch(b, 6),
                                       batch_format="pyarrow").iter_batches(
                batch_format="pyarrow")])
        geo_tbl = pa.concat_tables([b for b in ds.iter_batches(batch_format="pyarrow")])
        env = {r["image_id"]: (r["minx"], r["miny"], r["maxx"], r["maxy"])
               for r in geo_tbl.to_pylist()}
        got = {}
        for r in tbl.to_pylist():
            got.setdefault(r["image_id"], set()).add((r["x"], r["y"]))
        for iid, e in env.items():
            assert got.get(iid, set()) == oracle_cover(*e, 6), iid


class TestRender:
    def test_aligned_tile_pixel_exact(self):
        """An image exactly aligned to one z10 tile must render into that
        tile byte-for-byte (nearest)."""
        z, tx, ty_xyz = 10, 300, 400
        dst_gt = tile_geotransform(z, tx, ty_xyz)
        img = (np.arange(256 * 256 * 3) % 256).astype(np.uint8).reshape(256, 256, 3)
        group = pd.DataFrame({
            "cell": [np.uint64(merc.cell_id(z, tx, ty_xyz))],
            "z": [z], "x": [tx], "y": [ty_xyz],
            "image_id": ["img00000000"],
            "bytes": [encode(img, "png")], "fmt": ["png"],
            "gt0": [dst_gt[0]], "gt1": [dst_gt[1]], "gt2": [0.0],
            "gt3": [dst_gt[3]], "gt4": [0.0], "gt5": [dst_gt[5]],
            "img_w": [256], "img_h": [256],
        })
        out = RenderTile(resampling="near")(group)
        assert out.num_rows == 1
        row = out.to_pylist()[0]
        rgba = decode(row["png"], "png")
        assert np.array_equal(rgba[:, :, :3], img)
        assert (rgba[:, :, 3] == 255).all()
        assert [row["cs_r"], row["cs_g"], row["cs_b"]] \
            == checksum_multiband(img)

    def test_compositing_order(self):
        """Later image_id wins on overlap."""
        z, tx, ty_xyz = 10, 300, 400
        dst_gt = tile_geotransform(z, tx, ty_xyz)
        a = np.full((256, 256, 3), 10, dtype=np.uint8)
        b = np.full((256, 256, 3), 200, dtype=np.uint8)
        rows = []
        for iid, img in (("img00000001", a), ("img00000002", b)):
            rows.append({
                "cell": np.uint64(merc.cell_id(z, tx, ty_xyz)),
                "z": z, "x": tx, "y": ty_xyz, "image_id": iid,
                "bytes": encode(img, "png"), "fmt": "png",
                "gt0": dst_gt[0], "gt1": dst_gt[1], "gt2": 0.0,
                "gt3": dst_gt[3], "gt4": 0.0, "gt5": dst_gt[5],
                "img_w": 256, "img_h": 256,
            })
        out = RenderTile(resampling="near")(pd.DataFrame(rows[::-1]))
        rgba = decode(out["png"][0].as_py(), "png")
        assert (rgba[:, :, 0] == 200).all()

    def test_blank_tile_skipped(self):
        z, tx, ty_xyz = 10, 300, 400
        far_gt = (0.0, 1.0, 0.0, 0.0, 0.0, -1.0)  # nowhere near the tile
        group = pd.DataFrame({
            "cell": [np.uint64(merc.cell_id(z, tx, ty_xyz))],
            "z": [z], "x": [tx], "y": [ty_xyz], "image_id": ["img00000000"],
            "bytes": [encode(np.zeros((8, 8, 3), np.uint8), "png")], "fmt": ["png"],
            "gt0": [far_gt[0]], "gt1": [far_gt[1]], "gt2": [0.0],
            "gt3": [far_gt[3]], "gt4": [0.0], "gt5": [far_gt[5]],
            "img_w": [8], "img_h": [8],
        })
        out = RenderTile()(group)
        assert out.num_rows == 0


class TestOverview:
    def test_combine4_math(self):
        z = 9
        children = []
        imgs = {}
        for dx in (0, 1):
            for dy in (0, 1):
                img = np.full((256, 256, 4), 0, dtype=np.uint8)
                img[:, :, 0] = 50 * (1 + dx + 2 * dy)
                img[:, :, 3] = 255
                imgs[(dx, dy)] = img
                children.append({
                    "z": z, "x": 10 + dx, "y": 20 + dy,
                    "png": encode(img, "png"), "n_src": 1,
                    "cs_r": 0, "cs_g": 0, "cs_b": 0,
                    "parent": np.uint64(merc.cell_id(z - 1, 5, 10)),
                })
        out = CombineChildren()(pd.DataFrame(children))
        assert out.num_rows == 1
        row = out.to_pylist()[0]
        assert int(row["z"]) == z - 1
        assert (int(row["x"]), int(row["y"])) == (5, 10)
        rgba = decode(row["png"], "png")
        # each child shrinks to its 128×128 quadrant: top-left = child (0,0)
        assert (rgba[:128, :128, 0] == 50).all()
        assert (rgba[:128, 128:, 0] == 100).all()
        assert (rgba[128:, :128, 0] == 150).all()
        assert (rgba[128:, 128:, 0] == 200).all()


class TestInvariants:
    def test_caption_bytes_preserved(self, ray_session):
        ds = images_dataset(30)
        caps = [r["caption"] for r in ds.select_columns(["image_id", "caption"])
                .sort("image_id").take_all()]
        assert caps == [caption_of(i) for i in range(30)]

    def test_jpeg_psnr_gate(self):
        t = make_image_batch([1, 3, 5])  # odd → jpeg
        for r in t.to_pylist():
            i = int(r["image_id"][3:])
            out = decode(r["bytes"], "jpeg")
            assert psnr(render_pixels(i), out) >= 40.0

    def test_png_lossless(self):
        t = make_image_batch([0, 2, 4])
        for r in t.to_pylist():
            i = int(r["image_id"][3:])
            assert np.array_equal(decode(r["bytes"], "png"), render_pixels(i))

    def test_phash_collisions(self):
        t = make_image_batch([0, 97, 194])
        ph = [r["phash"] for r in t.to_pylist()]
        assert ph[0] == ph[1]  # 97 repeats 0
        assert ph[1] == ph[2]  # 194 repeats 97


class TestWritePyramidResume:
    def test_write_and_resume(self, ray_session, tmp_path):
        import json, os
        import pyarrow.parquet as pq
        import ray.data as rd
        from gdal_ray.pipelines.tiles import tile_pyramid, write_pyramid

        levels = tile_pyramid(24, zoom=7, min_z=6)
        out = str(tmp_path / "pyr")
        m1 = write_pyramid(levels, out)
        assert set(m1) == {"z=6", "z=7"}
        assert all(v["n_tiles"] > 0 for v in m1.values())
        # parquet actually landed and reads back
        back = rd.read_parquet(os.path.join(out, "z=7"))
        assert back.count() == m1["z=7"]["n_tiles"]
        assert "png" in back.schema().names
        # resume: tamper one level's manifest entry away -> only that
        # level is rewritten; the other's files stay untouched
        mpath = os.path.join(out, "manifest.json")
        with open(mpath) as f:
            m = json.load(f)
        del m["z=6"]
        with open(mpath, "w") as f:
            json.dump(m, f)
        mtimes_z7 = {p: os.path.getmtime(os.path.join(out, "z=7", p))
                     for p in os.listdir(os.path.join(out, "z=7"))}
        m2 = write_pyramid(levels, out)
        assert set(m2) == {"z=6", "z=7"}
        for p, t in mtimes_z7.items():
            assert os.path.getmtime(os.path.join(out, "z=7", p)) == t
        # the re-written level replaced its old files, it did not add
        # its tiles beside them
        for key in ("z=6", "z=7"):
            assert (pq.read_table(os.path.join(out, key)).num_rows
                    == m2[key]["n_tiles"])
        assert sorted(os.listdir(out)) == ["manifest.json", "z=6", "z=7"]

    def test_rewrite_drops_stale_files(self, ray_session, tmp_path):
        import os
        import pyarrow.parquet as pq
        from gdal_ray.pipelines.tiles import tile_pyramid, write_pyramid

        levels = {7: tile_pyramid(8, zoom=7, min_z=7)[7]}
        out = str(tmp_path / "pyr")
        # a level directory that no manifest records: files left by a
        # write that was killed before its manifest entry landed
        zdir = os.path.join(out, "z=7")
        os.makedirs(zdir)
        stale = levels[7].take_batch(3, batch_format="pyarrow")
        pq.write_table(stale, os.path.join(zdir, "stale.parquet"))
        m = write_pyramid(levels, out)
        assert "stale.parquet" not in os.listdir(zdir)
        assert pq.read_table(zdir).num_rows == m["z=7"]["n_tiles"]


class TestWriteTileTree:
    def test_zxy_layout_and_resume(self, ray_session, tmp_path):
        import json, os
        from gdal_ray.codecs import decode
        from gdal_ray.pipelines.tiles import tile_pyramid, write_tile_tree

        levels = tile_pyramid(16, zoom=7, min_z=6)
        out = str(tmp_path / "tree")
        m = write_tile_tree(levels, out)
        assert set(m) == {"z=6", "z=7"}
        # files exist in z/x/y.png layout and decode as PNG tiles
        found = 0
        for z in (6, 7):
            zdir = os.path.join(out, str(z))
            assert os.path.isdir(zdir)
            for xd in os.listdir(zdir):
                for yf in os.listdir(os.path.join(zdir, xd)):
                    assert yf.endswith(".png")
                    px = decode(open(os.path.join(zdir, xd, yf), "rb").read(),
                                "png")
                    assert px.shape == (256, 256, 4)
                    found += 1
        assert found == m["z=6"]["n_tiles"] + m["z=7"]["n_tiles"]
        # resume skips recorded levels entirely
        m2 = write_tile_tree(levels, out)
        assert m2 == m

    def test_webp_and_jpeg_tiledrivers(self, ray_session, tmp_path):
        # gdal2tiles --tiledriver analog: same tree, transcoded tiles
        import os
        from gdal_ray.codecs import decode
        from gdal_ray.pipelines.tiles import tile_pyramid, write_tile_tree

        levels = {7: tile_pyramid(8, zoom=7, min_z=7)[7]}
        for ext, bands in (("webp", 4), ("jpg", 3)):
            out = str(tmp_path / f"tree_{ext}")
            m = write_tile_tree(levels, out, ext=ext)
            n = 0
            for xd in os.listdir(os.path.join(out, "7")):
                for yf in os.listdir(os.path.join(out, "7", xd)):
                    assert yf.endswith("." + ext)
                    px = decode(open(os.path.join(out, "7", xd, yf),
                                     "rb").read())
                    assert px.shape[:2] == (256, 256)
                    assert px.shape[2] == bands
                    n += 1
            assert n == m["z=7"]["n_tiles"]


class TestTileStoreLayout:
    """The tile store is Arrow end to end: every file in the
    TILE_PARQUET profile, one row group per file, and the callables give
    the same table for an Arrow group and for the same group as a
    DataFrame."""

    @staticmethod
    def _fragments():
        from gdal_ray.sources.images import make_image_batch
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.tiles import warp_fragments_batch

        frags = warp_fragments_batch(
            with_georef(make_image_batch(list(range(40)))), 6)
        assert frags.num_rows > len(set(frags["cell"].to_pylist()))
        return frags

    def test_parquet_files_arrow_only(self, ray_session, tmp_path):
        import os
        import pyarrow.parquet as pq
        from gdal_ray.pipelines.tiles import tile_pyramid, write_pyramid
        from gdal_ray.stages.tiles import TILE_SCHEMA

        out = str(tmp_path / "pyr")
        write_pyramid(tile_pyramid(24, zoom=7, min_z=6), out)
        files = [os.path.join(out, d, f) for d in ("z=6", "z=7")
                 for f in os.listdir(os.path.join(out, d))]
        assert files
        for f in files:
            pf = pq.ParquetFile(f)
            assert b"pandas" not in (pf.metadata.metadata or {})
            assert b"pandas" not in (pf.schema_arrow.metadata or {})
            assert pf.metadata.num_row_groups == 1
            assert pf.schema_arrow.equals(TILE_SCHEMA)

    def test_render_fragments_arrow_equals_pandas(self):
        from gdal_ray.stages.join import salted_bucket
        from gdal_ray.stages.tiles import RenderFragments, TILE_SCHEMA

        frags = self._fragments()
        bucketed = salted_bucket(frags, "cell", 4)
        rf = RenderFragments()
        for b in np.unique(bucketed["bucket"].to_numpy()):
            t = bucketed.filter(pc.equal(bucketed["bucket"], b))
            got = rf(t)
            assert got.schema.equals(TILE_SCHEMA, check_metadata=True)
            assert got.equals(rf(t.to_pandas()))
            # arrival order within a bucket does not change the tiles
            assert got.equals(rf(t.take(np.arange(t.num_rows)[::-1])))
        # a many-cell bucket renders each cell as a one-cell group would
        whole = rf(bucketed)
        per_cell = pa.concat_tables(
            [rf(frags.filter(pc.equal(frags["cell"], c)))
             for c in sorted(set(frags["cell"].to_pylist()))])
        assert whole.equals(per_cell)

    def test_combine_children_arrow_equals_pandas(self):
        from gdal_ray.stages.join import salted_bucket
        from gdal_ray.stages.tiles import (CombineChildren, RenderFragments,
                                           TILE_SCHEMA, add_parent_cell)

        base = RenderFragments()(self._fragments())
        parents = salted_bucket(add_parent_cell(base), "parent", 4)
        cc = CombineChildren()
        n = 0
        for b in np.unique(parents["bucket"].to_numpy()):
            t = parents.filter(pc.equal(parents["bucket"], b))
            got = cc(t)
            assert got.schema.equals(TILE_SCHEMA, check_metadata=True)
            assert got.equals(cc(t.to_pandas()))
            n += got.num_rows
        assert n == len(set(parents["parent"].to_pylist()))

    @pytest.fixture(scope="class")
    def pyramid(self, ray_session, tmp_path_factory):
        """Levels of a small pyramid and the store write_pyramid made."""
        from gdal_ray.pipelines.tiles import tile_pyramid, write_pyramid

        levels = tile_pyramid(24, zoom=7, min_z=6)
        out = str(tmp_path_factory.mktemp("store") / "pyr")
        return levels, out, write_pyramid(levels, out)

    @staticmethod
    def _files(d):
        import os
        return sorted(os.path.join(d, f) for f in os.listdir(d)
                      if f.endswith(".parquet"))

    @staticmethod
    def _tile_rows(files):
        import pyarrow.parquet as pq
        t = pa.concat_tables([pq.read_table(f) for f in files])
        cols = ["z", "x", "y", "png", "n_src", "cs_r", "cs_g", "cs_b"]
        return sorted(zip(*(t[c].to_pylist() for c in cols)))

    @staticmethod
    def _stats(f):
        import pyarrow.parquet as pq
        rg = pq.ParquetFile(f).metadata.row_group(0)
        return {rg.column(i).path_in_schema: rg.column(i).is_stats_set
                for i in range(rg.num_columns)}

    def test_one_file_per_level(self, pyramid):
        import os
        levels, out, manifest = pyramid
        for z in levels:
            files = self._files(os.path.join(out, f"z={z}"))
            assert len(files) == 1
            rows = self._tile_rows(files)
            assert len(rows) == manifest[f"z={z}"]["n_tiles"]
            # the manifest digest is the XOR of the per-tile checksums
            digest = 0
            for *_, r, g, b in rows:
                digest ^= r ^ (g << 16) ^ (b << 32)
            assert manifest[f"z={z}"]["checksum_digest"] == digest

    @staticmethod
    def _assert_profile(f, schema, keys):
        """The TILE_PARQUET profile, as read back from one file's footer:
        one row group, no key-value metadata (no ARROW:schema, no pandas
        key), zstd and no dictionary page on every column chunk, and
        statistics on exactly the tile keys ``keys``."""
        import pyarrow.parquet as pq

        pf = pq.ParquetFile(f)
        md = pf.metadata
        assert md.num_row_groups == 1
        assert md.metadata is None
        assert pf.schema_arrow.equals(schema)
        rg = md.row_group(0)
        for i in range(rg.num_columns):
            col = rg.column(i)
            assert col.compression == "ZSTD", (f, col.path_in_schema)
            assert not col.has_dictionary_page, (f, col.path_in_schema)
            assert col.is_stats_set == (col.path_in_schema in keys), (
                f, col.path_in_schema)

    def test_no_statistics_on_png(self, pyramid):
        import os
        levels, out, _ = pyramid
        for z in levels:
            for f in self._files(os.path.join(out, f"z={z}")):
                stats = self._stats(f)
                assert not stats["png"]
                assert "cell" not in stats
                assert stats["x"] and stats["y"]

    def test_write_pyramid_profile(self, pyramid):
        import os
        from gdal_ray.stages.tiles import TILE_SCHEMA

        levels, out, _ = pyramid
        for z in levels:
            for f in self._files(os.path.join(out, f"z={z}")):
                self._assert_profile(f, TILE_SCHEMA, {"x", "y"})

    def test_render_base_resumable_profile(self, ray_session, tmp_path):
        import os
        from gdal_ray.pipelines.tiles import render_base_resumable
        from gdal_ray.sources.images import images_dataset
        from gdal_ray.stages.tiles import TILE_SCHEMA

        out = str(tmp_path / "lvl")
        assert render_base_resumable(images_dataset(8), 7, out)[
            "n_rendered"] > 0
        tiles = self._files(os.path.join(out, "tiles"))
        cells = self._files(os.path.join(out, "cells"))
        assert tiles and len(tiles) == len(cells)
        for f in tiles:
            self._assert_profile(f, TILE_SCHEMA, {"x", "y"})
        for f in cells:
            self._assert_profile(f, pa.schema([("cell", pa.uint64())]),
                                 {"cell"})

    def test_level_splits_below_block_target(self, pyramid, tmp_path):
        import os
        from ray.data import DataContext
        from gdal_ray.pipelines.tiles import write_pyramid
        from gdal_ray.stages.tiles import TILE_SCHEMA

        levels, out, _ = pyramid
        z = max(levels)
        level = levels[z].materialize()
        assert level.num_blocks() > 1
        ctx = DataContext.get_current()
        saved = ctx.target_max_block_size
        ctx.target_max_block_size = max(1, level.size_bytes() // 3)
        try:
            split = str(tmp_path / "split")
            write_pyramid({z: level}, split)
        finally:
            ctx.target_max_block_size = saved
        files = self._files(os.path.join(split, f"z={z}"))
        assert len(files) > 1
        assert self._tile_rows(files) == self._tile_rows(
            self._files(os.path.join(out, f"z={z}")))
        for f in files:
            self._assert_profile(f, TILE_SCHEMA, {"x", "y"})


    def test_manifest_bytes_reproducible(self, pyramid, tmp_path):
        """The same levels written twice give the same manifest.json
        bytes (no run-dependent field such as a wall time) and the same
        rows per level."""
        import os
        import pyarrow.parquet as pq
        from gdal_ray.pipelines.tiles import write_pyramid

        levels, out, manifest = pyramid
        again = str(tmp_path / "again")
        assert write_pyramid(levels, again) == manifest
        assert all(set(v) == {"n_tiles", "n_source_contributions",
                              "checksum_digest"} for v in manifest.values())

        def manifest_bytes(d):
            with open(os.path.join(d, "manifest.json"), "rb") as f:
                return f.read()

        assert manifest_bytes(again) == manifest_bytes(out)
        for z in levels:
            a, b = (pq.read_table(os.path.join(d, f"z={z}"))
                    .sort_by([("x", "ascending"), ("y", "ascending")])
                    for d in (out, again))
            assert a.num_rows == manifest[f"z={z}"]["n_tiles"]
            assert a.equals(b)


class TestFragmentParity:
    """Round-2 shuffle fix: pre-warped fragments must produce
    checksum-identical tiles to the warp-in-reduce RenderTile path."""

    def test_fragment_pipeline_matches_rendertile(self, ray_session):
        import pandas as pd
        from gdal_ray.sources.images import images_dataset
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.tiles import (RenderFragments, RenderTile,
                                           cover_batch, warp_fragments_batch)

        imgs = images_dataset(24).map_batches(with_georef,
                                              batch_format="pyarrow")
        Z = 7
        # old path: ship bytes, warp in reduce
        old_rows = []
        for b in imgs.map_batches(lambda t: cover_batch(t, Z),
                                  batch_format="pyarrow").iter_batches(
                                  batch_format="pandas", batch_size=4096):
            old_rows.append(b)
        old = pd.concat(old_rows, ignore_index=True)
        rt = RenderTile(resampling="bilinear")
        old_tiles = pa.concat_tables(
            [rt(g) for _, g in old.groupby("cell")]).to_pandas()

        # new path: pre-warp fragments in map, composite in reduce
        frag_rows = []
        for b in imgs.map_batches(
                lambda t: warp_fragments_batch(t, Z, resampling="bilinear"),
                batch_format="pyarrow").iter_batches(
                batch_format="pandas", batch_size=4096):
            frag_rows.append(b)
        frags = pd.concat(frag_rows, ignore_index=True)
        rf = RenderFragments()
        new_tiles = pa.concat_tables(
            [rf(g) for _, g in frags.groupby("cell")]).to_pandas()

        cols = ["z", "x", "y", "n_src", "cs_r", "cs_g", "cs_b"]
        key = ["z", "x", "y"]
        o = old_tiles[cols].sort_values(key).reset_index(drop=True)
        n = new_tiles[cols].sort_values(key).reset_index(drop=True)
        assert len(o) == len(n) and len(o) > 0
        pd.testing.assert_frame_equal(o, n)

    def test_fragment_shuffle_smaller_than_bytes_dup(self, ray_session):
        """The exchange payload of the fragment path must not exceed the
        old duplicated-source-bytes payload (and is typically smaller at
        low zoom where cover factor grows)."""
        from gdal_ray.sources.images import images_dataset
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.tiles import cover_batch, warp_fragments_batch

        imgs = images_dataset(24).map_batches(with_georef,
                                              batch_format="pyarrow")
        Z = 7
        old_bytes = 0
        for b in imgs.map_batches(lambda t: cover_batch(t, Z),
                                  batch_format="pyarrow").iter_batches(
                                  batch_format="pyarrow", batch_size=4096):
            old_bytes += sum(len(v) for v in b["bytes"].to_pylist())
        new_bytes = 0
        for b in imgs.map_batches(
                lambda t: warp_fragments_batch(t, Z),
                batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=4096):
            new_bytes += sum(len(v) for v in b["frag"].to_pylist())
        assert new_bytes < old_bytes * 1.5


class TestTileGranularResume:
    """Tile-granular resume (gdal2tiles.py:1492-1494 /
    gdalalg_raster_tile.cpp:663-667 per-tile resume contract): a killed
    base render re-renders ONLY the uncommitted cells and the resumed
    pyramid is checksum-identical to a one-shot render."""

    @staticmethod
    def _cs_map(ds):
        df = ds.to_pandas()
        return {(int(z), int(x), int(y)): (int(r), int(g), int(b))
                for z, x, y, r, g, b in
                zip(df["z"], df["x"], df["y"], df["cs_r"], df["cs_g"],
                    df["cs_b"])}

    def test_kill_and_resume_renders_only_missing(self, ray_session,
                                                  tmp_path):
        import os
        import pyarrow.parquet as pq
        from gdal_ray.pipelines.tiles import (build_base_tiles,
                                              render_base_resumable)
        from gdal_ray.sources.images import images_dataset

        out = str(tmp_path / "lvl")
        r1 = render_base_resumable(images_dataset(40), 7, out)
        assert r1["n_skipped"] == 0 and r1["n_rendered"] > 4
        total = r1["n_rendered"]
        want = self._cs_map(r1["dataset"])

        # simulate a mid-level kill: some blocks never committed their
        # manifest twin (orphan tiles files remain — must be ignored)
        cells_dir = os.path.join(out, "cells")
        victims = sorted(os.listdir(cells_dir))[::2]
        lost = 0
        for f in victims:
            lost += pq.read_table(os.path.join(cells_dir, f)).num_rows
            os.remove(os.path.join(cells_dir, f))
        assert 0 < lost < total

        r2 = render_base_resumable(images_dataset(40), 7, out)
        # resume rendered exactly the lost cells, skipped the rest
        assert r2["n_rendered"] == lost
        assert r2["n_skipped"] == total - lost
        got = self._cs_map(r2["dataset"])
        assert got == want                      # checksum-identical level

        # idempotent third run: everything skipped, nothing rendered
        r3 = render_base_resumable(images_dataset(40), 7, out)
        assert r3["n_rendered"] == 0 and r3["n_skipped"] == total
        assert self._cs_map(r3["dataset"]) == want

        # parity with the non-resumable pipeline
        ref = build_base_tiles(images_dataset(40), 7)
        assert self._cs_map(ref) == want


def _level_digest(t: pa.Table) -> str:
    """sha256 of a level's rows sorted by (z, x, y): address, n_src,
    band checksums and the PNG bytes."""
    import hashlib
    cols = ["z", "x", "y", "png", "n_src", "cs_r", "cs_g", "cs_b"]
    h = hashlib.sha256()
    for z, x, y, png, n, r, g, b in sorted(
            zip(*(t[c].to_pylist() for c in cols))):
        h.update(f"{z},{x},{y},{n},{r},{g},{b}:".encode())
        h.update(png)
    return h.hexdigest()


class TestSeed1Store:
    """The tile store of the benchmark's seed-1 pyramid input (32 corpus
    images from row 5187864, base z8, overviews to z6) against a dump
    of the store written while every tile row also carried its uint64
    cell and int64 x/y: the same tiles, byte for byte, and the same
    manifest counts and digests."""

    # z → (n_tiles, n_source_contributions, checksum_digest, digest of
    # the sorted rows, sha256 of the sorted little-endian cell ids)
    DUMP = {
        6: (20, 21, 163209019511,
            "a9e24ce0e6e6688e9e84fd975473ea2242f6d31dac06d7f8acfb60e0bc036c68",
            "4d3cf0e174468eb0ee035b70395867c1b044046856206188ebaad7500cdb7c06"),
        7: (20, 21, 1035092689072,
            "0a82e9946cf8909f353aa6a8b7c1c753623789ec71958de55229605f1f2ee1b1",
            "3fb73b5efd3f1f298e1b4e75bda67971146f365ab5ad23ba5a244638e702f05d"),
        8: (20, 21, 9732636151806,
            "c14106636006faf3b5bcec917bf53c34ddbd5ef611c5522fc8e77de004394806",
            "05ec6a0fbb1631482d99b4acb2cc522268f036340e0581f1d71586bf12acf007"),
    }

    @pytest.fixture(scope="class")
    def store(self, ray_session, tmp_path_factory):
        import os
        import pyarrow.parquet as pq
        import ray.data as rd
        from gdal_ray.pipelines.tiles import (build_base_tiles,
                                              build_overviews, write_pyramid)

        imgs = make_image_batch(np.arange(5187864, 5187864 + 32))
        base = build_base_tiles(rd.from_arrow(imgs), 8).materialize()
        out = str(tmp_path_factory.mktemp("seed1") / "pyr")
        manifest = write_pyramid(build_overviews(base, 6, 8), out)
        return manifest, {z: pq.read_table(os.path.join(out, f"z={z}"))
                          for z in self.DUMP}

    def test_levels_equal_the_dump(self, store):
        from gdal_ray.stages.tiles import TILE_SCHEMA

        manifest, tables = store
        for z, (n, n_src, digest, rows, _) in self.DUMP.items():
            assert manifest[f"z={z}"] == {
                "n_tiles": n, "n_source_contributions": n_src,
                "checksum_digest": digest}
            assert tables[z].schema.equals(TILE_SCHEMA)
            assert tables[z].num_rows == n
            assert _level_digest(tables[z]) == rows, z

    def test_parent_cells_from_the_stored_address(self, store):
        """add_parent_cell on a level read back from the store gives the
        parent of each row's old cell id: the Morton code shifted down
        two bits, one zoom up."""
        import hashlib
        from gdal_ray.stages.tiles import add_parent_cell

        _, tables = store
        for z, (*_, cells_digest) in self.DUMP.items():
            t = tables[z]
            old = merc.cell_id(t["z"].to_numpy(), t["x"].to_numpy(),
                               t["y"].to_numpy())
            assert hashlib.sha256(np.sort(old).astype("<u8").tobytes()) \
                .hexdigest() == cells_digest, z
            morton = old & np.uint64((1 << 58) - 1)
            want = (np.uint64(z - 1) << np.uint64(58)) \
                | (morton >> np.uint64(2))
            got = add_parent_cell(t)["parent"].to_numpy()
            assert got.dtype == np.uint64
            assert np.array_equal(got, want), z
