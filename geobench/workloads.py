"""The three workloads: inputs, one job against the engine's public API,
the check of its output, and the traced pass over each layer's kernels.

Each workload object owns its input files under ``work_dir``; a job
writes only into the directory it is given.
"""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from geobench import inputs, reference

# benchmark sizes; tests pass smaller ones
SIZES = {
    "pyramid": {"images": 32},
    "join": {"footprints": 500, "polygons": 200},
    "sql": {"orders": 150_000},
}


def _median(v) -> float:
    return float(np.median(v)) if len(v) else 0.0


def _ms_each(fn, items) -> list[float]:
    out = []
    for it in items:
        t0 = time.perf_counter()
        fn(it)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _skew(sizes) -> float:
    """Largest bucket ÷ median bucket over non-empty buckets."""
    sizes = np.asarray([s for s in sizes if s > 0], dtype=np.float64)
    return float(sizes.max() / np.median(sizes)) if len(sizes) else 0.0


def _read_ms(path: str) -> float:
    """sources.parquet: read and materialize one input through Ray Data."""
    import ray.data as rd

    t0 = time.perf_counter()
    rd.read_parquet(path).materialize()
    return time.perf_counter() - t0


class Pyramid:
    """Pixel workload: image window → z8 base tiles → overviews z7, z6 →
    written tile store."""

    name = "pyramid"
    ZOOM, MIN_Z = 8, 6

    def __init__(self, work_dir: str, seed: int, images: int):
        self.seed = seed
        self.n = images
        self.path = os.path.join(work_dir, "images.parquet")

    def setup(self) -> None:
        self.images = inputs.image_window(self.seed, self.n)
        inputs.write_table(self.images, self.path)
        self.expected = reference.pyramid_reference(self.images, self.ZOOM,
                                                    self.MIN_Z)

    @property
    def rows(self) -> int:
        return self.n

    def job(self, out_dir: str, tr) -> dict:
        import ray.data as rd
        from gdal_ray.pipelines.tiles import (build_base_tiles,
                                              build_overviews, write_pyramid)

        with tr.span("pipelines.tiles.base"):
            base = build_base_tiles(rd.read_parquet(self.path),
                                    self.ZOOM).materialize()
        with tr.span("pipelines.tiles.overview"):
            levels = build_overviews(base, self.MIN_Z, self.ZOOM)
        with tr.span("pipelines.tiles.write"):
            manifest = write_pyramid(levels, out_dir)
        return {"dir": out_dir, "manifest": manifest}

    def load(self, result: dict) -> dict[int, pa.Table]:
        return {z: pq.read_table(os.path.join(result["dir"], f"z={z}"))
                for z in range(self.MIN_Z, self.ZOOM + 1)}

    def check(self, result: dict) -> str | None:
        """Every level holds exactly the reference tiles; each tile's
        decoded pixels match the reference within its tolerance, and its
        source count, band checksums and manifest count are right."""
        for z, t in self.load(result).items():
            want = self.expected[z]
            cols = [t[c].to_pylist() for c in
                    ("x", "y", "png", "n_src", "cs_r", "cs_g", "cs_b")]
            got = {(x, y): row for x, y, *row in zip(*cols)}
            if t.num_rows != len(got):
                return f"z{z}: duplicate tiles"
            if set(got) != set(want):
                extra = sorted(set(got) ^ set(want))[:1]
                return f"z{z}: {len(got)} tiles vs {len(want)}; e.g. {extra}"
            for xy, (png, n_src, *cs) in sorted(got.items()):
                rgba, n_want = want[xy]
                px = reference.png_pixels(png)
                err = reference.tile_differs(px, rgba)
                if err:
                    return f"z{z} tile {xy}: {err}"
                if n_src != n_want:
                    return f"z{z} tile {xy}: n_src {n_src} != {n_want}"
                if cs != [reference.band_checksum(px[:, :, b])
                          for b in range(3)]:
                    return f"z{z} tile {xy}: band checksums {cs}"
            if result["manifest"][f"z={z}"]["n_tiles"] != len(want):
                return f"z{z}: manifest count"
        return None

    def output_bytes(self, result: dict) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, fs in os.walk(result["dir"]) for f in fs)

    def layers(self, result: dict, tr) -> dict[str, float]:
        from gdal_ray.codecs import decode, encode
        from gdal_ray.core import mercator as merc
        from gdal_ray.core import resample as rs
        from gdal_ray.pipelines.tiles import N_RENDER_BUCKETS
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.join import salted_bucket
        from gdal_ray.stages.tiles import (CombineChildren, RenderFragments,
                                           add_parent_cell,
                                           tile_geotransform,
                                           warp_fragments_batch)

        m: dict[str, float] = {}
        imgs = self.images
        t0 = time.perf_counter()
        geo = with_georef(imgs)
        m["stages.georef.us_per_img"] = ((time.perf_counter() - t0)
                                         / self.n * 1e6)

        fmts = imgs["fmt"].to_pylist()
        blobs = imgs["bytes"].to_pylist()
        for fmt in ("png", "jpeg"):
            sel = [b for b, f in zip(blobs, fmts) if f == fmt]
            m[f"codecs.{fmt}.decode_ms"] = _median(
                _ms_each(lambda b, f=fmt: decode(b, f), sel))

        rows = [geo.slice(i, 1) for i in range(geo.num_rows)]
        m["stages.tiles.warp_fragments_ms_per_img"] = _median(_ms_each(
            lambda r: warp_fragments_batch(r, self.ZOOM), rows))
        frags = warp_fragments_batch(geo, self.ZOOM)
        envs = list(zip(*(geo[c].to_pylist()
                          for c in ("minx", "miny", "maxx", "maxy"))))
        cover_us, covered = [], 0
        for env in envs:
            t0 = time.perf_counter()
            covered += len(merc.cells_for_envelope(*env, self.ZOOM))
            cover_us.append((time.perf_counter() - t0) * 1e6)
        m["core.mercator.cover_us_per_env"] = _median(cover_us)
        m["stages.tiles.frags_per_img"] = frags.num_rows / self.n
        m["stages.tiles.frag_yield"] = frags.num_rows / max(covered, 1)

        # the warp kernel alone, on each fragment's tile sub-window
        warp_ms = []
        for i, env in enumerate(envs):
            px = decode(blobs[i], fmts[i])
            gt = [geo[f"gt{k}"][i].as_py() for k in range(6)]
            for cell in merc.cells_for_envelope(*env, self.ZOOM):
                z, x, y = (int(v) for v in merc.cell_decode(np.uint64(cell)))
                dst = tile_geotransform(z, x, y)
                pad = int(np.ceil(abs(gt[1]) / abs(dst[1]))) + 1
                c0 = max(int(np.floor((env[0] - dst[0]) / dst[1])) - pad, 0)
                c1 = min(int(np.ceil((env[2] - dst[0]) / dst[1])) + pad, 256)
                r0 = max(int(np.floor((env[3] - dst[3]) / dst[5])) - pad, 0)
                r1 = min(int(np.ceil((env[1] - dst[3]) / dst[5])) + pad, 256)
                if c0 >= c1 or r0 >= r1:
                    continue
                sub = (dst[0] + c0 * dst[1], dst[1], 0.0,
                       dst[3] + r0 * dst[5], 0.0, dst[5])
                t0 = time.perf_counter()
                rs.warp(px, tuple(gt), sub, (r1 - r0, c1 - c0), "bilinear")
                warp_ms.append((time.perf_counter() - t0) * 1e3)
        m["core.resample.warp_ms_per_frag"] = _median(warp_ms)

        bucketed = salted_bucket(frags, "cell", N_RENDER_BUCKETS)
        m["exchange.render.mb"] = bucketed.nbytes / 1e6
        m["exchange.render.skew"] = _skew(
            [bucketed.filter(pc.equal(bucketed["bucket"], b)).nbytes
             for b in np.unique(bucketed["bucket"].to_numpy())])

        render = RenderFragments()
        groups = [g for _, g in frags.to_pandas().groupby("cell")]
        m["stages.tiles.render_ms_per_tile"] = _median(
            _ms_each(render, groups))
        base = self.load(result)[self.ZOOM]
        tiles = [decode(p, "png") for p in base["png"].to_pylist()]
        m["codecs.png.encode_ms"] = _median(
            _ms_each(lambda px: encode(px, "png"), tiles))

        parents = salted_bucket(add_parent_cell(base), "parent",
                                N_RENDER_BUCKETS)
        m["exchange.overview.mb"] = parents.nbytes / 1e6
        combine = CombineChildren()
        pgroups = [g for _, g in parents.to_pandas().groupby("parent")]
        m["stages.tiles.combine_ms_per_tile"] = _median(
            _ms_each(combine, pgroups))
        mosaics = []
        for g in pgroups:
            mosaic = np.zeros((512, 512, 4), np.uint8)
            for x, y, p in zip(g["x"], g["y"], g["png"]):
                mosaic[(y & 1) * 256:(y & 1) * 256 + 256,
                       (x & 1) * 256:(x & 1) * 256 + 256] = decode(p, "png")
            mosaics.append(mosaic)
        m["core.resample.downsample2x_ms_per_tile"] = _median(
            _ms_each(lambda a: rs.downsample2x(a, "average"), mosaics))

        for z in range(self.MIN_Z, self.ZOOM + 1):
            m[f"stages.tiles.tiles_z{z}"] = (
                result["manifest"][f"z={z}"]["n_tiles"])
        for stage in ("base", "overview", "write"):
            m[f"pipelines.tiles.{stage}_s"] = _median(
                tr.span_seconds(f"pipelines.tiles.{stage}"))
        m["sources.parquet.read_s"] = _read_ms(self.path)
        return m


class Join:
    """Footprint × polygon workload: georef → cell-partitioned spatial
    join at zoom 7 → collected pairs.  No pixel is decoded."""

    name = "join"
    ZOOM = 7

    def __init__(self, work_dir: str, seed: int, footprints: int,
                 polygons: int):
        self.seed = seed
        self.n_img = footprints
        self.n_poly = polygons
        self.img_path = os.path.join(work_dir, "footprints.parquet")
        self.poly_path = os.path.join(work_dir, "polygons.parquet")

    def setup(self) -> None:
        self.footprints = inputs.footprint_window(self.seed, self.n_img)
        self.polygons = inputs.polygon_window(self.seed, self.n_poly)
        inputs.write_table(self.footprints, self.img_path)
        inputs.write_table(self.polygons, self.poly_path)
        self.expected = reference.join_reference(self.footprints,
                                                 self.polygons)

    @property
    def rows(self) -> int:
        return self.n_img + self.n_poly

    def job(self, out_dir: str, tr) -> dict:
        import ray
        import ray.data as rd
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.join import spatial_join

        with tr.span("stages.join.join"):
            imgs = rd.read_parquet(self.img_path).map_batches(
                with_georef, batch_format="pyarrow")
            pairs = spatial_join(imgs, rd.read_parquet(self.poly_path),
                                 zoom=self.ZOOM)
            blocks = ray.get(pairs.to_arrow_refs())
        table = pa.concat_tables([b for b in blocks if b.num_rows]) \
            if any(b.num_rows for b in blocks) else blocks[0]
        return {"table": table}

    def check(self, result: dict) -> str | None:
        got = (result["table"].select(["image_id", "fid", "name", "category"])
               .to_pandas().sort_values(["image_id", "fid"],
                                        ignore_index=True))
        return reference.frames_differ(got, self.expected)

    def output_bytes(self, result: dict) -> int:
        return result["table"].nbytes

    def layers(self, result: dict, tr) -> dict[str, float]:
        from gdal_ray.core import geom, wkb
        from gdal_ray.core import mercator as merc
        from gdal_ray.stages.georef import with_georef
        from gdal_ray.stages.join import (N_JOIN_BUCKETS, reference_cell,
                                          salted_bucket)

        m: dict[str, float] = {}
        t0 = time.perf_counter()
        geo = with_georef(self.footprints)
        m["stages.georef.us_per_img"] = ((time.perf_counter() - t0)
                                         / self.n_img * 1e6)

        def covers(t):
            envs = np.column_stack([t[c].to_numpy() for c in
                                    ("minx", "miny", "maxx", "maxy")])
            cells, us = [], []
            for e in envs:
                t0 = time.perf_counter()
                cells.append(merc.cells_for_envelope(*e, self.ZOOM,
                                                     max_cells=65536))
                us.append((time.perf_counter() - t0) * 1e6)
            return envs, cells, us

        ienv, icells, ius = covers(geo)
        penv, pcells, pus = covers(self.polygons)
        m["core.mercator.cover_us_per_env"] = _median(ius + pus)
        m["stages.join.cells_per_img"] = sum(map(len, icells)) / self.n_img
        m["stages.join.cells_per_poly"] = sum(map(len, pcells)) / self.n_poly

        wkbs = self.polygons["wkb"].to_pylist()
        m["core.wkb.loads_us_per_poly"] = _median(
            _ms_each(wkb.loads, wkbs)) * 1e3

        def side(cells):
            idx = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
            return pd.DataFrame({"cell": np.concatenate(cells), "i": idx})

        img_side, poly_side = side(icells), side(pcells)
        cand = img_side.merge(poly_side, on="cell", suffixes=("", "_p"))
        a, b = ienv[cand["i"].to_numpy()], penv[cand["i_p"].to_numpy()]
        over = ((a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2])
                & (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3]))
        cand = cand[over]
        a, b = a[over], b[over]
        own = reference_cell(a[:, 0], a[:, 1], b[:, 0], b[:, 1],
                             self.ZOOM) == cand["cell"].to_numpy()
        kept = cand[own]
        m["stages.join.candidates"] = float(len(cand))
        m["stages.join.pbsm_keep_ratio"] = len(kept) / max(len(cand), 1)
        m["stages.join.exact_hit_ratio"] = (result["table"].num_rows
                                            / max(len(kept), 1))
        polys = [wkb.loads(w) for w in wkbs]
        t0 = time.perf_counter()
        for j, grp in kept.groupby("i_p"):
            bx = ienv[grp["i"].to_numpy()]
            geom.boxes_intersect_polygon(bx[:, 0], bx[:, 1], bx[:, 2],
                                         bx[:, 3], polys[j])
        m["core.geom.predicate_us_per_cand"] = (
            (time.perf_counter() - t0) / max(len(kept), 1) * 1e6)

        ex_img = geo.select(["image_id", "minx", "miny", "maxx", "maxy"]) \
            .take(pa.array(img_side["i"].to_numpy()))
        ex_img = ex_img.append_column("cell", pa.array(
            img_side["cell"].to_numpy(), pa.uint64()))
        ex_poly = self.polygons.take(pa.array(poly_side["i"].to_numpy()))
        ex_poly = ex_poly.append_column("cell", pa.array(
            poly_side["cell"].to_numpy(), pa.uint64()))
        m["exchange.join.rows"] = float(ex_img.num_rows + ex_poly.num_rows)
        m["exchange.join.mb"] = (ex_img.nbytes + ex_poly.nbytes) / 1e6
        buckets = np.concatenate([
            salted_bucket(t.select(["cell"]), "cell", N_JOIN_BUCKETS)
            ["bucket"].to_numpy() for t in (ex_img, ex_poly)])
        m["exchange.join.skew"] = _skew(np.bincount(buckets))
        m["stages.join.join_s"] = _median(tr.span_seconds("stages.join.join"))
        m["sources.parquet.read_s"] = (_read_ms(self.img_path)
                                       + _read_ms(self.poly_path))
        return m


# the `vector_sql*` statement strings (OGR-SQL dialect plus ROUND, which
# only the DuckDB side evaluates)
STATEMENTS = {
    "grouped": """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       ROUND(MIN(o_totalprice), 2) AS lo, ROUND(MAX(o_totalprice), 2) AS hi
FROM orders WHERE o_totalprice BETWEEN 1000 AND 300000
GROUP BY o_orderpriority ORDER BY o_orderpriority
""",
    "case": """
SELECT CASE WHEN o_totalprice > 200000 THEN 'big'
            WHEN o_totalprice > 100000 THEN 'mid'
            ELSE 'small' END AS bucket,
       COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS n_f
FROM orders GROUP BY bucket ORDER BY bucket
""",
    "join": """
SELECT c_mktsegment, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       ROUND(STDDEV_POP(o_totalprice), 2) AS sd
FROM orders LEFT JOIN customer ON orders.o_custkey = customer.c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
""",
    "subquery": """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment =
'BUILDING') AND o_orderstatus NOT IN ('F')
GROUP BY o_orderpriority ORDER BY o_orderpriority
""",
    "scan": """
SELECT p_partkey, p_name, ROUND(p_retailprice * 2 - 10, 2) AS adj
FROM part WHERE p_size IN (1, 5, 9) AND p_name LIKE '%bolt%'
ORDER BY adj DESC, p_partkey LIMIT 40
""",
}
# tables each statement reads, for the input-row count
STATEMENT_TABLES = {"grouped": ("orders",), "case": ("orders",),
                    "join": ("orders", "customer"),
                    "subquery": ("orders", "customer"), "scan": ("part",)}


def engine_dialect(sql: str) -> str:
    """The engine's dialect has no ROUND(); the check compares its
    unrounded values within half a cent of DuckDB's rounded ones."""
    return re.sub(r"ROUND\(([^,]+), \d\)", r"\1", sql)


class Sql:
    """Relational workload: five OGR-SQL statements over TPC-H-shaped
    orders, customer and part tables."""

    name = "sql"

    def __init__(self, work_dir: str, seed: int, orders: int):
        self.seed = seed
        self.n_orders = orders
        self.paths = {t: os.path.join(work_dir, f"{t}.parquet")
                      for t in ("orders", "customer", "part")}

    def setup(self) -> None:
        tables = inputs.tpch_tables(self.seed, self.n_orders)
        self.sizes = {k: t.num_rows for k, t in tables.items()}
        for k, t in tables.items():
            inputs.write_table(t, self.paths[k])
        self.expected = reference.sql_reference(STATEMENTS, self.paths)

    @property
    def rows(self) -> int:
        return sum(self.sizes[t] for ts in STATEMENT_TABLES.values()
                   for t in ts)

    def job(self, out_dir: str, tr) -> dict:
        import ray.data as rd
        from gdal_ray.functions.sql import execute_sql

        tables = {k: rd.read_parquet(p) for k, p in self.paths.items()}
        frames = {}
        for key, stmt in STATEMENTS.items():
            with tr.span(f"functions.sql.{key}"):
                frames[key] = execute_sql(engine_dialect(stmt), tables)
        return {"frames": frames}

    def check(self, result: dict) -> str | None:
        for key, want in self.expected.items():
            err = reference.frames_differ(result["frames"][key], want,
                                          abs_tol=0.0051)
            if err:
                return f"{key}: {err}"
        return None

    def output_bytes(self, result: dict) -> int:
        return sum(pa.Table.from_pandas(f, preserve_index=False).nbytes
                   for f in result["frames"].values())

    def layers(self, result: dict, tr) -> dict[str, float]:
        from gdal_ray.functions.sql import parse_select

        m: dict[str, float] = {}
        walls = tr.job_seconds(f"functions.sql.{k}" for k in STATEMENTS)
        ray_walls = tr.job_seconds(["ray.data.executions"])
        m["functions.sql.driver_s"] = _median(
            [w - ray_walls.get(j, 0.0) for j, w in walls.items()])
        m["functions.sql.parse_ms"] = _median(_ms_each(
            parse_select, [engine_dialect(s) for s in STATEMENTS.values()]))
        for key in STATEMENTS:
            m[f"functions.sql.{key}_s"] = _median(
                tr.span_seconds(f"functions.sql.{key}"))
        m["sources.parquet.read_s"] = sum(_read_ms(p)
                                          for p in self.paths.values())
        return m


WORKLOADS = {"pyramid": Pyramid, "join": Join, "sql": Sql}


def make(name: str, work_dir: str, seed: int, sizes: dict | None = None):
    return WORKLOADS[name](work_dir, seed, **(sizes or SIZES[name]))
