"""Pipeline-step registry: parsing, chaining, user extension."""

import pytest

from gdal_ray.pipelines.registry import (STEPS, parse_pipeline,
                                         register_step, run_pipeline,
                                         unregister_step)


class TestParse:
    def test_basic(self):
        steps = parse_pipeline("read_images n=4 ! georef ! select cols=image_id,w")
        assert [s[0] for s in steps] == ["read_images", "georef", "select"]
        assert steps[0][1] == {"n": 4}
        assert steps[2][1] == {"cols": ["image_id", "w"]}

    def test_coercion(self):
        (_, kw), = parse_pipeline("x a=1 b=2.5 c=true d=hello")
        assert kw == {"a": 1, "b": 2.5, "c": True, "d": "hello"}

    def test_bad_arg(self):
        with pytest.raises(ValueError):
            parse_pipeline("read_images nope")

    def test_unknown_step(self):
        with pytest.raises(ValueError, match="unknown step"):
            run_pipeline("not_a_step")


class TestRun:
    def test_read_filter_select(self, ray_session):
        ds = run_pipeline(
            "read_images n=8 ! filter expr=w>=256 ! select cols=image_id,w")
        out = ds.to_pandas()
        assert (out["w"] >= 256).all()
        assert list(out.columns) == ["image_id", "w"]

    def test_georef_reproject_chain(self, ray_session):
        ds = run_pipeline(
            "read_images n=4 ! georef ! reproject dst=EPSG:4326 concurrency=2"
            " ! select cols=image_id,dst_w,dst_h")
        out = ds.to_pandas()
        assert len(out) == 4
        assert (out["dst_w"] > 0).all()

    def test_user_registered_step(self, ray_session):
        @register_step("double_w")
        def _double(ds, **kw):
            import pyarrow.compute as pc
            return ds.map_batches(
                lambda t: t.set_column(t.schema.get_field_index("w"), "w",
                                       pc.multiply(t["w"], 2)),
                batch_format="pyarrow")

        try:
            base = run_pipeline("read_images n=3 ! select cols=image_id,w") \
                .to_pandas().sort_values("image_id").reset_index(drop=True)
            out = run_pipeline(
                "read_images n=3 ! double_w ! select cols=image_id,w") \
                .to_pandas().sort_values("image_id").reset_index(drop=True)
        finally:
            unregister_step("double_w")
        # block arrival order is nondeterministic — compare by key
        assert (out["w"].to_numpy() == base["w"].to_numpy() * 2).all()
        assert "double_w" not in STEPS
        with pytest.raises(KeyError):
            unregister_step("double_w")
        with pytest.raises(KeyError):
            unregister_step("read_images")      # a built-in, not a user step

    def test_sort_limit(self, ray_session):
        out = run_pipeline(
            "read_images n=16 ! select cols=image_id,w ! sort by=w desc=true"
            " ! limit n=3").to_pandas()
        assert len(out) == 3
        assert out["w"].is_monotonic_decreasing


def test_new_round2_steps_registered():
    from gdal_ray.pipelines.registry import STEPS
    for name in ("nearblack", "color_relief", "rgb2pct", "hillshade"):
        assert name in STEPS


def test_nearblack_step_runs(ray_session):
    from gdal_ray.pipelines.registry import run_pipeline
    df = run_pipeline("read_images n=8 ! nearblack ! limit n=2").to_pandas()
    assert "n_masked" in df.columns and len(df) == 2


def test_hillshade_step_variants(ray_session):
    from gdal_ray.pipelines.registry import run_pipeline
    df = run_pipeline(
        "read_images n=8 ! hillshade variant=igor ! limit n=2").to_pandas()
    assert "mean_shade_byte" in df.columns


def test_translate_calc_reclassify_steps(ray_session):
    from gdal_ray.codecs import decode
    from gdal_ray.pipelines.registry import run_pipeline
    df = run_pipeline(
        "read_images n=8 ! translate window=0,0,64,64 out_size=32,32 "
        "! limit n=1").to_pandas()
    assert decode(df["bytes"][0], "png").shape[:2] == (32, 32)
    df2 = run_pipeline(
        "read_images n=8 ! calc expr=(A+B)/2 ! limit n=1").to_pandas()
    assert "calc_mean" in df2.columns
    df3 = run_pipeline("read_images n=8 ! reclassify ! limit n=1"
                       ).to_pandas()
    assert "reclass_sum" in df3.columns


def test_write_read_vector_steps(ray_session, tmp_path):
    from gdal_ray.pipelines.registry import run_pipeline
    shp = str(tmp_path / "boxes.shp")
    run_pipeline(f"read_polygons n=6 ! write_shapefile path={shp}")
    back = run_pipeline(f"read_vector path={shp}").to_pandas()
    assert len(back) == 6 and "wkb" in back.columns
    gj = str(tmp_path / "boxes.geojsonl")
    run_pipeline(f"read_polygons n=6 ! write_geojson path={gj} seq=true")
    back2 = run_pipeline(f"read_vector path={gj}").to_pandas()
    assert len(back2) == 6


def test_vector_reproject_step(ray_session):
    from gdal_ray.core import wkb as W
    from gdal_ray.pipelines.registry import run_pipeline
    df = run_pipeline(
        "read_polygons n=4 ! vector_reproject ! limit n=1").to_pandas()
    g = W.loads(df["wkb"][0])
    e = g.envelope()
    assert -180 <= e[0] <= 180 and -90 <= e[1] <= 90


def test_concave_hull_step(ray_session):
    import numpy as np
    from gdal_ray.core import wkb as W
    from gdal_ray.core.geom import area
    from gdal_ray.pipelines.registry import run_pipeline
    import ray.data as rd
    import pyarrow as pa
    rng = np.random.default_rng(6)
    th = rng.uniform(0.5, 2 * np.pi - 0.5, 300)
    r = rng.uniform(3, 5, 300)
    pts = np.c_[np.cos(th) * r, np.sin(th) * r]
    src = rd.from_arrow(pa.table({
        "fid": pa.array([0], pa.int64()),
        "wkb": pa.array([W.dumps(W.linestring(pts))], pa.binary())}))
    out = run_pipeline("concave_hull ratio=0.1", ds=src).to_pandas()
    g = W.loads(out["wkb"].iloc[0])
    assert g.geom_type == W.POLYGON
    # the annulus hole + C-gap survive: hull area well under the disc
    assert area(g) < 0.8 * np.pi * 25


def test_write_gpx_mif_steps(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd
    from gdal_ray.core import wkb as W
    from gdal_ray.pipelines.registry import run_pipeline
    src = rd.from_arrow(pa.table({
        "fid": pa.array([0, 1], pa.int64()),
        "name": pa.array(["a", "b"], pa.string()),
        "wkb": pa.array([W.dumps(W.point(1, 2)),
                         W.dumps(W.point(3, 4))], pa.binary())}))
    gpx = str(tmp_path / "o.gpx")
    mif = str(tmp_path / "o.mif")
    run_pipeline(f"write_gpx path={gpx}", ds=src)
    run_pipeline(f"write_mif path={mif}", ds=src)
    from gdal_ray.sources.drivers import read_vector
    assert read_vector(gpx).num_rows == 2
    assert read_vector(mif)["name"].to_pylist() == ["a", "b"]


def test_read_raster_step(ray_session):
    from gdal_ray.pipelines.registry import run_pipeline
    df = run_pipeline(
        "read_raster path=/root/reference/autotest/gcore/data/byte.vrt "
        "! select cols=image_id,w,h,gt0").to_pandas()
    assert df["w"].iloc[0] == 20
    assert df["gt0"].iloc[0] == 440720.0
