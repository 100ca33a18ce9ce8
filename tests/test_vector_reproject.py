"""Vector reprojection (ogr2ogr -t_srs / OGRGeometry::transform)."""

import numpy as np
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.core.mercator import ORIGIN_SHIFT as OS
from gdal_ray.stages.vector_ops import reproject_wkb_batch, transform_geometry
from gdal_ray.stages.warp import get_transform


def test_box_3857_to_4326():
    g = W.box(0.0, 0.0, OS / 2, OS / 2)
    out = transform_geometry(g, get_transform("EPSG:3857", "EPSG:4326"))
    e = out.envelope()
    assert e[0] == pytest.approx(0.0)
    assert e[2] == pytest.approx(90.0)
    assert e[3] == pytest.approx(66.5132, abs=1e-4)


def test_roundtrip_via_hub():
    # 3857 -> 32631 composes through the 4326 hub
    fwd = get_transform("EPSG:3857", "EPSG:32631")
    back = get_transform("EPSG:32631", "EPSG:3857")
    g = W.box(100000.0, 5000000.0, 300000.0, 5400000.0)
    rt = transform_geometry(transform_geometry(g, fwd), back)
    assert np.allclose(rt.envelope(), g.envelope(), atol=1e-3)


def test_point_linestring_multipolygon():
    fwd = get_transform("EPSG:3857", "EPSG:4326")
    p = transform_geometry(W.point(OS / 2, 0.0), fwd)
    assert p.coords[0, 0] == pytest.approx(90.0)
    ls = transform_geometry(
        W.linestring(np.array([[0.0, 0.0], [OS / 4, 0.0]])), fwd)
    assert ls.coords[1, 0] == pytest.approx(45.0)
    mp = transform_geometry(
        W.multipolygon([W.box(0, 0, OS / 4, OS / 4)]), fwd)
    assert mp.parts[0].envelope()[2] == pytest.approx(45.0)


def test_batch_preserves_attributes():
    import pyarrow as pa
    t = pa.table({"fid": [7], "name": ["a"],
                  "wkb": [W.dumps(W.box(0, 0, OS / 2, OS / 2))]})
    o = reproject_wkb_batch(t, "EPSG:3857", "EPSG:4326")
    assert o["fid"][0].as_py() == 7 and o["name"][0].as_py() == "a"
    assert W.loads(o["wkb"][0].as_py()).envelope()[2] == pytest.approx(90.0)


def test_batch_rewrites_the_envelope():
    import pyarrow as pa
    from gdal_ray.sources.vector import ENVELOPE, with_geometry
    t = with_geometry(pa.table({"fid": [7]}), [W.box(0, 0, OS / 2, OS / 2)])
    o = reproject_wkb_batch(t, "EPSG:3857", "EPSG:4326")
    assert o.column_names == ["fid", "wkb", *ENVELOPE]
    assert [o[n][0].as_py() for n in ENVELOPE] == pytest.approx(
        W.loads(o["wkb"][0].as_py()).envelope())
    assert o["maxx"][0].as_py() == pytest.approx(90.0)


def test_unknown_crs_raises():
    with pytest.raises(ValueError):
        get_transform("EPSG:3857", "EPSG:99999")


def test_warp_output_grid_options():
    """gdalwarp -te/-tr/-ts algebra (apps/gdalwarp_lib.cpp)."""
    from gdal_ray.stages.warp import (get_transform, reproject_array,
                                      suggested_warp_output,
                                      warp_output_grid)
    fwd = get_transform("EPSG:3857", "EPSG:4326")
    src_gt = (0.0, 100.0, 0.0, 100000.0, 0.0, -100.0)
    # default = suggested
    assert warp_output_grid(src_gt, 100, 100, fwd) == \
        suggested_warp_output(src_gt, 100, 100, fwd)
    # -tr pins resolution
    gt, w, h = warp_output_grid(src_gt, 100, 100, fwd,
                                tr=(0.0001, 0.0001))
    assert gt[1] == 0.0001 and gt[5] == -0.0001
    # -ts pins dims
    gt, w, h = warp_output_grid(src_gt, 100, 100, fwd, ts=(50, 40))
    assert (w, h) == (50, 40)
    # -te pins extent exactly
    gt, w, h = warp_output_grid(src_gt, 100, 100, fwd,
                                te=(0.0, 0.0, 0.05, 0.05), ts=(10, 10))
    assert gt[0] == 0.0 and gt[3] == 0.05
    assert gt[1] == pytest.approx(0.005)
    with pytest.raises(ValueError):
        warp_output_grid(src_gt, 100, 100, fwd, tr=(1, 1), ts=(2, 2))
    # the pinned grid flows through reproject_array
    src = np.arange(10000, dtype=np.float64).reshape(100, 100)
    out, valid, gt2 = reproject_array(
        src, src_gt, "EPSG:3857", "EPSG:4326",
        dst_grid=warp_output_grid(src_gt, 100, 100, fwd, ts=(32, 16)))
    assert out.shape == (16, 32) and gt2[0] == pytest.approx(0.0)


def test_geojsonseq_roundtrip():
    import pyarrow as pa
    from gdal_ray.sources.drivers import read_vector
    from gdal_ray.sources.geojson import (read_geojsonseq_table,
                                          write_geojsonseq)
    t = pa.table({"fid": [1, 2], "name": ["a", "b"],
                  "wkb": [W.dumps(W.box(0, 0, 1, 1)),
                          W.dumps(W.point(3.0, 4.0))],
                  "minx": [0.0, 3.0], "miny": [0.0, 4.0],
                  "maxx": [1.0, 3.0], "maxy": [1.0, 4.0]})
    assert write_geojsonseq(t, "/tmp/gj_rt.geojsonl", rs=True) == 2
    back = read_geojsonseq_table("/tmp/gj_rt.geojsonl")
    assert back.num_rows == 2
    assert W.loads(back["wkb"][1].as_py()).coords[0, 0] == 3.0
    assert back["name"].to_pylist() == ["a", "b"]
    # extension routing through the driver manager
    assert read_vector("/tmp/gj_rt.geojsonl").num_rows == 2


def test_arrow_ipc_roundtrip():
    import pyarrow as pa
    from gdal_ray.sources.drivers import read_vector, write_arrow
    t = pa.table({"fid": [1], "wkb": [W.dumps(W.point(1.0, 2.0))],
                  "tag": ["x"]})
    assert write_arrow(t, "/tmp/layer_rt.arrow") == 1
    back = read_vector("/tmp/layer_rt.arrow")
    assert back.num_rows == 1 and back["tag"][0].as_py() == "x"


def test_shapefile_writer_roundtrip(tmp_path):
    """write_shapefile → read_shapefile: geometry, ring orientation,
    DBF N/C fields (ESRI whitepaper layout)."""
    import pyarrow as pa
    from gdal_ray.sources.shapefile import read_shapefile, write_shapefile

    path = str(tmp_path / "layer.shp")
    tri = W.polygon(np.array([[20.0, 20.0], [30.0, 20.0],
                              [25.0, 30.0], [20.0, 20.0]]))
    t = pa.table({"fid": [0, 1], "name": ["alpha", "beta"],
                  "score": [1.25, -3.5],
                  "wkb": [W.dumps(W.box(0, 0, 10, 10)), W.dumps(tri)],
                  "minx": [0.0, 20.0], "miny": [0.0, 20.0],
                  "maxx": [10.0, 30.0], "maxy": [10.0, 30.0]})
    assert write_shapefile(t, path) == 2
    back = read_shapefile(path)
    assert back.num_rows == 2
    assert back["name"].to_pylist() == ["alpha", "beta"]
    assert back["score"].to_pylist() == [1.25, -3.5]
    from gdal_ray.core.geom import area
    assert area(W.loads(back["wkb"][0].as_py())) == pytest.approx(100.0)
    assert area(W.loads(back["wkb"][1].as_py())) == pytest.approx(50.0)


def test_shapefile_writer_point_line(tmp_path):
    import pyarrow as pa
    from gdal_ray.sources.shapefile import read_shapefile, write_shapefile

    p = str(tmp_path / "pts.shp")
    t = pa.table({"fid": [0], "wkb": [W.dumps(W.point(5.0, 6.0))],
                  "minx": [5.0], "miny": [6.0],
                  "maxx": [5.0], "maxy": [6.0]})
    write_shapefile(t, p)
    assert W.loads(read_shapefile(p)["wkb"][0].as_py()) \
        .coords.tolist() == [[5.0, 6.0]]
    ln = str(tmp_path / "ln.shp")
    ls = W.linestring(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 2.0]]))
    t2 = pa.table({"fid": [0], "wkb": [W.dumps(ls)], "minx": [0.0],
                   "miny": [0.0], "maxx": [9.0], "maxy": [5.0]})
    write_shapefile(t2, ln)
    assert W.loads(read_shapefile(ln)["wkb"][0].as_py()).coords.shape \
        == (3, 2)


def test_shapefile_writer_rejects_mixed(tmp_path):
    import pyarrow as pa
    from gdal_ray.sources.shapefile import write_shapefile

    t = pa.table({"fid": [0, 1],
                  "wkb": [W.dumps(W.point(1.0, 1.0)),
                          W.dumps(W.box(0, 0, 1, 1))],
                  "minx": [1.0, 0.0], "miny": [1.0, 0.0],
                  "maxx": [1.0, 1.0], "maxy": [1.0, 1.0]})
    with pytest.raises(ValueError):
        write_shapefile(t, str(tmp_path / "mix.shp"))
