"""Driver round-trip queries (pipelines/queries.py) against their DuckDB
oracles, the scratch directories they write into, and the driver-window
order README.md documents. Hermetic: these queries build their inputs
from the synthetic image corpus and polygon layer, and their oracles are
closed-form SQL that reads no parquet table."""

import os
import re
import subprocess
import sys
from pathlib import Path

import duckdb
import pytest

from gdal_ray.pipelines import queries as Q

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from check_oracle import compare, to_pandas  # noqa: E402

ROUNDTRIPS = [
    # raster driver round trips (_raster_roundtrip)
    "netcdf_roundtrip", "gtiff_roundtrip", "jp2_roundtrip",
    "webp_roundtrip", "mrf_roundtrip", "e57_roundtrip", "heif_roundtrip",
    "exr_roundtrip", "zarr_roundtrip", "rl2_roundtrip", "pdf_roundtrip",
    "cog_roundtrip",
    # vector driver round trips (_vector_roundtrip)
    "gmt_roundtrip", "sqlite_roundtrip", "arrow_roundtrip", "mif_roundtrip",
    "gml_roundtrip", "pdfvec_roundtrip", "dxf_roundtrip",
    "geojson_roundtrip",
    # other queries that write scratch files (_scratch_dir)
    "gtiff_float_nodata", "vrt_composite", "vector_drivers",
    "fgb_roundtrip", "mbtiles_roundtrip", "gpkg_raster_roundtrip",
    "kml_superoverlay", "vector_translate",
]


@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_roundtrip_matches_oracle(ray_session, tmp_path, name):
    # an empty sf_dir: none of these queries reads the parquet tables
    got = to_pandas(Q.QUERIES[name](str(tmp_path)))
    want = duckdb.connect().execute(Q.oracle_sql()[name]).df()
    err = compare(got, want)
    assert err is None, err


def test_scratch_dirs_are_per_call_and_removed_at_exit():
    code = (
        "import os\n"
        "from gdal_ray.pipelines.queries import _scratch_dir\n"
        "a, b = _scratch_dir('x'), _scratch_dir('x')\n"
        "assert os.path.isdir(a) and os.path.isdir(b)\n"
        "print(a)\n"
        "print(b)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.split()
    a, b = out
    assert a != b
    root = os.path.dirname(a)
    assert os.path.dirname(b) == root
    assert not os.path.exists(root)


def test_readme_window_tags_are_in_the_driver_window():
    readme = (ROOT / "README.md").read_text()
    tagged = set(re.findall(r"`(\w+)` \(window", readme))
    assert tagged
    window = list(Q.QUERIES)[:50]
    assert sorted(tagged - set(window)) == []
