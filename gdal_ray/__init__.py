"""gdal_ray — a from-scratch Ray-Data-native geospatial data-processing engine.

Re-creates the query/data-processing capabilities of GDAL (reference:
rouault/gdal) as idiomatic Ray Data pipelines: ``ray.data.Dataset`` →
``map_batches`` over zero-copy Arrow batches, tasks with per-process
state for stateful stages (``stages.per_process``), explicit
groupby-cell shuffles for the wide steps.

Layout:
  core/       pure numpy math: geotransform, mercator/tile math, quadkey
              cells, GDAL-compatible checksum, WKB codec, geometry
              predicates, resampling kernels.
  codecs/     pure-Python/numpy raster+media codecs: PNG, GeoTIFF/COG,
              JPEG (baseline + progressive), WebP (VP8L), GIF, netCDF
              classic, PNM/BMP/EHdr/ENVI, AAIGrid/DTED/SRTM-HGT,
              WAV, MJPEG-AVI, DCT stand-in for the synthetic corpus.
  sources/    vector drivers (shp/gpkg/csv/geojson/kml/gpx/gml/mif/
              dxf/fgb/arrow + GeoParquet metadata, Lance adapter with
              parquet fallback) + deterministic synthetic generators.
  stages/     Ray Data stage builders (decode, warp, tile, join, ...).
  functions/  text analysis, dedup, similarity search, SQL engine.
  pipelines/  end-to-end composed pipelines (flagship tile+join);
              ``write_pyramid``'s resume manifest carries per-level
              lineage + metrics (tile counts, source fan-in, checksum
              digest), byte-identical for the same levels.

Nothing in this package calls ray.init()/ray.shutdown(); sessions are
owned by bench.py / tests / the driver.
"""

__version__ = "0.1.0"
