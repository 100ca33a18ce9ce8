"""Vector driver dispatch — the OGR driver-manager analog
(gcore/gdaldrivermanager.cpp): one `read_vector(path)` entry point.

Routing is one ordered driver table, ``_VECTOR``, of ``(name, identify,
open)`` entries built like the raster table (``raster._DRIVERS``, same
probe and helpers): the first entry whose ``identify(probe)`` holds
opens the file. Content sniffs are entries of their own, placed before
the extension entry they narrow (S-101 before S-57 on ``.000``, OSM
before MVT on ``.pbf``, NAS before GML on ``.xml``).
``vector_driver(path)`` names the entry that would open ``path``;
``register_vector_driver`` puts a user entry in front of the table
(Python driver plugin analog, gcore/gdalpythondriverloader.cpp)."""

from __future__ import annotations

import atexit
import hashlib
import os
import re
import shutil
import tempfile

import pyarrow as pa

from .raster import _ext, _fn, _path, _Probe

_TWIN_ROOT: str | None = None


class _Declined(Exception):
    """An open step's reader rejected a file its content sniff let
    through; routing goes on with the next entry that identifies it."""


def _or_next(ref: str):
    """open adapter for a sniff that a property value can fool (a
    JSON-FG or TopoJSON marker that is only content): a ValueError
    from the reader hands the file on."""
    def open_(p):
        try:
            return _fn(ref)(p.path)
        except ValueError as e:
            raise _Declined from e
    return open_


def _model(p):
    """The INTERLIS model beside a transfer file, None when absent."""
    imd = p.stem + ".imd"
    return imd if os.path.exists(imd) else None


def _first_layer(ref: str, model: bool = False, each: str | None = None):
    """open adapter for a reader of a whole multi-layer dataset: its
    first layer. ``ref`` returns ``{layer: table}``, or with ``each``
    only the layer names, the first then read by ``each(path, name)``;
    ``model`` passes the INTERLIS ``.imd`` model as a second argument."""
    def open_(p):
        layers = _fn(ref)(p.path, *((_model(p),) if model else ()))
        if not layers:
            raise ValueError(f"{p.path} has no layers")
        first = next(iter(layers))
        return _fn(each)(p.path, first) if each else layers[first]
    return open_


def _zip_names(p) -> list[str]:
    """Member base names of a zip archive probe, [] for anything else."""
    import zipfile
    if p.ext != "zip" or p.isdir:
        return []
    with zipfile.ZipFile(p.path) as zf:
        return [os.path.basename(n) for n in zf.namelist()]


def _nitf(p):
    raise ValueError(f"{p.path} is a NITF raster, not an NTF volume — "
                     "use read_raster")


def _arrow(p):
    # Arrow IPC file (the reference's Arrow driver,
    # ogr/ogrsf_frmts/arrow): the layer IS the record batch stream
    import pyarrow.ipc as ipc
    with ipc.open_file(p.path) as rd:
        return rd.read_all()


def _parquet(p):
    import pyarrow.parquet as pq
    return pq.read_table(p.path)


def _json_head(p) -> str:
    return p.head(8192).decode("utf-8", "replace")


_TOPOLOGY = re.compile(r'"type"\s*:\s*"Topology"')
_ESRI_MARKERS = ("esriGeometry", "objectIdFieldName", '"attributes"')
# S-100 Part 10a DSID field structure in the DDR leader, like the
# reference's OGRS101DriverIdentify (ogrs101drivercore.cpp:24)
_S101_DSID = (b"RCNM!RCID!ENSP!ENED!PRSP!PRED!PROF!DSNM!DSTL!DSRD!DSLG!"
              b"DSAB!DSED\\\\*DSTC")
_AVC_COVER = ("arc.adf", "lab.adf", "pal.adf", "ARC.ADF", "LAB.ADF",
              "PAL.ADF")

# (name, identify(probe), open(probe)) in routing order: the first
# entry whose identify holds opens the file
_VECTOR = (
    ("ESRI Shapefile", _ext("shp"), _path(".shapefile:read_shapefile")),
    ("GPKG", _ext("gpkg"), _path(".gpkg:read_gpkg")),
    ("CSV", _ext("csv"), _path(".csvio:read_csv")),
    ("GeoJSONSeq", _ext("geojsonl", "geojsons", "ndjson"),
     _path(".geojson:read_geojsonseq_table")),
    # .json names four formats: each sniff reads the first 8 KiB
    ("JSONFG", lambda p: p.ext == "json" and "json-fg" in _json_head(p)
     and "conformsTo" in _json_head(p), _or_next(".jsonfg:read_jsonfg_table")),
    ("TopoJSON", lambda p: p.ext == "json" and
     _TOPOLOGY.search(_json_head(p)) is not None,
     _or_next(".topojson:read_topojson_layer")),
    ("TopoJSON", _ext("topojson"), _path(".topojson:read_topojson_layer")),
    ("ESRIJSON", lambda p: p.ext == "json" and
     any(m in _json_head(p) for m in _ESRI_MARKERS),
     _path(".esrijson:read_esrijson")),
    ("ESRIJSON", _ext("esrijson"), _path(".esrijson:read_esrijson")),
    ("GeoJSON", _ext("geojson", "json"), _path(".geojson:read_geojson_table")),
    # PDS3 detached labels: ^TABLE labels are vector (ogr pds driver);
    # ^IMAGE/^QUBE labels belong to the raster reader
    ("PDS", _ext("lbl"), _path(".pdsvec:read_pds_table")),
    ("Interlis 2", _ext("xtf"), _first_layer(".ili2:read_ili2", model=True)),
    ("Interlis 1", _ext("itf"), _first_layer(".ili:read_ili1", model=True)),
    ("SXF", _ext("sxf"), _first_layer(".sxf:read_sxf")),
    ("SOSI", _ext("sos"), _first_layer(".sosi:read_sosi")),
    ("KML", _ext("kml"), _path(".kmlvec:read_kml_table")),
    ("FlatGeobuf", _ext("fgb"), _path(".flatgeobuf:read_fgb")),
    ("GPX", _ext("gpx"), _path(".gpx:read_gpx_table")),
    ("NITF", lambda p: p.ext == "ntf" and p.head(4) == b"NITF", _nitf),
    ("UK .NTF", _ext("ntf"), _path(".ntf:read_ntf")),
    ("EDIGEO", _ext("thf"), _path(".edigeo:read_edigeo")),
    ("TIGER", _ext("rt1"), _path(".tiger:read_tiger")),
    ("XODR", _ext("xodr"), _path(".xodr:read_xodr")),
    # NAS (ALKIS) documents are .xml with the AdV namespace
    ("NAS", lambda p: p.ext == "xml" and _fn(".nas:is_nas")(p.path),
     _path(".nas:read_nas")),
    ("LVBAG", lambda p: p.ext == "xml" and
     b"kadaster.nl/schemas" in p.head(8192),
     _first_layer(".lvbag:read_lvbag")),
    ("GeoRSS", lambda p: p.ext == "xml" and (
        b"<rss" in p.head(8192) or b"<feed" in p.head(8192)),
     _path(".georss:read_georss_table")),
    ("GML", _ext("gml", "xml"), _path(".gml:read_gml_table")),
    ("MapInfo File", _ext("mif"), _path(".mif:read_mif_table")),
    ("MapInfo File", _ext("tab"), _path(".tab:read_tab_table")),
    ("CAD", _ext("dwg"), _path(".cad:read_dwg_table")),
    ("DXF", _ext("dxf"), _path(".dxf:read_dxf_table")),
    ("Arrow", _ext("arrow", "arrows", "feather"), _arrow),
    ("Parquet", _ext("parquet"), _parquet),
    ("OpenFileGDB", _ext("gdb"), _first_layer(
        ".openfilegdb:list_gdb_layers", each=".openfilegdb:read_gdb_layer")),
    # .pbf is both MVT tiles and OSM extracts: an OSM file leads with a
    # 4-byte BE length + BlobHeader naming "OSMHeader"
    ("OSM", lambda p: p.ext == "osm" or (p.ext == "pbf" and (
        b"OSMHeader" in p.head(64) or p.path.endswith(".osm.pbf"))),
     _path(".osm:read_osm_table")),
    ("MVT", _ext("pbf", "mvt"), _path(".mvt:read_mvt_table")),
    ("PMTiles", _ext("pmtiles"), _path(".pmtiles:read_pmtiles_table")),
    ("OGR_GMT", _ext("gmt"), _path(".gmtvec:read_gmt_table")),
    ("JML", _ext("jml"), _path(".jml:read_jml_table")),
    ("XLSX", _ext("xlsx"), _path(".spreadsheet:read_xlsx_table")),
    ("ODS", _ext("ods"), _path(".spreadsheet:read_ods_table")),
    ("XLS", _ext("xls"), _path(".xls:read_xls_table")),
    ("DGN", _ext("dgn"), _path(".dgn:read_dgn_table")),
    ("AVCE00", _ext("e00"), _path(".avce00:read_e00_table")),
    ("AVCBin", lambda p: p.has_in_dir(*_AVC_COVER) or p.name in _AVC_COVER,
     _path(".avcbin:read_avcbin_table")),
    # a feed directory, or a bare feed .zip the zip front end hands on
    ("GTFS", lambda p: p.has_in_dir("stops.txt")
     or "stops.txt" in _zip_names(p), _path(".gtfs:read_gtfs_table")),
    ("VDV", _ext("idf", "x10"), _path(".vdv:read_vdv_table")),
    ("S101", lambda p: p.ext == "000" and b"DSID" in p.head(2048)
     and _S101_DSID in p.head(2048), _path(".s101:read_s101_table")),
    ("S57", _ext("000"), _path(".s57:read_s57_table")),
    ("MapML", _ext("mapml"), _path(".mapml:read_mapml_table")),
    ("SQLite", _ext("sqlite", "db"), _path(".sqlitevec:read_sqlite")),
    ("VFK", _ext("vfk"), _path(".vfk:read_vfk_table")),
    ("MiraMonVector", _ext("pnt", "arc", "pol"),
     _path(".miramon:read_miramon")),
    ("WAsP", _ext("map"), _path(".wasp:read_wasp")),
    ("Selafin", _ext("slf"), _first_layer(".selafin:read_selafin")),
)

# user entries by extension, routed before _VECTOR, newest first
_USER: dict[str, tuple] = {}


def _table():
    return (*reversed(_USER.values()), *_VECTOR)


def register_vector_driver(extension: str, reader) -> None:
    """Route files with ``extension`` (e.g. '.kml') to reader(path) ->
    pyarrow.Table, ahead of every built-in entry; ``vector_driver``
    names the entry by its extension."""
    if not callable(reader):
        raise TypeError("vector driver reader must be callable")
    ext = extension.lower().lstrip(".")
    _USER.pop(ext, None)
    _USER[ext] = (ext, _ext(ext), lambda p: reader(p.path))


def unregister_vector_driver(extension: str) -> None:
    """Undo ``register_vector_driver``: files with ``extension`` route
    through the built-in table again. KeyError when nothing is
    registered for it."""
    ext = extension.lower().lstrip(".")
    if ext not in _USER:
        raise KeyError(f"no registered vector driver for .{ext}")
    del _USER[ext]


def list_drivers() -> list[str]:
    """Vector format extensions the table routes by (driver-manager
    GetDriverCount/GetDriver analog)."""
    return sorted({e for _, identify, _ in _table()
                   if isinstance(identify, _ext) for e in identify})


def _archive_twin(archive: str, group: str, name: str, read) -> str:
    """Path of an extracted copy ("twin") of one archive member.

    Twins sit under one mkdtemp root per process, removed at exit, in a
    directory keyed on the archive's absolute path, size and mtime (and
    ``group``, which keeps a member's sidecars together): a rewritten
    archive gets fresh twins. ``read()`` returns the member's bytes; they
    are written to a temp name and renamed, so a killed writer never
    leaves a partial twin that a later read would trust."""
    global _TWIN_ROOT
    if _TWIN_ROOT is None:
        _TWIN_ROOT = tempfile.mkdtemp(prefix="gdal_ray_vsi_")
        atexit.register(shutil.rmtree, _TWIN_ROOT, ignore_errors=True)
    st = os.stat(archive)
    key = repr((os.path.abspath(archive), st.st_size, st.st_mtime_ns, group))
    out = os.path.join(_TWIN_ROOT,
                       hashlib.sha1(key.encode()).hexdigest()[:20])
    os.makedirs(out, exist_ok=True)
    dst = os.path.join(out, name)
    if not os.path.exists(dst):
        fd, tmp = tempfile.mkstemp(dir=out, prefix=".part-")
        with os.fdopen(fd, "wb") as f:
            f.write(read())
        os.replace(tmp, dst)
    return dst


def _resolve_zip(path: str) -> str:
    """/vsizip/ analog (port/cpl_vsil_gzip.cpp zip handler): a path
    like ``archive.zip/inner/layer.shp`` (or ``/vsizip/archive.zip/…``)
    extracts the member AND its sidecar siblings (same stem: .dbf/.shx/
    .prj/.mid/...) as archive twins and reads from there. A bare
    ``archive.zip`` is read as it stands when a table entry identifies
    the archive itself (a GTFS feed), else as its single vector
    member."""
    import zipfile

    if path.startswith("/vsizip/"):
        path = path[len("/vsizip/"):]
    low = path.lower()
    z = low.find(".zip")
    if z < 0:
        return path
    zpath = path[:z + 4]
    inner = path[z + 5:] if len(path) > z + 5 else ""
    if not os.path.exists(zpath):
        return path
    with zipfile.ZipFile(zpath) as zf:
        names = zf.namelist()
        if not inner:
            whole = _Probe(zpath)
            if any(identify(whole) for _, identify, _ in _table()):
                return zpath
            exts = set(list_drivers())
            cands = [n for n in names
                     if os.path.splitext(n)[1].lower().lstrip(".") in exts]
            if len(cands) != 1:
                raise ValueError(
                    f"{zpath}: specify the member to read "
                    f"(vector candidates: {cands})")
            inner = cands[0]
        stem = os.path.splitext(inner)[0]
        target = None
        for n in names:
            if os.path.splitext(n)[0] == stem:
                dst = _archive_twin(zpath, stem, os.path.basename(n),
                                    lambda n=n: zf.read(n))
                if n == inner:
                    target = dst
        if target is None:
            raise ValueError(f"{inner!r} not found in {zpath}")
        return target


def _probe(path: str) -> _Probe:
    """The probe of ``path`` after the archive front end: paths into
    zip archives and .gz files are read from extracted twins."""
    if ".zip" in path.lower():
        path = _resolve_zip(path)
    if path.lower().endswith(".gz"):
        # /vsigzip/ analog: decompress to an archive twin
        import gzip

        def inflate(gz=path):
            with gzip.open(gz, "rb") as f:
                return f.read()
        path = _archive_twin(path, "", os.path.basename(path)[:-3], inflate)
    return _Probe(path)


def _no_driver(p) -> ValueError:
    return ValueError(f"no vector driver identifies {p.path} "
                      f"(extensions: {list_drivers()})")


def vector_driver(path: str) -> str:
    """Name of the first table entry that identifies ``path``, the one
    ``read_vector(path)`` opens it with (GDALIdentifyDriver analog)."""
    p = _probe(path)
    for name, identify, _ in _table():
        if identify(p):
            return name
    raise _no_driver(p)


def read_vector(path: str) -> pa.Table:
    """Read any registered vector format into the engine's standard
    layer table (fid, wkb, envelope cols, attributes). Paths into zip
    archives (``archive.zip/layer.shp`` or ``/vsizip/…``) are handled
    transparently."""
    p = _probe(path)
    declined = None
    for _, identify, open_ in _table():
        if identify(p):
            try:
                return open_(p)
            except _Declined as e:
                declined = e.__cause__
    raise declined or _no_driver(p)


def read_vector_dataset(path: str):
    import ray.data as rd
    return rd.from_arrow(read_vector(path))


def write_arrow(table: pa.Table, path: str) -> int:
    """Write a layer as an Arrow IPC file (Arrow batch sink,
    ogrlayerarrow.cpp:6077 analog)."""
    import pyarrow.ipc as ipc
    with ipc.new_file(path, table.schema) as wr:
        wr.write_table(table)
    return table.num_rows
