"""Vector driver dispatch — the OGR driver-manager analog
(gcore/gdaldrivermanager.cpp): one `read_vector(path)` entry point that
routes by file extension (or sniff) to the registered reader, plus a
user-registration hook for new formats (Python driver plugin analog,
gcore/gdalpythondriverloader.cpp)."""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import tempfile

import pyarrow as pa

_READERS: dict[str, object] = {}
_TWIN_ROOT: str | None = None


def register_vector_driver(extension: str, reader) -> None:
    """Register reader(path) -> pyarrow.Table for a file extension
    (e.g. '.kml'). User hook; built-ins are pre-registered below."""
    if not callable(reader):
        raise TypeError("vector driver reader must be callable")
    _READERS[extension.lower().lstrip(".")] = reader


def list_drivers() -> list[str]:
    """Registered vector format extensions (driver-manager
    GetDriverCount/GetDriver analog)."""
    return sorted(_READERS)


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
    ``archive.zip`` picks the single vector member inside."""
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
            cands = [n for n in names
                     if os.path.splitext(n)[1].lower().lstrip(".")
                     in _READERS]
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


def read_vector(path: str) -> pa.Table:
    """Read any registered vector format into the engine's standard
    layer table (fid, wkb, envelope cols, attributes). Paths into zip
    archives (``archive.zip/layer.shp`` or ``/vsizip/…``) are handled
    transparently."""
    if ".zip" in path.lower():
        path = _resolve_zip(path)
    if path.lower().endswith(".gz"):
        # /vsigzip/ analog: decompress to an archive twin
        import gzip

        def inflate(gz=path):
            with gzip.open(gz, "rb") as f:
                return f.read()
        path = _archive_twin(path, "", os.path.basename(path)[:-3], inflate)
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    reader = _READERS.get(ext)
    if reader is None:
        raise ValueError(f"no vector driver registered for .{ext} "
                         f"(have: {sorted(_READERS)})")
    return reader(path)


def read_vector_dataset(path: str):
    import ray.data as rd
    return rd.from_arrow(read_vector(path))


def _builtin(ext):
    def deco(fn):
        _READERS[ext] = fn
        return fn
    return deco


@_builtin("shp")
def _read_shp(path):
    from .shapefile import read_shapefile
    return read_shapefile(path)


@_builtin("gpkg")
def _read_gpkg(path):
    from .gpkg import read_gpkg
    return read_gpkg(path)


@_builtin("csv")
def _read_csv(path):
    from .csvio import read_csv
    return read_csv(path)


@_builtin("geojson")
def _read_geojson(path):
    from .geojson import read_geojson_table
    return read_geojson_table(path)


@_builtin("geojsonl")
def _read_geojsonseq(path):
    from .geojson import read_geojsonseq_table
    return read_geojsonseq_table(path)


_READERS["geojsons"] = _read_geojsonseq   # .geojsons alias (RFC 8142)
_READERS["ndjson"] = _read_geojsonseq


@_builtin("json")
def _read_json(path):
    """.json is ambiguous: route by content like the reference's
    driver-identify pass — ESRIJSON featureSets carry esriGeometry
    markers / attributes-keyed features, TopoJSON declares
    type=Topology, everything else is GeoJSON."""
    head = open(path, encoding="utf-8", errors="replace").read(8192)
    if "json-fg" in head and "conformsTo" in head:
        from .jsonfg import read_jsonfg_table
        try:
            return read_jsonfg_table(path)
        except ValueError:
            pass
    if '"Topology"' in head:
        from .topojson import read_topojson_layer
        try:
            return read_topojson_layer(path)
        except ValueError:
            pass        # "Topology" was a property value, not the type
    if ("esriGeometry" in head or "objectIdFieldName" in head
            or '"attributes"' in head):
        from .esrijson import read_esrijson
        return read_esrijson(path)
    from .geojson import read_geojson_table
    return read_geojson_table(path)


_READERS["esrijson"] = lambda path: __import__(
    "gdal_ray.sources.esrijson", fromlist=["read_esrijson"]
).read_esrijson(path)


@_builtin("lbl")
def _read_pds_lbl(path):
    """PDS3 detached labels: ^TABLE labels are vector (ogr pds
    driver); ^IMAGE/^QUBE labels belong to the raster reader."""
    from .pdsvec import read_pds_table
    return read_pds_table(path)


@_builtin("xtf")
def _read_ili2(path):
    import os
    from .ili2 import read_ili2
    imd = os.path.splitext(path)[0] + ".imd"
    layers = read_ili2(path, imd if os.path.exists(imd) else None)
    if not layers:
        raise ValueError("empty XTF transfer file")
    return next(iter(layers.values()))


@_builtin("itf")
def _read_ili1(path):
    import os
    from .ili import read_ili1
    imd = os.path.splitext(path)[0] + ".imd"
    if not os.path.exists(imd):
        raise ValueError("INTERLIS 1 needs a sibling .imd model file")
    layers = read_ili1(path, imd)
    if not layers:
        raise ValueError("empty ITF transfer file")
    return next(iter(layers.values()))


@_builtin("sxf")
def _read_sxf(path):
    from .sxf import read_sxf
    layers = read_sxf(path)
    if not layers:
        raise ValueError("empty SXF file")
    return next(iter(layers.values()))


@_builtin("sos")
def _read_sosi(path):
    from .sosi import read_sosi
    layers = read_sosi(path)
    if not layers:
        raise ValueError("empty SOSI file")
    return next(iter(layers.values()))


@_builtin("kml")
def _read_kml(path):
    from .kmlvec import read_kml_table
    return read_kml_table(path)


@_builtin("fgb")
def _read_fgb(path):
    from .flatgeobuf import read_fgb
    return read_fgb(path)


@_builtin("gpx")
def _read_gpx(path):
    from .gpx import read_gpx_table
    return read_gpx_table(path)


@_builtin("gml")
def _read_gml(path):
    from .gml import read_gml_table
    return read_gml_table(path)


@_builtin("ntf")
def _read_ntf_vector(path):
    with open(path, "rb") as fh:
        if fh.read(4) == b"NITF":
            raise ValueError(
                f"{path} is a NITF raster, not an NTF volume — "
                "use read_raster")
    from .ntf import read_ntf
    return read_ntf(path)


@_builtin("thf")
def _read_edigeo(path):
    from .edigeo import read_edigeo
    return read_edigeo(path)


@_builtin("rt1")
def _read_tiger(path):
    from .tiger import read_tiger
    return read_tiger(path)


@_builtin("xodr")
def _read_xodr(path):
    from .xodr import read_xodr
    return read_xodr(path)


@_builtin("xml")
def _read_xml_vector(path):
    # NAS (ALKIS) documents are .xml with the AdV namespace; plain
    # GML-ish .xml falls through to the GML reader
    from .nas import is_nas, read_nas
    if is_nas(path):
        return read_nas(path)
    from .gml import read_gml_table
    return read_gml_table(path)


@_builtin("mif")
def _read_mif(path):
    from .mif import read_mif_table
    return read_mif_table(path)


@_builtin("tab")
def _read_tab(path):
    from .tab import read_tab_table
    return read_tab_table(path)


@_builtin("dwg")
def _read_dwg(path):
    from .cad import read_dwg_table
    return read_dwg_table(path)


@_builtin("dxf")
def _read_dxf(path):
    from .dxf import read_dxf_table
    return read_dxf_table(path)


@_builtin("arrow")
def _read_arrow(path):
    # Arrow IPC file (the reference's Arrow driver,
    # ogr/ogrsf_frmts/arrow): the layer IS the record batch stream
    import pyarrow.ipc as ipc
    with ipc.open_file(path) as rd:
        return rd.read_all()


_READERS["arrows"] = _read_arrow
_READERS["feather"] = _read_arrow


def write_arrow(table: pa.Table, path: str) -> int:
    """Write a layer as an Arrow IPC file (Arrow batch sink,
    ogrlayerarrow.cpp:6077 analog)."""
    import pyarrow.ipc as ipc
    with ipc.new_file(path, table.schema) as wr:
        wr.write_table(table)
    return table.num_rows


@_builtin("parquet")
def _read_parquet(path):
    import pyarrow.parquet as pq
    return pq.read_table(path)


@_builtin("gdb")
def _read_gdb(path):
    """Esri File Geodatabase directory: first (or only) user layer;
    use sources.openfilegdb.read_gdb_layer for a specific one."""
    from .openfilegdb import list_gdb_layers, read_gdb_layer
    layers = list_gdb_layers(path)
    if not layers:
        raise ValueError(f"{path} has no user layers")
    return read_gdb_layer(path, layers[0])


@_builtin("pbf")
def _read_mvt(path):
    # .pbf is both MVT tiles and OSM extracts: an OSM file leads with
    # a 4-byte BE length + BlobHeader naming "OSMHeader"
    head = open(path, "rb").read(64)
    if b"OSMHeader" in head or path.endswith(".osm.pbf"):
        from .osm import read_osm_table
        return read_osm_table(path, "points")
    from .mvt import read_mvt_table
    return read_mvt_table(path)


@_builtin("osm")
def _read_osm(path):
    from .osm import read_osm_table
    return read_osm_table(path, "points")


_READERS["mvt"] = _read_mvt


@_builtin("topojson")
def _read_topojson(path):
    from .topojson import read_topojson_layer
    return read_topojson_layer(path)


@_builtin("pmtiles")
def _read_pmtiles(path):
    from .pmtiles import read_pmtiles_table
    return read_pmtiles_table(path)


@_builtin("gmt")
def _read_gmt(path):
    from .gmtvec import read_gmt_table
    return read_gmt_table(path)


@_builtin("jml")
def _read_jml(path):
    from .jml import read_jml_table
    return read_jml_table(path)


@_builtin("xlsx")
def _read_xlsx(path):
    from .spreadsheet import read_xlsx_table
    return read_xlsx_table(path)


@_builtin("ods")
def _read_ods(path):
    from .spreadsheet import read_ods_table
    return read_ods_table(path)


@_builtin("xls")
def _read_xls(path):
    from .xls import read_xls_table
    return read_xls_table(path)


@_builtin("dgn")
def _read_dgn(path):
    from .dgn import read_dgn_table
    return read_dgn_table(path)


@_builtin("e00")
def _read_e00(path):
    from .avce00 import read_e00_table
    return read_e00_table(path)


@_builtin("idf")
def _read_idf(path):
    from .vdv import read_vdv_table
    return read_vdv_table(path)


@_builtin("x10")
def _read_x10(path):
    from .vdv import read_vdv_table
    return read_vdv_table(path)


@_builtin("000")
def _read_s57(path):
    # S-101 shares the .000 extension with S-57; identify it by the
    # S-100 Part 10a DSID field structure in the DDR leader, like the
    # reference's OGRS101DriverIdentify (ogrs101drivercore.cpp:24)
    with open(path, "rb") as f:
        leader = f.read(2048)
    if (b"DSID" in leader and
            b"RCNM!RCID!ENSP!ENED!PRSP!PRED!PROF!DSNM!DSTL!DSRD!DSLG!"
            b"DSAB!DSED\\\\*DSTC" in leader):
        from .s101 import read_s101_table
        return read_s101_table(path)
    from .s57 import read_s57_table
    return read_s57_table(path)


def read_gtfs(path):
    """GTFS feed (zip or directory) — stops layer by default."""
    from .gtfs import read_gtfs_table
    return read_gtfs_table(path)


@_builtin("mapml")
def _read_mapml(path):
    from .mapml import read_mapml_table
    return read_mapml_table(path)


@_builtin("sqlite")
def read_sqlite_builtin(path):
    from .sqlitevec import read_sqlite
    return read_sqlite(path)


@_builtin("db")
def read_sqlite_db(path):
    from .sqlitevec import read_sqlite
    return read_sqlite(path)


@_builtin("vfk")
def read_vfk_builtin(path):
    from .vfk import read_vfk_table
    return read_vfk_table(path)


@_builtin("pnt")
def read_miramon_pnt(path):
    from .miramon import read_miramon
    return read_miramon(path)


@_builtin("arc")
def read_miramon_arc(path):
    from .miramon import read_miramon
    return read_miramon(path)


@_builtin("pol")
def read_miramon_pol(path):
    from .miramon import read_miramon
    return read_miramon(path)
