"""Raster driver dispatch — GDALOpen's path-based routing for rasters.

One ``read_raster(path)`` entry point returning ``(pixels, geotransform,
nodata, meta)`` for every raster format this engine reads. Routing is
one ordered driver table, ``_DRIVERS``, of ``(name, identify, open)``
entries (GDALDriver ``pfnIdentify``/``pfnOpen``,
gcore/gdaldrivermanager.cpp): the first entry whose ``identify(probe)``
holds opens the file, and the image codec table
(``codecs._CODECS``) is the last entry. ``raster_driver(path)`` names
the entry that would open ``path``. World-file and PAM sidecars fill in
georeferencing the payload cannot carry (gcore/gdaldataset.cpp open
logic + gdalpamdataset.cpp override order: PAM wins over internal,
world file fills absent geotransforms)."""

from __future__ import annotations

import functools
import importlib
import os

import numpy as np

__all__ = ["read_raster", "raster_driver", "overview_count"]


def overview_count(path: str) -> int:
    """Number of reduced-resolution levels available (internal IFD
    chain + external .ovr — gdaldefaultoverviews.cpp order)."""
    from ..codecs.overviews import read_overviews
    return len(read_overviews(path))


def _is_cpg(path: str) -> bool:
    """FindType1/2 gate (cpgdataset.cpp:274-319): a Convair PolGASP
    name pattern AND the companion .hdr/.img must exist."""
    name = os.path.basename(path)
    sirc = name.upper().endswith(("SIRC.HDR", "SIRC.IMG"))
    t1 = (("sso" in name.lower() or "polgasp" in name.lower())
          and any(p in name.lower() for p in ("hh", "hv", "vv", "vh")))
    if not (sirc or t1):
        return False
    from ..codecs.rawexotic import _cpg_adjust
    pol = "" if sirc else "hh"
    return bool(_cpg_adjust(path, pol, "hdr")
                and _cpg_adjust(path, pol, "img"))


def _head_of(fname: str, n: int) -> bytes:
    """First ``n`` bytes of a sidecar, b"" when it does not exist."""
    if not os.path.isfile(fname):
        return b""
    with open(fname, "rb") as fh:
        return fh.read(n)


class _Probe:
    """What identify/open see of one path: its name parts, its head
    (at least 1536 bytes, cached) and, only when an entry asks, its
    whole bytes, read once. Every read closes its file."""

    def __init__(self, path: str):
        self.path = path
        self.name = os.path.basename(path)
        self.stem, ext = os.path.splitext(path)
        self.ext = ext.lower().lstrip(".")
        self.isdir = os.path.isdir(path)
        self._head, self._n = b"", 0
        self._data: bytes | None = None

    def head(self, n: int = 64) -> bytes:
        if self.isdir:
            return b""
        if self._data is None and n > self._n:
            self._n = max(n, 1536)
            with open(self.path, "rb") as fh:
                self._head = fh.read(self._n)
        return (self._data if self._data is not None else self._head)[:n]

    def data(self) -> bytes:
        if self._data is None:
            with open(self.path, "rb") as fh:
                self._data = fh.read()
        return self._data

    def text(self) -> str:
        with open(self.path, errors="replace") as fh:
            return fh.read()

    def has(self, suffix: str) -> bool:
        return os.path.exists(self.path + suffix)

    def has_in_dir(self, *names: str) -> bool:
        return self.isdir and any(
            os.path.exists(os.path.join(self.path, n)) for n in names)

    @functools.cached_property
    def hdr(self) -> str | None:
        """The EHdr/ENVI ``.hdr`` sidecar text (``stem.hdr`` first)."""
        for cand in (self.stem + ".hdr", self.path + ".hdr"):
            if os.path.exists(cand):
                with open(cand, errors="replace") as fh:
                    return fh.read()
        return None


def _fn(ref: str):
    """``"module:function"``, imported on call: a bare module name is a
    codec module, ``.name`` a module beside this one."""
    mod, name = ref.split(":")
    mod = mod if mod.startswith(".") else "..codecs." + mod
    return getattr(importlib.import_module(mod, __package__), name)


class _ext(tuple):
    """identify by extension alone; the entry's extensions are the
    tuple itself, so a table can list them"""

    def __new__(cls, *exts: str):
        return super().__new__(cls, exts)

    def __call__(self, p) -> bool:
        return p.ext in self


def _bytes(ref: str):
    return lambda p: _fn(ref)(p.data())


def _path(ref: str):
    return lambda p: _fn(ref)(p.path)


def _text(ref: str):
    return lambda p: _fn(ref)(p.text())


# -- open adapters: decoders that take other arguments or return another
# shape than (px[, gt[, nodata[, meta]]])

def _vrt(p):
    v = _fn(".vrt:read_vrt")(p.path)
    meta = dict(v.metadata)
    if v.crs:
        meta["crs"] = v.crs
    return v.pixels, v.geotransform, v.nodata, meta


def _cphd(p):
    cf = _fn("cphd:read_cphd")(p.path)
    ch = next(iter(cf.channels.values()))
    return ch.signal, None, None, {**cf.attributes, "pvp": ch.pvp}


def _hgt(p):
    return _fn("srtmhgt:decode_hgt")(p.data(), p.path)


def _sar_ceos(p):
    sar = _fn("sarceos:read_sar_ceos")(p.path)
    px = sar.pixels[0] if sar.pixels.shape[0] == 1 else \
        np.moveaxis(sar.pixels, 0, -1)
    meta = dict(sar.metadata)
    if sar.gcps:
        meta["gcps"] = sar.gcps
    return px, None, None, meta


def _lerc(p):
    return _fn("lerc:decode_lerc")(p.data()), None, None, \
        {"driver": "LERC"}


def _adrg(p):
    from ..codecs.adrg import decode_adrg, decode_srp
    if p.ext == "img":          # ADRG opened via the .IMG; sidecars
        p.path = p.stem + ".GEN"    # are then looked up beside the .GEN
    try:
        return decode_adrg(p.path)
    except (ValueError, KeyError):
        return decode_srp(p.path)


def _envi(p):
    return _fn("ehdr:decode_envi")(p.hdr, p.data())


def _ehdr(p):
    if p.hdr is None:
        raise ValueError(f"no .hdr sidecar for {p.path}")
    return _fn("ehdr:decode_ehdr")(p.hdr, p.data())


def _gtiff(p):
    g = _fn("gtiff:decode_gtiff")(p.data())
    return g.pixels, g.geotransform, g.nodata, \
        {"crs": g.crs} if g.crs else {}


def _hdf5(p):
    from ..codecs.hdf5 import decode_hdf5, load_hdf5_bytes
    from ..codecs.s100 import decode_s100
    buf = load_hdf5_bytes(p.path)
    try:
        return decode_s100(buf)
    except ValueError:
        return decode_hdf5(buf)


def _loslas(p):
    return _fn("rawgrids:decode_loslas")(p.data(), p.ext)


_RAW = ("bil", "bsq", "bip", "img", "dat", "raw")
_CEOS = b"\x3f\xc0\x12\x12"

# (name, identify(probe), open(probe)) in routing order: the first
# entry whose identify holds opens the file
_DRIVERS = (
    ("DIMAP", lambda p: p.name.upper() == "METADATA.DIM" or (
        p.ext == "xml" and p.name.upper().startswith(("DIM_", "VOL_"))),
     _path("dimap:decode_dimap")),
    ("VRT", _ext("vrt"), _vrt),
    ("Surfer", lambda p: p.ext == "grd" and
     p.head(4) in (b"DSAA", b"DSBB", b"DSRB"),
     _bytes("rawgrids:decode_surfer")),
    ("NWT_GRD", lambda p: p.ext in ("grd", "grc") and
     p.head(5) == b"HGPC1", _bytes("northwood:decode_nwt_grd")),
    ("NWT_GRC", lambda p: p.ext in ("grd", "grc") and p.head(4) == b"HGPC",
     _bytes("northwood:decode_nwt_grc")),
    # GMT classic grids are plain netCDF under a .grd name
    ("netCDF", lambda p: p.ext == "grd" and p.head(3) == b"CDF",
     _bytes("netcdf:decode_netcdf")),
    # R raster package INI header ([general]/[georeference] sections in
    # any order) + .gri payload
    ("RRASTER", lambda p: p.ext == "grd" and p.head(1) == b"[",
     _path("rawgrids:decode_rraster")),
    ("AAIGrid", _ext("asc", "grd", "agr"), _text("aaigrid:decode_aaigrid")),
    ("XYZ", _ext("xyz"), _text(".xyzgrid:decode_xyz")),
    ("TERRAGEN", lambda p: p.ext == "ter" and p.head(8) == b"TERRAGEN",
     _bytes("rawgrids:decode_terragen")),
    ("LEVELLER", _ext("ter"), _bytes("rawgrids:decode_leveller")),
    ("BT", _ext("bt"), _bytes("rawgrids:decode_bt")),
    ("PCRaster", lambda p: p.ext == "map" and p.head(3) == b"RUU",
     _bytes("rawgrids:decode_pcraster")),
    ("MAP", lambda p: p.ext == "map" and
     b"OziExplorer Map Data File" in p.head(256),
     _path(".ozimap:read_ozi_map")),
    ("KTX2", lambda p: p.ext == "ktx2" or
     p.head(12) == b"\xabKTX 20\xbb\r\n\x1a\n",
     _bytes("ktx2:read_ktx2")),
    ("RIK", lambda p: p.ext == "rik" or p.head(6)[2:6] == b"RIK3",
     _bytes("rik:decode_rik")),
    ("MSGN", lambda p: p.head(36) == b"FormatName                  : NATIVE",
     _path("msgn:read_msgn")),
    ("ENVISAT", lambda p: p.head(8) == b"PRODUCT=",
     _path("envisat:read_envisat")),
    ("AirSAR", lambda p: p.head(22).upper().startswith(
        b"RECORD LENGTH IN BYTES"), _bytes("airsar:decode_airsar")),
    ("COASP", lambda p: p.ext == "hdr" and
     p.head(18).lower() == b"time_first_datarec",
     _path("coasp:read_coasp")),
    ("TSX", lambda p: p.name.upper().startswith(("TSX1_SAR", "TDX1_SAR")),
     _path(".tsx:read_tsx")),
    ("JAXAPALSAR", lambda p: p.name.upper().startswith("VOL-ALPSR"),
     _path("palsar:read_palsar")),
    ("COSAR", lambda p: p.ext == "cos" or p.head(32)[28:32] == b"CSAR",
     _bytes("cosar:decode_cosar")),
    ("GFF", lambda p: p.ext == "gff" or
     p.head(7).upper().startswith(b"GSATIMG"),
     _bytes("gff:decode_gff")),
    ("ROI_PAC", lambda p: p.ext in ("slc", "int", "unw", "cor", "msk", "flg",
                                    "amp", "dem", "hgt", "raw")
     and p.has(".rsc"), _path("rawgrids:decode_roipac")),
    ("SNODAS", lambda p: p.ext == "hdr" and b"NOHRSC" in p.head(64),
     _path("rawgrids:decode_snodas")),
    ("BSB", _ext("kap", "no1"), _bytes("bsb:decode_bsb")),
    ("PDF", _ext("pdf"), _path("pdf:read_pdf")),
    ("EXR", _ext("exr"), _path("exr:read_exr")),
    ("HEIF", _ext("heic", "heif", "avif"), _path("heif:read_heif")),
    ("E57", _ext("e57"), _path("e57:read_e57")),
    ("CPHD", _ext("cphd"), _cphd),
    ("SRTMHGT", _ext("hgt"), _hgt),   # .hgt + .rsc is ROI_PAC
    ("FAST", lambda p: b"ACQUISITION DATE" in p.head(1536) and
     b"SATELLITE" in p.head(1536), _path("fast:decode_fast")),
    ("DOQ2", lambda p: p.head(24).startswith(b"BEGIN_USGS_DOQ_HEADER"),
     _path("rawexotic:decode_doq2")),
    ("DOQ1", _ext("doq"), _path("rawexotic:decode_doq1")),
    ("ILWIS", _ext("mpr"), _path("ilwis:decode_ilwis")),
    ("CPG", lambda p: p.ext in ("hdr", "img") and _is_cpg(p.path),
     _path("rawexotic:decode_cpg")),
    ("EIR", lambda p: p.ext == "hdr" and b"IMAGINE_RAW_FILE" in p.head(64),
     _path("rawexotic:decode_eir")),
    ("MFF", lambda p: p.ext == "hdr" and b"IMAGE_FILE_FORMAT" in p.head(256),
     _path("rawexotic:decode_mff")),
    ("NOAA_B", _ext("b"), _bytes("rawexotic:decode_noaab")),
    ("LCP", _ext("lcp"), _bytes("rawexotic:decode_lcp")),
    ("SIGDEM", _ext("sigdem"), _bytes("rawexotic:decode_sigdem")),
    ("ZMap", lambda p: p.ext == "zmap" or (
        p.ext == "dat" and p.head(1) in (b"!", b"@")
        and b"GRID" in p.head(512)), _text("rawexotic:decode_zmap")),
    ("PCIDSK", lambda p: p.ext == "pix" and p.head(6) == b"PCIDSK",
     _path("rawexotic:decode_pcidsk")),
    ("HF2", lambda p: p.ext in ("hf2", "hfz") or p.head(4) == b"HF2\x00",
     _bytes("rawexotic:decode_hf2")),
    ("PMTiles", _ext("pmtiles"), _path(".pmtiles:read_pmtiles_raster")),
    ("ESRIC", _ext("tpkx"), _path("esric:decode_tpkx")),
    ("TIL", _ext("til"), _path("rawexotic:decode_til")),
    ("CALS", lambda p: p.ext in ("cal", "ct1") or (
        b"rtype: 1" in p.head(1536) and b"rpelcnt:" in p.head(1536)),
     _bytes("cals:decode_cals")),
    ("RPFTOC", lambda p: p.ext == "toc" or p.name.upper() == "A.TOC",
     _path("rpf:decode_rpftoc")),
    ("RPF", lambda p: len(p.ext) == 3 and p.ext[:2] == "on" and
     p.head(4) == b"NITF", _path("rpf:read_rpf_frame")),
    ("BAG", _ext("bag"), _bytes("bag:decode_bag")),
    ("SAR_CEOS", lambda p: p.head(8)[4:8] == _CEOS and
     p.head(28)[16:28] == b"CEOS-SAR-CCT", _sar_ceos),
    ("CEOS", lambda p: p.head(8)[4:8] == _CEOS, _path("ceos:decode_ceos")),
    ("L1B", _ext("l1b"), _path("l1b:decode_l1b")),
    ("ESRIC", lambda p: p.ext == "xml" and
     b"esriMapCacheStorageModeCompactV2" in p.data(),
     _path("esric:decode_esric")),
    ("RS2", lambda p: p.ext == "xml" and
     b"fullResolutionImageData" in p.head(8192),
     _path("rs2:decode_rs2")),
    ("STACTA", lambda p: p.ext == "json" and b"tile_matrix_sets" in p.data(),
     _path(".stacta:decode_stacta")),
    ("STACIT", lambda p: p.ext == "json" and b"proj:transform" in p.data(),
     _path(".stacta:decode_stacit")),
    ("MRF", lambda p: p.ext == "mrf" or p.head(10) == b"<MRF_META>",
     _path("mrf:decode_mrf")),
    ("LERC", lambda p: p.ext == "lrc" or p.head(10) == b"CntZImage "
     or p.head(6) == b"Lerc2 ", _lerc),
    ("ADRG", lambda p: p.ext in ("gen", "thf") or (
        p.ext == "img" and os.path.exists(p.stem + ".GEN")), _adrg),
    ("PRF", lambda p: p.ext == "prf" or p.path.lower().endswith(".x-dem"),
     _path("prf:decode_prf")),
    ("KRO", _ext("kro"), _bytes("rawexotic:decode_kro")),
    ("ACE2", _ext("ace2"), _path("rawexotic:decode_ace2")),
    ("NSIDCbin", lambda p: p.ext == "bin" and
     p.name.lower().startswith("nt_"),
     _path("rawexotic:decode_nsidcbin")),
    ("NDF", lambda p: len(p.ext) == 2 and p.ext[0] == "h" and
     p.ext[1].isdigit() and p.head(16).startswith(b"NDF_REVISION"),
     _path("rawexotic:decode_ndf")),
    ("ISCE", lambda p: b"<imageFile" in _head_of(p.path + ".xml", 256),
     _path("rawexotic:decode_isce")),
    ("CTG", lambda p: "grid_cell" in p.name.lower(),
     _path("rawexotic:decode_ctg")),
    ("IRIS", lambda p: p.head(2) == b"\x1b\x00" and
     p.head(14)[12:14] == b"\x1a\x00", _bytes("iris:decode_iris")),
    ("RMF", lambda p: p.ext in ("rsw", "mtw") or p.head(4) in (
        b"RSW\x00", b"MTW\x00", b"\x00WSR", b"\x00WTM"),
     _bytes("rmf:decode_rmf")),
    ("MFF2", lambda p: p.has_in_dir("attrib") and p.has_in_dir("image_data"),
     _path("rawexotic:decode_mff2")),
    ("AIG", lambda p: p.has_in_dir("hdr.adf", "HDR.ADF") or p.ext == "adf",
     _path("aig:decode_aig")),
    ("TGA", _ext("tga"), _bytes("tga:decode_tga")),
    ("DDS", _ext("dds"), _bytes("dds:decode_dds")),
    ("DTED", _ext("dt0", "dt1", "dt2"), _bytes("dted:decode_dted")),
    ("HFA", lambda p: p.ext in ("img", "rrd", "aux") and
     p.head(15) == b"EHFA_HEADER_TAG", _path("hfa:decode_hfa")),
    ("PDS", lambda p: p.ext in ("lbl", "img", "dat") and
     b"PDS_VERSION_ID" in p.head(32768), _path("pds:decode_pds")),
    ("ISIS3", lambda p: p.ext in ("cub", "lbl") and
     b"IsisCube" in p.head(32768), _path("isis3:decode_isis3")),
    ("ISIS2", lambda p: p.ext in ("cub", "lbl") and
     b"^QUBE" in p.head(32768), _path("isis2:decode_isis2")),
    ("PDS4", lambda p: p.ext == "xml" and
     b"Product_Observational" in p.head(32768),
     _path("pds4:decode_pds4")),
    ("VICAR", lambda p: p.ext in ("vic", "vicar", "img", "bin") and
     p.head(8).startswith(b"LBLSIZE"), _bytes("vicar:decode_vicar")),
    ("NITF", _ext("ntf", "nitf", "nsf", "r0"), _bytes("nitf:decode_nitf")),
    ("PAux", lambda p: p.ext in _RAW and
     b"AuxilaryTarget" in _head_of(p.stem + ".aux", 128),
     _path("rawexotic:decode_paux")),
    ("GenBin", lambda p: p.ext in _RAW and p.hdr is not None and
     "INTERLEAVING" in p.hdr and "BANDS" in p.hdr,
     _path("rawexotic:decode_genbin")),
    ("ENVI", lambda p: p.ext in _RAW and p.hdr is not None and
     "samples" in p.hdr.lower() and "interleave" in p.hdr.lower(), _envi),
    ("EHdr", lambda p: p.ext in _RAW, _ehdr),
    ("GTiff", _ext("tif", "tiff"), _gtiff),
    ("netCDF", _ext("nc", "cdf", "nc4"), _bytes("netcdf:decode_netcdf")),
    # .hdf is ambiguous: HDF4 magic 0e 03 13 01 vs HDF5 \x89HDF
    ("HDF4", lambda p: p.ext == "hdf" and p.head(4) == b"\x0e\x03\x13\x01",
     _path("hdf4:decode_hdf4")),
    ("HDF5", _ext("h5", "hdf5", "he5", "hdf"), _hdf5),
    ("JP2", _ext("jp2", "j2k", "jpc", "jpx"), _bytes("jp2:decode_jp2")),
    ("GRIB", _ext("grb2", "grib2", "grb", "grib"),
     _bytes("grib2:decode_grib2")),
    ("NTv2", _ext("gsb", "gvb"), _bytes("ntv2:decode_ntv2")),
    ("GTX", _ext("gtx"), _bytes("rawgrids:decode_gtx")),
    ("LAN", _ext("lan", "gis"), _bytes("rawgrids:decode_lan")),
    ("ERS", _ext("ers"), _path("rawgrids:decode_ers")),
    ("SAGA", _ext("sdat", "sgrd"), _path("rawgrids:decode_saga")),
    ("RST", _ext("rst"), _path("rawgrids:decode_rst")),
    ("GXF", _ext("gxf"), _bytes("rawgrids:decode_gxf")),
    ("LOSLAS", _ext("los", "las", "geo"), _loslas),
    ("BYN", _ext("byn"), _bytes("rawgrids:decode_byn")),
    ("ISG", _ext("isg"), _bytes("rawgrids:decode_isg")),
    ("JDEM", _ext("mem"), _bytes("rawgrids:decode_jdem")),
    ("USGSDEM", _ext("dem"), _bytes("usgsdem:decode_usgsdem")),
    ("GSC", _ext("gsc"), _bytes("rawgrids:decode_gsc")),
    ("RRASTER", _ext("gri"), _path("rawgrids:decode_rraster")),
    ("FITS", _ext("fits"), _bytes("rawgrids:decode_fits")),
    ("RasterLite2", _ext("rl2"), _path(".rasterlite2:read_rl2")),
    ("GTI", lambda p: p.path.lower().endswith(".gti.gpkg"),
     _path(".gti:decode_gti")),
    ("GPKG", _ext("gpkg"), _path(".gpkg:read_gpkg_raster")),
    ("Zarr", lambda p: p.ext == "zarr" or p.has_in_dir(".zarray", ".zgroup"),
     _path(".zarr:read_zarr")),
)

_PREFIXES = (("DERIVED_SUBDATASET:", "DERIVED"), ("HEIF:", "HEIF"),
             ("E57:", "E57"))


def _route(p: _Probe):
    """(name, open) of the first entry that identifies ``p``; the codec
    table is the last entry (the extension tags a codec when it names
    one, else the magic sniffers decide)."""
    for name, identify, open_ in _DRIVERS:
        if identify(p):
            return name, open_
    from .. import codecs
    c = codecs.find(p.head(8192),
                    p.ext if p.ext in codecs._CODECS else None)
    return c.name, lambda p: c.decode(p.data())


def raster_driver(path: str) -> str:
    """Name of the driver ``read_raster(path)`` opens ``path`` with
    (GDALIdentifyDriver analog)."""
    for prefix, name in _PREFIXES:
        if path.startswith(prefix):
            return name
    return _route(_Probe(path))[0]


def read_raster(path: str, overview: int | None = None):
    """Open any supported raster → (pixels (h, w[, b]), geotransform |
    None, nodata | None, meta dict).

    ``overview=k`` selects the k-th reduced-resolution level (internal
    GTiff/COG IFD chain first, then external ``<path>.ovr`` — GDAL's
    GetOverview(k) order); the returned geotransform is rescaled to
    the overview grid."""
    from .sidecar import find_pam, read_pam, read_worldfile

    if overview is not None:
        from ..codecs.overviews import read_overviews
        full_px, gt, nodata, meta = read_raster(path)
        ovs = read_overviews(path)
        if not 0 <= overview < len(ovs):
            raise ValueError(
                f"overview {overview} out of range ({len(ovs)} levels)")
        g = ovs[overview]
        px = np.asarray(g.pixels)
        if gt is not None:
            fh = full_px.shape[0] / px.shape[0]
            fw = full_px.shape[1] / px.shape[1]
            gt = (gt[0], gt[1] * fw, gt[2] * fh,
                  gt[3], gt[4] * fw, gt[5] * fh)
        nd = getattr(g, "nodata", None)
        return px, gt, nd if nd is not None else nodata, meta

    if path.startswith("DERIVED_SUBDATASET:"):
        # frmts/derived/deriveddataset.cpp: DERIVED_SUBDATASET:<ALG>:
        # <file> applies a pixel function to every band (Float64 out,
        # CFloat64 for CONJ; derivedlist.c table)
        parts = path.split(":", 2)
        if len(parts) != 3 or not parts[2]:
            raise ValueError(f"malformed derived-subdataset path {path!r}")
        alg = parts[1].upper()
        funcs = {
            "AMPLITUDE": lambda a: np.abs(a).astype(np.float64),
            "PHASE": lambda a: np.angle(
                a.astype(np.complex128)).astype(np.float64),
            "REAL": lambda a: a.real.astype(np.float64),
            "IMAG": lambda a: (a.imag if np.iscomplexobj(a)
                               else np.zeros_like(a)).astype(np.float64),
            "CONJ": lambda a: np.conj(a).astype(np.complex128),
            "INTENSITY": lambda a: (np.abs(a).astype(np.float64) ** 2),
            "LOGAMPLITUDE": lambda a: np.log10(
                np.maximum(np.abs(a).astype(np.float64), 1e-300)),
        }
        if alg not in funcs:
            raise ValueError(f"unknown derived subdataset {alg!r}")
        px, gt, nodata, meta = read_raster(parts[2])
        return funcs[alg](np.asarray(px)), gt, nodata, meta

    if path.startswith("HEIF:"):
        # HEIF:<n>:<path> subdataset syntax (heifdataset.cpp OpenHEIF)
        from ..codecs.heif import read_heif
        parts = path.split(":", 2)
        if len(parts) != 3 or not parts[1].isdigit() or not parts[2]:
            raise ValueError(f"malformed HEIF subdataset path {path!r}")
        return read_heif(parts[2], subdataset=int(parts[1]))

    if path.startswith("E57:"):
        # E57:"file":subdataset pseudo-path (e57driver.cpp Open)
        import re as _re
        from ..codecs.e57 import read_e57
        m = _re.match(r'^E57:"([^"]+)":(.+)$', path) or \
            _re.match(r"^E57:(.+):([^:]+)$", path)
        if not m:
            raise ValueError(f"malformed E57 subdataset path {path!r}")
        return read_e57(m.group(1), subdataset=m.group(2))

    p = _Probe(path)
    r = _route(p)[1](p)
    # decoders return px, (px, gt), (px, gt, nodata) or all four
    if not isinstance(r, tuple):
        r = (r,)
    px, gt, nodata, meta = r + (None, None, {})[len(r) - 1:]
    path = p.path

    # sidecar override order (gdalpamdataset.cpp): PAM geotransform/
    # nodata win; a world file fills a still-absent geotransform
    pam = find_pam(path)
    if pam:
        try:
            p = read_pam(pam)
        except ValueError:
            # non-PAM .aux.xml (e.g. ArcGIS GeodataXform): ignored
            # like the reference, which skips unusable sidecars
            p = None
    else:
        p = None
    if p:
        if p["geotransform"] is not None:
            gt = p["geotransform"]
        if p["srs"]:
            meta["crs"] = p["srs"]
        for b in sorted(p["bands"]):
            if p["bands"][b]["nodata"] is not None:
                nodata = p["bands"][b]["nodata"]
                break
        meta.update(p["metadata"])
    if gt is None:
        wf = read_worldfile(path)
        if wf is not None:
            gt = wf
    return np.asarray(px), gt, nodata, meta
