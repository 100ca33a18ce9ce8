"""Hermetic routing test for the raster driver table
(``sources/raster.py::_DRIVERS`` + the codec table as its last entry).

One probe file per table entry, plus every probe where entries compete
for an extension (.grd, .hdr, .img, .xml, .json, .lbl, .cub, .hgt/.dem
with and without .rsc, .hdf as HDF4 and HDF5). Each probe is only an
extension, a magic head and the sidecars identify looks at; no probe
is decoded. ``EXPECTED`` was recorded from the if/elif chain this table
replaced, with every decoder stubbed to raise a sentinel naming its
driver, so it pins the table to the old routing order."""

from __future__ import annotations

import gc
import os
import warnings

import numpy as np
import pytest

from gdal_ray import codecs
from gdal_ray.sources import raster as R
from gdal_ray.sources.raster import raster_driver, read_raster

_CEOS = b"\x00\x00\x00\x01\x3f\xc0\x12\x12"

# relative path → contents (None: a directory); sidecars are probes too
PROBES: dict[str, bytes | None] = {
    "METADATA.DIM": b"<Dimap_Document/>",
    "DIM_scene.xml": b"<Dimap_Document/>",
    "mosaic.vrt": b"<VRTDataset/>",
    "surfer.grd": b"DSAA\n2 2\n",
    "nwtgrd.grd": b"HGPC1" + bytes(64),
    "nwtgrc.grc": b"HGPC8" + bytes(64),
    "gmt.grd": b"CDF\x01" + bytes(32),
    "rraster.grd": b"[general]\ncreator=R\n",
    "rraster.gri": bytes(16),
    "aaigrid.grd": b"ncols 2\nnrows 2\n",
    "aaigrid.asc": b"ncols 2\nnrows 2\n",
    "aaigrid.agr": b"ncols 2\nnrows 2\n",
    "grid.xyz": b"0.5 1.5 10\n",
    "terragen.ter": b"TERRAGENTERRAIN ",
    "leveller.ter": b"trrn\x07" + bytes(16),
    "vterrain.bt": b"binterr1.3" + bytes(246),
    "pcraster.map": b"RUU CROSS SYSTEM MAP FORMAT" + bytes(8),
    "ozi.map": b"OziExplorer Map Data File Version 2.2\r\n",
    "texture.ktx2": b"\xabKTX 20\xbb\r\n\x1a\n" + bytes(16),
    "ktxmagic.tex": b"\xabKTX 20\xbb\r\n\x1a\n" + bytes(16),
    "rik.rik": b"\x00\x00RIK3" + bytes(16),
    "rikmagic.dat": b"\x05\x00RIK3" + bytes(16),
    "msgn.nat": b"FormatName                  : NATIVE\n",
    "envisat.n1": b'PRODUCT="ASA_IMS_1P"\n',
    "airsar.dat": b"RECORD LENGTH IN BYTES = 10240",
    "coasp.hdr": b"time_first_datarec 1\n",
    "TSX1_SAR__SSC.xml": b"<level1Product/>",
    "TDX1_SAR__MGD.xml": b"<level1Product/>",
    "VOL-ALPSRP000000000-H1.1__A": bytes(32),
    "cosar.cos": bytes(32),
    "cosarmagic.raw": bytes(28) + b"CSAR",
    "gff.gff": bytes(16),
    "gffmagic.bin": b"GSATIM" + b"G" + bytes(9),
    "roipac.slc": bytes(16), "roipac.slc.rsc": b"WIDTH 2\n",
    "roipac.hgt": bytes(16), "roipac.hgt.rsc": b"WIDTH 2\n",
    "roipac.dem": bytes(16), "roipac.dem.rsc": b"WIDTH 2\n",
    "roipac.raw": bytes(16), "roipac.raw.rsc": b"WIDTH 2\n",
    "snodas.hdr": b"Format version: NOHRSC GIS/RS raster file v1.1\n",
    "chart.kap": b"!Copyright\r\n", "chart.no1": b"!Copyright\r\n",
    "doc.pdf": b"%PDF-1.7\n",
    "image.exr": b"\x76\x2f\x31\x01" + bytes(8),
    "image.heic": bytes(4) + b"ftypheic" + bytes(8),
    "image.avif": bytes(4) + b"ftypavif" + bytes(8),
    "scan.e57": b"ASTM-E57" + bytes(8),
    "phase.cphd": b"CPHD/1.0\n",
    "N10E010.hgt": bytes(16),
    "usgs.dem": b" " * 16,
    "fast.fst": b"REQ ID = x ACQUISITION DATE =19990101 SATELLITE =L7 ",
    "doq2.doq": b"BEGIN_USGS_DOQ_HEADER\n",
    "doq1.doq": bytes(32),
    "ilwis.mpr": b"[BaseMap]\n",
    "ssohh.hdr": b"Data:\n", "ssohh.img": bytes(8),
    "scene_SIRC.hdr": b"Data:\n", "scene_SIRC.img": bytes(8),
    "eir.hdr": b"IMAGINE_RAW_FILE\n",
    "mff.hdr": b"IMAGE_FILE_FORMAT = MFF\n",
    "noaa.b": bytes(16),
    "fire.lcp": bytes(16),
    "dem.sigdem": b"SIGDEM" + bytes(10),
    "grid.zmap": b"!comment\n@GRID FILE, GRID, 5\n",
    "zmapgrid.dat": b"! zmap\n@ZMAP, GRID, 5\n",
    "pcidsk.pix": b"PCIDSK  " + bytes(8),
    "terrain.hf2": b"HF2\x00" + bytes(8),
    "terrainz.hfz": bytes(8),
    "hf2magic.hmp": b"HF2\x00" + bytes(8),
    "tiles.pmtiles": b"PMTiles\x03" + bytes(8),
    "tiles.tpkx": b"PK\x03\x04" + bytes(8),
    "mosaic.til": b"numTiles = 1;\n",
    "cals.cal": b"srcdocid: x\n",
    "cals.ct1": b"srcdocid: x\n",
    "calsmagic.txt": b"rtype: 1\nrpelcnt: 2,2\n",
    "A.TOC": b"\x00" * 16,
    "rpf.toc": b"\x00" * 16,
    "frame.on1": b"NITF02.10" + bytes(8),
    "survey.bag": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "sarceos.dat": _CEOS + bytes(8) + b"CEOS-SAR-CCT" + bytes(4),
    "ceos.vdf": _CEOS + bytes(20),
    "avhrr.l1b": bytes(16),
    "conf.xml": b"<x>esriMapCacheStorageModeCompactV2</x>",
    "product.xml": b"<product><fullResolutionImageData/></product>",
    "collection.json": b'{"tile_matrix_sets": {}}',
    "item.json": b'{"proj:transform": [1, 0, 0]}',
    "plain.json": b'{"type": "Feature"}',
    "meta.mrf": b"<MRF_META/>",
    "mrfmagic.xml": b"<MRF_META>\n</MRF_META>",
    "blob.lrc": b"CntZImage " + bytes(8),
    "lerc1.bin": b"CntZImage " + bytes(8),
    "lerc2.blob": b"Lerc2 " + bytes(8),
    "ABCDEF01.GEN": b"\x00" * 16,
    "srp.thf": b"\x00" * 16,
    "adrg.img": bytes(16), "adrg.GEN": b"\x00" * 16,
    "prf.prf": b"phfr", "surf.x-dem": b"phfr",
    "kro.kro": b"KRO\x01" + bytes(8),
    "gmted.ace2": bytes(16),
    "nt_19990101_f13.bin": bytes(16),
    "landsat.h1": b"NDF_REVISION=2/\n",
    "isce.slc": bytes(16), "isce.slc.xml": b"<imageFile>\n</imageFile>",
    "grid_cell.gz": bytes(16),
    "radar.raw0": b"\x1b\x00" + bytes(10) + b"\x1a\x00" + bytes(4),
    "rmf.rsw": b"RSW\x00" + bytes(8),
    "rmf.mtw": b"MTW\x00" + bytes(8),
    "rmfmagic.gis0": b"\x00WSR" + bytes(8),
    "mff2dir": None, "mff2dir/attrib": b"lines = 2\n",
    "mff2dir/image_data": bytes(4),
    "aigdir": None, "aigdir/hdr.adf": bytes(8),
    "AIGUP": None, "AIGUP/HDR.ADF": bytes(8),
    "w001001.adf": bytes(8),
    "truevision.tga": bytes(18),
    "texture.dds": b"DDS " + bytes(8),
    "dted.dt0": b"UHL1" + bytes(8),
    "dted.dt1": b"UHL1" + bytes(8),
    "dted.dt2": b"UHL1" + bytes(8),
    "hfa.img": b"EHFA_HEADER_TAG" + bytes(8),
    "hfa.aux": b"EHFA_HEADER_TAG" + bytes(8),
    "hfa.rrd": b"EHFA_HEADER_TAG" + bytes(8),
    "pds.img": b"PDS_VERSION_ID = PDS3\r\n",
    "pds.lbl": b"PDS_VERSION_ID = PDS3\r\n",
    "pdsqube.dat": b"PDS_VERSION_ID = PDS3\r\n",
    "isis3.cub": b"Object = IsisCube\n",
    "isis3.lbl": b"Object = IsisCube\n",
    "isis2.cub": b"CCSD3ZF0000100000001NJPL3IF0PDS200000001 ^QUBE = 2\n",
    "isis2.lbl": b"^QUBE = 2\n",
    "pds4.xml": b"<Product_Observational>\n",
    "plain.xml": b"<root/>",
    "vicar.vic": b"LBLSIZE=1024   ",
    "vicar.vicar": b"LBLSIZE=1024   ",
    "vicar.img": b"LBLSIZE=1024   ",
    "vicar.bin": b"LBLSIZE=1024   ",
    "nitf.ntf": b"NITF02.10", "nitf.nitf": b"NITF02.10",
    "nitf.nsf": b"NSIF01.00", "nitf.r0": b"NITF02.10",
    "paux.raw": bytes(4), "paux.aux": b"AuxilaryTarget: paux.raw\n",
    "genbin.bil": bytes(4), "genbin.hdr": b"BANDS: 1\nINTERLEAVING: BIL\n",
    "envi.img": bytes(4), "envi.hdr": b"ENVI\nsamples = 2\ninterleave = bsq\n",
    "envi2.dat": bytes(4), "envi2.dat.hdr": b"samples = 2\ninterleave = bip\n",
    "ehdr.bil": bytes(4), "ehdr.hdr": b"NROWS 2\nNCOLS 2\n",
    "ehdr.bsq": bytes(4), "ehdr.bip": bytes(4),
    "ehdr.raw": bytes(4),
    "nohdr.img": bytes(4),
    "geotiff.tif": b"II*\x00" + bytes(8),
    "geotiff.tiff": b"MM\x00*" + bytes(8),
    "cf.nc": b"CDF\x01" + bytes(8),
    "cf.cdf": b"CDF\x02" + bytes(8),
    "cf.nc4": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "hdf4.hdf": b"\x0e\x03\x13\x01" + bytes(8),
    "hdf5.hdf": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "hdf5.h5": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "hdf5.he5": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "hdf5.hdf5": b"\x89HDF\r\n\x1a\n" + bytes(8),
    "jpeg2000.jp2": b"\x00\x00\x00\x0cjP  \r\n\x87\n",
    "jpeg2000.j2k": b"\xff\x4f\xff\x51", "jpeg2000.jpc": b"\xff\x4f\xff\x51",
    "jpeg2000.jpx": b"\x00\x00\x00\x0cjP  \r\n\x87\n",
    "grib.grb2": b"GRIB" + bytes(12), "grib.grib2": b"GRIB" + bytes(12),
    "grib.grb": b"GRIB" + bytes(12), "grib.grib": b"GRIB" + bytes(12),
    "ntv2.gsb": b"NUM_OREC" + bytes(8), "ntv2.gvb": bytes(8),
    "geoid.gtx": bytes(40),
    "erdas.lan": b"HEAD74" + bytes(8), "erdas.gis": b"HEAD74" + bytes(8),
    "ermapper.ers": b"DatasetHeader Begin\n",
    "saga.sdat": bytes(8), "saga.sgrd": b"NAME\t= x\n",
    "idrisi.rst": bytes(8),
    "grid.gxf": b"#TITLE\n",
    "nadcon.los": bytes(8), "nadcon.las": bytes(8), "nadcon.geo": bytes(8),
    "geoid.byn": bytes(80),
    "geoid.isg": b"begin_of_head\n",
    "jdem.mem": bytes(16),
    "geosoft.gsc": bytes(16),
    "astro.fits": b"SIMPLE  =                    T",
    "coverage.rl2": b"SQLite format 3\x00",
    "index.gti.gpkg": b"SQLite format 3\x00",
    "tiles.gpkg": b"SQLite format 3\x00",
    "cube.zarr": None, "cube.zarr/.zgroup": b"{}",
    "zarrdir": None, "zarrdir/.zarray": b"{}",
    "zgroupdir": None, "zgroupdir/.zgroup": b"{}",
    # the codec table: extension tags, then magic sniffing
    "image.png": b"\x89PNG\r\n\x1a\n" + bytes(8),
    "image.jpg": b"\xff\xd8\xff\xe0" + bytes(8),
    "image.jpeg": b"GRJ1" + bytes(8),
    "image.gif": b"GIF89a" + bytes(8),
    "image.bmp": b"BM" + bytes(8),
    "image.pnm": b"P6\n2 2\n255\n", "image.pgm": b"P5\n2 2\n255\n",
    "image.ppm": b"P6\n2 2\n255\n",
    "image.webp": b"RIFF\x00\x00\x00\x00WEBPVP8L",
    "png_no_ext": b"\x89PNG\r\n\x1a\n" + bytes(8),
    "jfif.bin": b"\xff\xd8\xff\xe0" + bytes(8),
    "grj1.raw1": b"GRJ1" + bytes(8),
    "tiff_no_ext": b"II*\x00" + bytes(8),
    "bitmap.dib": b"BM" + bytes(8),
    "anymap.pbm": b"P4\n2 2\n",
    "webp.bin": b"RIFF\x00\x00\x00\x00WEBPVP8 ",
    "netcdf.bin": b"CDF\x02" + bytes(8),
    "gifmagic.bin": b"GIF87a" + bytes(8),
    "jp2magic.bin": b"\x00\x00\x00\x0cjP  \r\n\x87\n",
    "j2kmagic.bin": b"\xff\x4f\xff\x51" + bytes(8),
    "exrmagic.bin": b"\x76\x2f\x31\x01" + bytes(8),
    "heifmagic.bin": bytes(4) + b"ftypheic" + bytes(8),
    "degrib.bin": b"TEXT HEADER\nGRIB" + bytes(12),
    "unknown.qqq": b"no magic here",
    "pngtag_jpeg.png": b"\xff\xd8\xff\xe0" + bytes(8),
}

# (probe, driver name; None where routing raises ValueError), recorded
# from the replaced chain
EXPECTED: list[tuple[str, str | None]] = [
    ("METADATA.DIM", "DIMAP"), ("DIM_scene.xml", "DIMAP"),
    ("mosaic.vrt", "VRT"),
    ("surfer.grd", "Surfer"), ("nwtgrd.grd", "NWT_GRD"),
    ("nwtgrc.grc", "NWT_GRC"), ("gmt.grd", "netCDF"),
    ("rraster.grd", "RRASTER"), ("rraster.gri", "RRASTER"),
    ("aaigrid.grd", "AAIGrid"), ("aaigrid.asc", "AAIGrid"),
    ("aaigrid.agr", "AAIGrid"), ("grid.xyz", "XYZ"),
    ("terragen.ter", "TERRAGEN"), ("leveller.ter", "LEVELLER"),
    ("vterrain.bt", "BT"), ("pcraster.map", "PCRaster"), ("ozi.map", "MAP"),
    ("texture.ktx2", "KTX2"), ("ktxmagic.tex", "KTX2"),
    ("rik.rik", "RIK"), ("rikmagic.dat", "RIK"),
    ("msgn.nat", "MSGN"), ("envisat.n1", "ENVISAT"),
    ("airsar.dat", "AirSAR"), ("coasp.hdr", "COASP"),
    ("TSX1_SAR__SSC.xml", "TSX"), ("TDX1_SAR__MGD.xml", "TSX"),
    ("VOL-ALPSRP000000000-H1.1__A", "JAXAPALSAR"),
    ("cosar.cos", "COSAR"), ("cosarmagic.raw", "COSAR"),
    ("gff.gff", "GFF"), ("gffmagic.bin", "GFF"),
    ("roipac.slc", "ROI_PAC"), ("roipac.hgt", "ROI_PAC"),
    ("roipac.dem", "ROI_PAC"), ("roipac.raw", "ROI_PAC"),
    ("snodas.hdr", "SNODAS"),
    ("chart.kap", "BSB"), ("chart.no1", "BSB"), ("doc.pdf", "PDF"),
    ("image.exr", "EXR"), ("image.heic", "HEIF"), ("image.avif", "HEIF"),
    ("scan.e57", "E57"), ("phase.cphd", "CPHD"),
    ("N10E010.hgt", "SRTMHGT"), ("usgs.dem", "USGSDEM"),
    ("fast.fst", "FAST"), ("doq2.doq", "DOQ2"), ("doq1.doq", "DOQ1"),
    ("ilwis.mpr", "ILWIS"),
    ("ssohh.hdr", "CPG"), ("ssohh.img", "CPG"),
    ("scene_SIRC.hdr", "CPG"), ("scene_SIRC.img", "CPG"),
    ("eir.hdr", "EIR"), ("mff.hdr", "MFF"),
    ("noaa.b", "NOAA_B"), ("fire.lcp", "LCP"), ("dem.sigdem", "SIGDEM"),
    ("grid.zmap", "ZMap"), ("zmapgrid.dat", "ZMap"),
    ("pcidsk.pix", "PCIDSK"),
    ("terrain.hf2", "HF2"), ("terrainz.hfz", "HF2"),
    ("hf2magic.hmp", "HF2"),
    ("tiles.pmtiles", "PMTiles"), ("tiles.tpkx", "ESRIC"),
    ("mosaic.til", "TIL"),
    ("cals.cal", "CALS"), ("cals.ct1", "CALS"), ("calsmagic.txt", "CALS"),
    ("A.TOC", "RPFTOC"), ("rpf.toc", "RPFTOC"), ("frame.on1", "RPF"),
    ("survey.bag", "BAG"),
    ("sarceos.dat", "SAR_CEOS"), ("ceos.vdf", "CEOS"),
    ("avhrr.l1b", "L1B"),
    ("conf.xml", "ESRIC"), ("product.xml", "RS2"),
    ("collection.json", "STACTA"), ("item.json", "STACIT"),
    ("plain.json", None),
    ("meta.mrf", "MRF"), ("mrfmagic.xml", "MRF"),
    ("blob.lrc", "LERC"), ("lerc1.bin", "LERC"), ("lerc2.blob", "LERC"),
    ("ABCDEF01.GEN", "ADRG"), ("srp.thf", "ADRG"), ("adrg.img", "ADRG"),
    ("prf.prf", "PRF"), ("surf.x-dem", "PRF"),
    ("kro.kro", "KRO"), ("gmted.ace2", "ACE2"),
    ("nt_19990101_f13.bin", "NSIDCbin"), ("landsat.h1", "NDF"),
    ("isce.slc", "ISCE"), ("grid_cell.gz", "CTG"),
    ("radar.raw0", "IRIS"),
    ("rmf.rsw", "RMF"), ("rmf.mtw", "RMF"), ("rmfmagic.gis0", "RMF"),
    ("mff2dir", "MFF2"), ("aigdir", "AIG"), ("AIGUP", "AIG"),
    ("w001001.adf", "AIG"),
    ("truevision.tga", "TGA"), ("texture.dds", "DDS"),
    ("dted.dt0", "DTED"), ("dted.dt1", "DTED"), ("dted.dt2", "DTED"),
    ("hfa.img", "HFA"), ("hfa.aux", "HFA"), ("hfa.rrd", "HFA"),
    ("pds.img", "PDS"), ("pds.lbl", "PDS"), ("pdsqube.dat", "PDS"),
    ("isis3.cub", "ISIS3"), ("isis3.lbl", "ISIS3"),
    ("isis2.cub", "ISIS2"), ("isis2.lbl", "ISIS2"),
    ("pds4.xml", "PDS4"), ("plain.xml", None),
    ("vicar.vic", "VICAR"), ("vicar.vicar", "VICAR"),
    ("vicar.img", "VICAR"), ("vicar.bin", "VICAR"),
    ("nitf.ntf", "NITF"), ("nitf.nitf", "NITF"), ("nitf.nsf", "NITF"),
    ("nitf.r0", "NITF"),
    ("paux.raw", "PAux"), ("genbin.bil", "GenBin"),
    ("envi.img", "ENVI"), ("envi2.dat", "ENVI"),
    ("ehdr.bil", "EHdr"), ("ehdr.bsq", "EHdr"), ("ehdr.bip", "EHdr"),
    ("ehdr.raw", "EHdr"), ("nohdr.img", "EHdr"),
    ("geotiff.tif", "GTiff"), ("geotiff.tiff", "GTiff"),
    ("cf.nc", "netCDF"), ("cf.cdf", "netCDF"), ("cf.nc4", "netCDF"),
    ("hdf4.hdf", "HDF4"), ("hdf5.hdf", "HDF5"), ("hdf5.h5", "HDF5"),
    ("hdf5.he5", "HDF5"), ("hdf5.hdf5", "HDF5"),
    ("jpeg2000.jp2", "JP2"), ("jpeg2000.j2k", "JP2"),
    ("jpeg2000.jpc", "JP2"), ("jpeg2000.jpx", "JP2"),
    ("grib.grb2", "GRIB"), ("grib.grib2", "GRIB"), ("grib.grb", "GRIB"),
    ("grib.grib", "GRIB"),
    ("ntv2.gsb", "NTv2"), ("ntv2.gvb", "NTv2"), ("geoid.gtx", "GTX"),
    ("erdas.lan", "LAN"), ("erdas.gis", "LAN"), ("ermapper.ers", "ERS"),
    ("saga.sdat", "SAGA"), ("saga.sgrd", "SAGA"), ("idrisi.rst", "RST"),
    ("grid.gxf", "GXF"),
    ("nadcon.los", "LOSLAS"), ("nadcon.las", "LOSLAS"),
    ("nadcon.geo", "LOSLAS"),
    ("geoid.byn", "BYN"), ("geoid.isg", "ISG"), ("jdem.mem", "JDEM"),
    ("geosoft.gsc", "GSC"), ("astro.fits", "FITS"),
    ("coverage.rl2", "RasterLite2"), ("index.gti.gpkg", "GTI"),
    ("tiles.gpkg", "GPKG"),
    ("cube.zarr", "Zarr"), ("zarrdir", "Zarr"), ("zgroupdir", "Zarr"),
    ("image.png", "PNG"), ("image.jpg", "JPEG"), ("image.jpeg", "JPEG"),
    ("image.gif", "GIF"), ("image.bmp", "BMP"), ("image.pnm", "PNM"),
    ("image.pgm", "PNM"), ("image.ppm", "PNM"), ("image.webp", "WEBP"),
    ("png_no_ext", "PNG"), ("jfif.bin", "JPEG"), ("grj1.raw1", "JPEG"),
    ("tiff_no_ext", "GTiff"), ("bitmap.dib", "BMP"), ("anymap.pbm", "PNM"),
    ("webp.bin", "WEBP"), ("netcdf.bin", "netCDF"),
    ("gifmagic.bin", "GIF"), ("jp2magic.bin", "JP2"),
    ("j2kmagic.bin", "JP2"), ("exrmagic.bin", "EXR"),
    ("heifmagic.bin", "HEIF"), ("degrib.bin", "GRIB"),
    ("unknown.qqq", None), ("pngtag_jpeg.png", "PNG"),
    # the sidecars themselves
    ("roipac.slc.rsc", None), ("roipac.hgt.rsc", None),
    ("roipac.dem.rsc", None), ("roipac.raw.rsc", None),
    ("adrg.GEN", "ADRG"), ("isce.slc.xml", None),
    ("mff2dir/attrib", None), ("mff2dir/image_data", None),
    ("aigdir/hdr.adf", "AIG"), ("AIGUP/HDR.ADF", "AIG"),
    ("paux.aux", None), ("genbin.hdr", None), ("envi.hdr", None),
    ("envi2.dat.hdr", None), ("ehdr.hdr", None),
    ("cube.zarr/.zgroup", None), ("zarrdir/.zarray", None),
    ("zgroupdir/.zgroup", None),
]


def _write(root, probes):
    for rel, body in probes.items():
        path = os.path.join(root, rel)
        if body is None:
            os.makedirs(path, exist_ok=True)
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(body)


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("probes")
    _write(str(root), PROBES)
    return str(root)


@pytest.mark.parametrize("rel,name", EXPECTED, ids=[r for r, _ in EXPECTED])
def test_routing_matches_chain(probe_dir, rel, name):
    path = os.path.join(probe_dir, rel)
    if name is None:
        with pytest.raises(ValueError):
            raster_driver(path)
    else:
        assert raster_driver(path) == name


def test_every_probe_is_expected():
    assert sorted(r for r, _ in EXPECTED) == sorted(PROBES)


# taken at import, before any test registers a user codec
_BUILTIN_CODECS = {c.name for c in codecs._CODECS.values()}


def test_every_entry_has_a_probe():
    names = {n for n, _, _ in R._DRIVERS} | _BUILTIN_CODECS
    assert names <= {n for _, n in EXPECTED}


def test_prefix_paths():
    assert raster_driver("DERIVED_SUBDATASET:AMPLITUDE:x.tif") == "DERIVED"
    assert raster_driver("HEIF:1:x.heic") == "HEIF"
    assert raster_driver('E57:"x.e57":0') == "E57"


def test_unreadable_probe_is_named_by_its_table_entry(probe_dir):
    # routing names the entry; only opening it hits the decoder's error
    path = os.path.join(probe_dir, "nohdr.img")
    with pytest.raises(ValueError, match="no .hdr sidecar"):
        read_raster(path)


# -- no leaked file handles --------------------------------------------------

def _hermetic_rasters(root):
    from gdal_ray.codecs.aaigrid import encode_aaigrid
    from gdal_ray.codecs.ehdr import encode_ehdr
    from gdal_ray.codecs.gtiff import encode_gtiff
    from gdal_ray.codecs.rawgrids import encode_bt

    px = np.arange(12, dtype=np.uint8).reshape(3, 4)
    gt = (0.0, 1.0, 0.0, 3.0, 0.0, -1.0)
    hdr, data = encode_ehdr(px, gt)
    files = {
        "leak.tif": encode_gtiff(px, geotransform=gt),
        "leak.png": codecs.encode(np.dstack([px] * 3), "png"),
        "leak.asc": encode_aaigrid(px.astype(np.float32), gt).encode(),
        "leak.bt": encode_bt(px.astype(np.float32), gt),
        "leak.bil": data, "leak.hdr": hdr.encode(),
    }
    _write(root, files)
    return [os.path.join(root, f) for f in files if f != "leak.hdr"]


def test_read_raster_closes_every_file(tmp_path):
    paths = _hermetic_rasters(str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for path in paths:
            px, _gt, _nd, _meta = read_raster(path)
            assert px.shape[:2] == (3, 4), path
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []
