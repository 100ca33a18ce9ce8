"""Hermetic routing test for the vector driver table
(``sources/drivers.py::_VECTOR``).

One probe file per table entry, written in ``tmp_path`` with the
engine's own writers or from crafted bytes, plus every probe where
entries compete for an extension: ``.json`` (JSON-FG, TopoJSON,
"Topology" as a property value, ESRIJSON, GeoJSON), ``.pbf`` (OSM by
magic and by name, MVT), ``.xml`` (NAS, LV BAG, GeoRSS, GML), ``.000``
(S-101, S-57) and a NITF raster named ``.ntf``. ``EXPECTED`` was
recorded by running each probe through the per-extension reader
functions this table replaced, noting which reader returned: its
driver name, its row count and a digest of the table it returned
(schema, metadata and values). A probe that reader refused pins the
exception type instead."""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import os
import struct
import zipfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.sources import drivers as D
from gdal_ray.sources.drivers import (list_drivers, read_vector,
                                      register_vector_driver,
                                      unregister_vector_driver,
                                      vector_driver)
from gdal_ray.sources.vector import points_table, polygons_table


def digest(t: pa.Table) -> str:
    """Schema (with metadata) and values, independent of chunking."""
    h = hashlib.sha1(str(t.schema).encode())
    h.update(repr(t.schema.metadata).encode())
    h.update(repr(t.to_pydict()).encode())
    return h.hexdigest()[:16]


# -- crafted formats ---------------------------------------------------------

def _iso8211(records, ddr=()):
    """ISO 8211 module: a DDR (field descriptions ``(tag, bytes)``)
    then one data record per list of ``(tag, bytes)`` fields."""
    def record(fields, leader_id):
        body = b"".join(d + b"\x1e" for _, d in fields)
        dirs, pos = b"", 0
        for tag, d in fields:
            dirs += tag.encode() + b"%04d%05d" % (len(d) + 1, pos)
            pos += len(d) + 1
        base = 24 + len(dirs) + 1
        size = base + len(body)
        leader = (b"%05d" % size + leader_id + b"%05d" % base
                  + b"   4504")
        assert len(leader) == 24
        return leader + dirs + b"\x1e" + body
    return record(list(ddr), b"3LE1 09") + b"".join(
        record(f, b" D     ") for f in records)


_S101_DSID_DESCR = (b"RCNM!RCID!ENSP!ENED!PRSP!PRED!PROF!DSNM!DSTL!DSRD!"
                    b"DSLG!DSAB!DSED\\\\*DSTC")


def _s101():
    ddr = [("DSID", b"1600;&   " + b"\x1fDataset identification\x1f"
            + _S101_DSID_DESCR + b"\x1f(b11,b14,7A,A(8),3A,(b11))")]
    text = [b"S-100 Part 10a", b"1.1", b"INT.IHO.S-101.1.0", b"1.0",
            b"1", b"101AA00DS0001.000", b"probe"]
    dsid = (b"\x0a" + struct.pack("<I", 1)
            + b"".join(t + b"\x1f" for t in text) + b"20240101"
            + b"EN\x1f\x1f1.0\x1f" + b"\x01")
    return _iso8211([[("DSID", dsid)]], ddr)


def _s57():
    frid = (b"\x64" + struct.pack("<I", 1) + b"\xff\x02"
            + struct.pack("<HHB", 42, 1, 1))
    foid = struct.pack("<HIH", 550, 7, 1)
    return _iso8211([[("0001", b"1"), ("FRID", frid), ("FOID", foid)]],
                    [("0001", b"0000;&"), ("FRID", b"1600;&"),
                     ("FOID", b"1600;&")])


def _sxf():
    head = bytearray(452)
    head[:4] = b"SXF\x00"
    head[10] = 4
    head[96] = 0x10                          # real coordinates
    struct.pack_into("<I", head, 440, 1)     # one record
    geom = struct.pack("<dd", 60.5, 30.25)
    ref = bytes([2, 0x04, 0x04, 0])          # point, double vertices
    rec = (struct.pack("<IIIIHH", 0x7FFF7FFF, 32 + len(geom), len(geom),
                       1000000001, 0, 0) + ref
           + struct.pack("<IHH", 1, 0, 1) + geom)
    return bytes(head) + rec


def _xls():
    """OLE2 compound document holding a BIFF8 Workbook stream: one
    sheet, a header row and one data row."""
    def rec(op, body):
        return struct.pack("<HH", op, len(body)) + body

    def label(r, c, text):
        return rec(0x204, struct.pack("<HHHHB", r, c, 0, len(text), 0)
                   + text.encode())

    def number(r, c, v):
        return rec(0x203, struct.pack("<HHHd", r, c, 0, v))
    bof = rec(0x809, struct.pack("<HHHH", 0x600, 0x5, 0, 0))
    sheet_name = b"Sheet1"

    def boundsheet(pos):
        return rec(0x85, struct.pack("<IBBBB", pos, 0, 0, len(sheet_name),
                                     0) + sheet_name)
    bsheet = boundsheet(len(bof) + len(boundsheet(0)) + 4)
    stream = (bof + bsheet + rec(0x0A, b"")
              + rec(0x809, struct.pack("<HHHH", 0x600, 0x10, 0, 0))
              + label(0, 0, "name") + label(0, 1, "value")
              + label(1, 0, "alpha") + number(1, 1, 2.5)
              + rec(0x0A, b""))
    nsec = (len(stream) + 511) // 512
    stream = stream.ljust(nsec * 512, b"\x00")
    end, free, fatsect = 0xFFFFFFFE, 0xFFFFFFFF, 0xFFFFFFFD
    head = bytearray(512)
    head[:8] = bytes.fromhex("d0cf11e0a1b11ae1")
    struct.pack_into("<HHHH", head, 24, 0x3E, 3, 0xFFFE, 9)
    struct.pack_into("<H", head, 32, 6)
    struct.pack_into("<III", head, 44, 1, 1, 0)      # 1 FAT, dir @1
    struct.pack_into("<IIIII", head, 56, 0, end, 0, end, 0)
    difat = [0] + [free] * 108
    struct.pack_into("<109I", head, 76, *difat)
    fat = [fatsect, end] + [3 + i for i in range(nsec - 1)] + [end]
    fat += [free] * (128 - len(fat))

    def entry(name, etype, start, size):
        e = bytearray(128)
        n = (name + "\x00").encode("utf-16-le")
        e[:len(n)] = n
        struct.pack_into("<H", e, 64, len(n))
        e[66] = etype
        struct.pack_into("<iii", e, 68, -1, -1, -1)
        struct.pack_into("<IQ", e, 116, start, size)
        return bytes(e)
    dirsec = (entry("Root Entry", 5, end, 0)
              + entry("Workbook", 2, 2, nsec * 512)).ljust(512, b"\x00")
    return (bytes(head) + struct.pack("<128I", *fat) + dirsec + stream)


def _xlsx():
    return _zip({
        "[Content_Types].xml": "<Types/>",
        "xl/workbook.xml":
            '<workbook xmlns:r="urn:r"><sheets>'
            '<sheet name="Sheet1" sheetId="1" r:id="rId1"/>'
            "</sheets></workbook>",
        "xl/_rels/workbook.xml.rels":
            '<Relationships><Relationship Id="rId1" '
            'Target="worksheets/sheet1.xml"/></Relationships>',
        "xl/worksheets/sheet1.xml":
            "<worksheet><sheetData>"
            '<row r="1"><c r="A1" t="inlineStr"><is><t>name</t></is></c>'
            '<c r="B1" t="inlineStr"><is><t>value</t></is></c></row>'
            '<row r="2"><c r="A2" t="inlineStr"><is><t>alpha</t></is></c>'
            '<c r="B2"><v>2.5</v></c></row>'
            "</sheetData></worksheet>"})


def _ods():
    ns = ('xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
          'xmlns:table="urn:oasis:names:tc:opendocument:xmlns:table:1.0" '
          'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0"')

    def cell(v, kind="string"):
        if kind == "float":
            return (f'<table:table-cell office:value-type="float" '
                    f'office:value="{v}"><text:p>{v}</text:p>'
                    "</table:table-cell>")
        return ('<table:table-cell office:value-type="string">'
                f"<text:p>{v}</text:p></table:table-cell>")
    content = (f"<office:document-content {ns}><office:body>"
               "<office:spreadsheet>"
               '<table:table table:name="Sheet1">'
               f"<table:table-row>{cell('name')}{cell('value')}"
               "</table:table-row>"
               f"<table:table-row>{cell('alpha')}{cell(2.5, 'float')}"
               "</table:table-row>"
               "</table:table></office:spreadsheet></office:body>"
               "</office:document-content>")
    return _zip({"mimetype": "application/vnd.oasis.opendocument."
                 "spreadsheet", "content.xml": content})


def _zip(members: dict) -> bytes:
    import io
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, text in members.items():
            z.writestr(name, text)
    return buf.getvalue()


def _pbf_blob(btype: bytes, raw: bytes) -> bytes:
    blob = b"\x0a" + bytes([len(raw)]) + raw
    header = (b"\x0a" + bytes([len(btype)]) + btype
              + b"\x18" + bytes([len(blob)]))
    return struct.pack(">i", len(header)) + header + blob


def _mvt():
    from gdal_ray.sources.mvt import encode_mvt
    return encode_mvt([(W.point(10, 20), {"name": "a"}, 1),
                       (W.linestring([(0, 0), (100, 50)]), {"n": 2}, 2)])


def _pmtiles():
    tile = _mvt()
    directory = bytes([1, 0, 1, len(tile) & 0x7F | 0x80,
                       len(tile) >> 7, 1])
    head = bytearray(127)
    head[:8] = b"PMTiles\x03"
    struct.pack_into("<8q", head, 8, 127, len(directory), 0, 0, 0, 0,
                     127 + len(directory), len(tile))
    struct.pack_into("<3q", head, 72, 1, 1, 1)
    head[96:102] = bytes([1, 1, 1, 1, 0, 0])
    return bytes(head) + directory + tile


def _miramon(magic: bytes, count: int, body: bytes) -> bytes:
    head = magic.ljust(8, b"\x00") + struct.pack("<4d", 0, 0, 10, 10)
    return head + struct.pack("<I", count).ljust(8, b"\x00") + body


def _e00():
    f = "%14.7E"
    return ("EXP  0 /PROBE/COVER.E00\n"
            "ARC  2\n"
            + "".join("%10d" % v for v in (1, 1, 1, 2, 0, 0, 2)) + "\n"
            + (f * 4) % (0.0, 0.0, 3.0, 4.0) + "\n"
            + "".join("%10d" % v for v in (-1, 0, 0, 0, 0, 0, 0)) + "\n"
            "EOS\n").encode()


def _avc_lab() -> bytes:
    rec = struct.pack(">ii6f", 7, 1, 3.5, 4.5, 3.5, 4.5, 3.5, 4.5)
    head = bytearray(100)
    struct.pack_into(">ii", head, 0, 9993, 1)
    struct.pack_into(">i", head, 24, (100 + len(rec)) // 2)
    return bytes(head) + rec


def _ntf():
    def rec(body):
        return body + "0%"
    lines = [
        rec("01ORDNANCE SURVEY NTF VOLUME"),
        rec("02OS_LANDLINE_SAMPLE"),
        rec("07SP300100  " + "  " + f"{10:05d}" + " " + f"{10:010d}"
            + " " * 16 + f"{400000:010d}" + f"{200000:010d}"),
        rec("40FC004     Feature Code\\"),
        rec("15000001"),
        rec("14000001FC0042\\0"),
        rec("2100000110001" + f"{1250:010d}{3025:010d}"),
        rec("99"),
    ]
    return ("\n".join(lines) + "\n").encode()


def _edigeo(root):
    def put(name, lines):
        with open(os.path.join(root, name), "w", encoding="latin1") as f:
            f.write("\n".join(lines) + "\n")
    put("E000AB01.THF", ["RTYSA03:GTS", "LONSA04:E000", "GNNSA04:AB01",
                         "GONSA02:S1", "QANSA02:Q1", "DINSA02:D1",
                         "SCNSA02:C1", "GDNSA02:G1"])
    put("E000S1.GEO", ["RTYSA03:GEO", "RELSA06:LAMB93"])
    put("E000D1.DIC", ["RTYSA03:DID", "RIDSA08:BORNE", "LABSA05:Borne"])
    put("E000C1.SCD", ["RTYSA03:OBJ", "RIDSA08:BORNE_id",
                       "DIPCP19:E000;D1;DID;BORNE", "KNDSA03:PCT"])
    put("E000G1.VEC", ["RTYSA03:PNO", "RIDSA04:PNO1",
                       "CORCC20:5.0;6.0", "RTYSA03:FEA", "RIDSA04:FEA1",
                       "SCPCP20:E000;C1;OBJ;BORNE_id",
                       "RTYSA03:LNK", "RIDSA04:LNK1",
                       "FTPCP18:E000;G1;FEA;FEA1",
                       "FTPCP18:E000;G1;PNO;PNO1"])


def _tiger_rt1():
    rec = [" "] * 228
    rec[0] = "1"

    def put(beg, end, text):
        s = str(text).rjust(end - beg + 1)
        rec[beg - 1:end] = list(s[:end - beg + 1])
    put(6, 15, 100101)
    put(20, 49, "MAIN".ljust(30))
    put(56, 58, "A41")
    put(191, 200, -86500000)
    put(201, 209, 33500000)
    put(210, 219, -86490000)
    put(220, 228, 33510000)
    return ("".join(rec) + "\r\n").encode()


_NAS = b"""<?xml version="1.0" encoding="UTF-8"?>
<AX_Bestandsdatenauszug xmlns="http://www.adv-online.de/namespaces/adv/gid/6.0"
 xmlns:gml="http://www.opengis.net/gml/3.2">
 <enthaelt><wfs:FeatureCollection xmlns:wfs="http://www.opengis.net/wfs">
  <gml:featureMember>
   <AX_Flurstueck gml:id="DEBWL0010000abcd">
    <flurstuecksnummer>17</flurstuecksnummer>
    <position><gml:Point gml:id="p1"><gml:pos>3500000 5400000</gml:pos>
    </gml:Point></position>
   </AX_Flurstueck>
  </gml:featureMember>
 </wfs:FeatureCollection></enthaelt>
</AX_Bestandsdatenauszug>
"""

_LVBAG = b"""<?xml version="1.0" encoding="UTF-8"?>
<sl-bag-extract:bagStand
 xmlns:sl-bag-extract="http://www.kadaster.nl/schemas/lvbag/extract-deelbestand-lvc/v20200601"
 xmlns:Objecten="www.kadaster.nl/schemas/lvbag/imbag/objecten/v20200601"
 xmlns:gml="http://www.opengis.net/gml/3.2">
 <sl:standBestand xmlns:sl="http://www.kadaster.nl/schemas/standlevering-generiek/1.0">
  <sl:stand><sl-bag-extract:bagObject>
   <Objecten:Woonplaats>
    <Objecten:identificatie domein="NL.IMBAG.Woonplaats">1234</Objecten:identificatie>
    <Objecten:naam>Proefdorp</Objecten:naam>
    <Objecten:status>Woonplaats aangewezen</Objecten:status>
    <Objecten:geconstateerd>N</Objecten:geconstateerd>
   </Objecten:Woonplaats>
  </sl-bag-extract:bagObject></sl:stand>
 </sl:standBestand>
</sl-bag-extract:bagStand>
"""

_XODR = b"""<?xml version="1.0"?>
<OpenDRIVE><header revMajor="1" revMinor="6"/>
 <road id="1" length="10" junction="-1">
  <planView><geometry s="0" x="0" y="0" hdg="0" length="10"><line/>
  </geometry></planView>
  <lanes><laneSection s="0"><center><lane id="0" type="none"/></center>
   <right><lane id="-1" type="driving"><width sOffset="0" a="3" b="0"
    c="0" d="0"/></lane></right></laneSection></lanes>
 </road>
</OpenDRIVE>
"""

_ILI2 = b"""<?xml version="1.0" encoding="UTF-8"?>
<TRANSFER xmlns="http://www.interlis.ch/INTERLIS2.3">
 <HEADERSECTION VERSION="2.3" SENDER="probe"/>
 <DATASECTION>
  <Probe.Topic BID="b1">
   <Probe.Topic.Punkt TID="1">
    <Name>alpha</Name>
    <Geometrie><COORD><C1>600000.0</C1><C2>200000.0</C2></COORD></Geometrie>
   </Probe.Topic.Punkt>
  </Probe.Topic>
 </DATASECTION>
</TRANSFER>
"""

_ILI1_IMD = b"""<?xml version="1.0" encoding="UTF-8"?>
<TRANSFER xmlns="http://www.interlis.ch/INTERLIS2.3">
 <DATASECTION/>
</TRANSFER>
"""

_ILI1 = b"""SCNT
probe
////
MTID INTERLIS1
MODL Probe
TOPI Topic
TABL Grenzen
OBJE 1
STPT 0.000 0.000
LIPT 10.000 5.000
ELIN
ETAB
ETOP
EMOD
ENDE
"""

_SOSI = """.HODE
..TEGNSETT UTF-8
..TRANSPAR
...KOORDSYS 22
...ORIGO-NØ 0 0
...ENHET 0.01
.PUNKT 1:
..OBJTYPE Fastmerke
..NØ
6600000 500000
.SLUTT
""".encode()

_JML = b"""<?xml version="1.0" encoding="UTF-8"?>
<JCSDataFile xmlns:gml="http://www.opengis.net/gml">
<JCSGMLInputTemplate>
<CollectionElement>featureCollection</CollectionElement>
<FeatureElement>feature</FeatureElement>
<GeometryElement>geometry</GeometryElement>
<ColumnDefinitions>
 <column><name>name</name><type>STRING</type>
  <valueElement elementName="property" attributeName="name"
   attributeValue="name"/>
  <valueLocation position="body"/></column>
</ColumnDefinitions>
</JCSGMLInputTemplate>
<featureCollection>
 <feature>
  <geometry><gml:Point><gml:coordinates>1.5,2.5</gml:coordinates>
  </gml:Point></geometry>
  <property name="name">alpha</property>
 </feature>
</featureCollection>
</JCSDataFile>
"""

_MAPML = b"""<mapml- xmlns="http://www.w3.org/1999/xhtml">
<map-head><map-title>probe</map-title></map-head>
<map-body>
 <map-feature id="f1" class="poi">
  <map-properties><table><tr><td itemprop="name">alpha</td></tr>
  <tr><td itemprop="rank">3</td></tr></table></map-properties>
  <map-geometry><map-point><map-coordinates>1.5 2.5</map-coordinates>
  </map-point></map-geometry>
 </map-feature>
</map-body>
</mapml->
"""

_OSM = b"""<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6">
 <node id="1" lat="49.5" lon="2.5"><tag k="name" v="alpha"/>
  <tag k="amenity" v="cafe"/></node>
 <node id="2" lat="49.6" lon="2.6"/>
</osm>
"""

_VFK = ("&HVERZE;\"5.0\"\n"
        "&BSOBR;ID N30;CISLO_BODU N12;SOURADNICE_Y N10.2;"
        "SOURADNICE_X N10.2\n"
        "&DSOBR;1;7;700000.50;1000000.25\n"
        "&K\n").encode("iso-8859-2")

_GTFS_STOPS = (b"stop_id,stop_name,stop_lat,stop_lon\n"
               b"S1,Gare,43.5,1.25\nS2,Port,43.6,1.5\n")

_IDF = b"""tbl; Node
atr; NODE_ID; X; Y
frm; decimal(10); decimal(5,2); decimal(5,2)
rec; 1; 2.00; 49.00
rec; 2; 3.00; 50.00
end; 2
tbl; Link
atr; LINK_ID; FROM_NODE; TO_NODE
frm; decimal(10); decimal(10); decimal(10)
rec; 10; 1; 2
end; 1
eof; 2
"""

_PDS_LBL = b"""PDS_VERSION_ID = PDS3
RECORD_TYPE = FIXED_LENGTH
RECORD_BYTES = 16
FILE_RECORDS = 2
^TABLE = ("TABLE.TAB", 1)
OBJECT = TABLE
  INTERCHANGE_FORMAT = ASCII
  ROWS = 2
  COLUMNS = 2
  ROW_BYTES = 16
  OBJECT = COLUMN
    NAME = LONGITUDE
    DATA_TYPE = ASCII_REAL
    START_BYTE = 1
    BYTES = 7
  END_OBJECT = COLUMN
  OBJECT = COLUMN
    NAME = LATITUDE
    DATA_TYPE = ASCII_REAL
    START_BYTE = 8
    BYTES = 7
  END_OBJECT = COLUMN
END_OBJECT = TABLE
END
"""

_TAB = b"""!table
!version 300
!charset WindowsLatin1

Definition Table
  Type NATIVE Charset "WindowsLatin1"
  Fields 2
    EAS_ID Integer ;
    NAME Char (10) ;
"""

_JSONFG = {"type": "FeatureCollection",
           "conformsTo": ["[ogc-json-fg-1-0.1:core]",
                          "http://www.opengis.net/spec/json-fg-1/0.1"],
           "features": [{"type": "Feature", "id": 1,
                         "properties": {"n": 1}, "geometry": None,
                         "place": {"type": "Point",
                                   "coordinates": [1.5, 2.5]}}]}
_TOPOJSON = {"type": "Topology",
             "objects": {"pts": {"type": "GeometryCollection",
                                 "geometries": [{"type": "Point",
                                                 "coordinates": [1, 2],
                                                 "properties": {"n": 1}}]}},
             "arcs": []}
_ESRIJSON = {"objectIdFieldName": "OBJECTID", "geometryType":
             "esriGeometryPoint", "spatialReference": {"wkid": 4326},
             "fields": [{"name": "OBJECTID", "type": "esriFieldTypeOID"},
                        {"name": "name", "type": "esriFieldTypeString"}],
             "features": [{"attributes": {"OBJECTID": 1, "name": "a"},
                           "geometry": {"x": 1.5, "y": 2.5}}]}
_GEOJSON_TOPOLOGY_VALUE = {
    "type": "FeatureCollection",
    "features": [{"type": "Feature", "properties": {"kind": "Topology"},
                  "geometry": {"type": "Point", "coordinates": [1, 2]}}]}
_GEOJSON = {"type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"n": 1},
                          "geometry": {"type": "Point",
                                       "coordinates": [1, 2]}}]}


def _tab(path):
    from gdal_ray.sources.shapefile import write_shapefile
    stem = os.path.splitext(path)[0]
    t = pa.table({"wkb": polygons_table(2)["wkb"],
                  "EAS_ID": pa.array([3, 5], pa.int64()),
                  "NAME": pa.array(["alpha", "beta"])})
    write_shapefile(t, stem + "_src.shp")
    os.replace(stem + "_src.dbf", stem + ".dbf")
    with open(path, "wb") as f:
        f.write(_TAB)


def _bytes(data):
    def build(path):
        with open(path, "wb") as f:
            f.write(data)
    return build


def _json(doc):
    return _bytes(json.dumps(doc).encode())


def _with(files: dict):
    """A probe plus sidecars: ``files`` maps a suffix replacing the
    probe's extension to bytes (``""`` is the probe itself)."""
    def build(path):
        stem = os.path.splitext(path)[0]
        for suffix, data in files.items():
            with open(stem + suffix if suffix else path, "wb") as f:
                f.write(data)
    return build


def _in_dir(build_into):
    def build(path):
        os.makedirs(path, exist_ok=True)
        build_into(path)
    return build


def _parquet(path):
    pq.write_table(polygons_table(3), path)


def _georss(path):
    from gdal_ray.sources.georss import write_georss
    t = points_table(3).select(["wkb"]).append_column(
        "title", pa.array(["a", "b", "c"]))
    write_georss(t, path)


def _wasp(path):
    from gdal_ray.sources.wasp import write_wasp
    write_wasp(path, [(10.0, [(0.0, 0.0), (5.0, 5.0)]),
                      (20.0, [(1.0, 1.0), (2.0, 3.0), (4.0, 1.0)])])


def _selafin(path):
    import numpy as np
    from gdal_ray.sources.selafin import write_selafin
    write_selafin(path, np.array([0.0, 1.0, 0.0]),
                  np.array([0.0, 0.0, 1.0]), np.array([[1, 2, 3]]),
                  {"DEPTH": np.array([1.0, 2.0, 3.0])})


def _miramon_pnt(path):
    with open(path, "wb") as f:
        f.write(_miramon(b"PNT 1.1", 2,
                         struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)))


def _miramon_arc(path):
    n = 2
    verts_at = 48 + 56
    hdr = struct.pack("<4d", 0, 0, 3, 4) + struct.pack(
        "<4I", n, verts_at, 0, 1) + struct.pack("<d", 5.0)
    with open(path, "wb") as f:
        f.write(_miramon(b"ARC 1.1", 1, hdr
                         + struct.pack("<4d", 0.0, 0.0, 3.0, 4.0)))


def _miramon_pol(path):
    _miramon_arc(os.path.splitext(path)[0] + ".arc")
    universe = struct.pack("<4d", 0, 0, 3, 4) + struct.pack(
        "<4I", 0, 0, 0, 0) + struct.pack("<2d", 0.0, 0.0)
    with open(path, "wb") as f:
        f.write(_miramon(b"POL 1.1", 1, bytes(24) + universe))


def _w(ref: str, table=None):
    """Write a probe with an engine writer, ``"module:function"``
    beside ``gdal_ray/sources``: writer(table, path)."""
    def build(path):
        mod, fn = ref.split(":")
        writer = getattr(importlib.import_module(
            "gdal_ray.sources." + mod), fn)
        writer(table if table is not None else polygons_table(3), path)
    return build


_POINTS = points_table(3)

# relative path → builder(path); a builder may add sidecars beside it
PROBES = {
    "layer.shp": _w("shapefile:write_shapefile"),
    "layer.gpkg": _w("gpkg:write_gpkg"),
    "layer.csv": _w("csvio:write_csv"),
    "layer.geojson": _w("geojson:write_geojson", _POINTS),
    "layer.geojsonl": _w("geojson:write_geojsonseq", _POINTS),
    "layer.geojsons": _w("geojson:write_geojsonseq", _POINTS),
    "layer.ndjson": _w("geojson:write_geojsonseq", _POINTS),
    "jsonfg.json": _json(_JSONFG),
    "topology.json": _json(_TOPOJSON),
    "topology_value.json": _json(_GEOJSON_TOPOLOGY_VALUE),
    "esri.json": _json(_ESRIJSON),
    "plain.json": _json(_GEOJSON),
    "layer.topojson": _json(_TOPOJSON),
    "layer.esrijson": _json(_ESRIJSON),
    "table.lbl": _with({".lbl": _PDS_LBL, ".TAB":
                        b"  1.500  2.500\r\n  3.000  4.000\r\n"}),
    "transfer.xtf": _bytes(_ILI2),
    "transfer.itf": _with({"": _ILI1, ".imd": _ILI1_IMD}),
    "model_missing.itf": _bytes(_ILI1),
    "sheet.sxf": _bytes(_sxf()),
    "survey.sos": _bytes(_SOSI),
    "layer.kml": _w("kmlvec:write_kml"),
    "layer.fgb": _w("flatgeobuf:write_fgb"),
    "layer.gpx": _w("gpx:write_gpx", _POINTS),
    "layer.gml": _w("gml:write_gml"),
    "volume.ntf": _bytes(_ntf()),
    "nitf.ntf": _bytes(b"NITF02.10" + bytes(100)),
    "lot/E000AB01.THF": lambda p: _edigeo(os.path.dirname(p)),
    "tiger/TGR01001.RT1": _bytes(_tiger_rt1()),
    "road.xodr": _bytes(_XODR),
    "nas.xml": _bytes(_NAS),
    "lvbag.xml": _bytes(_LVBAG),
    "georss.xml": _georss,
    "gml.xml": _w("gml:write_gml"),
    "layer.mif": _w("mif:write_mif"),
    "layer.tab": _tab,
    "drawing.dwg": _bytes(b"AC1018" + bytes(128)),
    "layer.dxf": _w("dxf:write_dxf"),
    "layer.arrow": _w("drivers:write_arrow"),
    "layer.arrows": _w("drivers:write_arrow"),
    "layer.feather": _w("drivers:write_arrow"),
    "layer.parquet": _parquet,
    "empty.gdb": lambda p: os.makedirs(p),
    "extract.pbf": _bytes(_pbf_blob(b"OSMHeader", b"")),
    "named.osm.pbf": _bytes(b""),
    "map.osm": _bytes(_OSM),
    "tile.pbf": _bytes(_mvt()),
    "tile.mvt": _bytes(_mvt()),
    "tiles.pmtiles": _bytes(_pmtiles()),
    "layer.gmt": _w("gmtvec:write_gmt"),
    "layer.jml": _bytes(_JML),
    "sheet.xlsx": _bytes(_xlsx()),
    "sheet.ods": _bytes(_ods()),
    "sheet.xls": _bytes(_xls()),
    "drawing.dgn": _bytes(b"\xff\xff"),
    "cover.e00": _bytes(_e00()),
    "cover": lambda p: _in_dir(lambda d: _bytes(_avc_lab())(
        os.path.join(d, "lab.adf")))(p),
    "feed": lambda p: _in_dir(lambda d: _bytes(_GTFS_STOPS)(
        os.path.join(d, "stops.txt")))(p),
    "transit.idf": _bytes(_IDF),
    "transit.x10": _bytes(_IDF),
    "s101/101PROBE.000": _bytes(_s101()),
    "s57/US5PROBE.000": _bytes(_s57()),
    "layer.mapml": _bytes(_MAPML),
    "layer.sqlite": _w("sqlitevec:write_sqlite"),
    "layer.db": _w("sqlitevec:write_sqlite"),
    "cadastre.vfk": _bytes(_VFK),
    "points.pnt": _miramon_pnt,
    "lines/lines.arc": _miramon_arc,
    "polys/polys.pol": _miramon_pol,
    "terrain.map": _wasp,
    "mesh.slf": _selafin,
}

# (probe, driver name, rows, digest of the table read) — or, where the
# reader refuses the probe, (probe, driver name, None, exception type).
# Recorded from the per-extension readers this table replaced; the six
# probes marked "new" are entries the old routing did not reach (it
# read the LV BAG and GeoRSS probes as empty GML and had no reader for
# the others).
EXPECTED = [
    ("layer.shp", "ESRI Shapefile", 3, "31560c1c3b25ecfd"),
    ("layer.gpkg", "GPKG", 3, "6ff311ede80fc0b4"),
    ("layer.csv", "CSV", 3, "4f7667a3db48d261"),
    ("layer.geojson", "GeoJSON", 3, "8f893782a61e44db"),
    ("layer.geojsonl", "GeoJSONSeq", 3, "8f893782a61e44db"),
    ("layer.geojsons", "GeoJSONSeq", 3, "8f893782a61e44db"),
    ("layer.ndjson", "GeoJSONSeq", 3, "8f893782a61e44db"),
    ("jsonfg.json", "JSONFG", 1, "3905c09bbcc397b5"),
    ("topology.json", "TopoJSON", 1, "b778bdfb014db539"),
    ("topology_value.json", "GeoJSON", 1, "6bc3eab564d9b6ea"),
    ("esri.json", "ESRIJSON", 1, "a269173237682e69"),
    ("plain.json", "GeoJSON", 1, "81f28fedc6db6a77"),
    ("layer.topojson", "TopoJSON", 1, "b778bdfb014db539"),
    ("layer.esrijson", "ESRIJSON", 1, "ea78a69ff39c9bdc"),
    ("table.lbl", "PDS", 2, "9589b378c43620bd"),
    ("transfer.xtf", "Interlis 2", 1, "5b96e246aa0fb632"),
    ("transfer.itf", "Interlis 1", 1, "38debe3366cc6276"),
    ("model_missing.itf", "Interlis 1", None, ValueError),
    ("sheet.sxf", "SXF", 1, "bd2f9d5f7ef36c80"),
    ("survey.sos", "SOSI", 1, "59b8eebd0a383107"),
    ("layer.kml", "KML", 3, "06f58a944ae892d0"),
    ("layer.fgb", "FlatGeobuf", 3, "dc9db058a6597abb"),
    ("layer.gpx", "GPX", 3, "c10dbcfe9f7fb09d"),
    ("layer.gml", "GML", 3, "ea4c000e4b3eb965"),
    ("volume.ntf", "UK .NTF", 1, "9e1ecb635d1b6df6"),
    ("nitf.ntf", "NITF", None, ValueError),
    ("lot/E000AB01.THF", "EDIGEO", 1, "ecab1070eed0c586"),
    ("tiger/TGR01001.RT1", "TIGER", 1, "8d824a9c2bc82358"),
    ("road.xodr", "XODR", 1, "da6687e06d4e2235"),
    ("nas.xml", "NAS", 1, "331f3de79bb357e8"),
    ("lvbag.xml", "LVBAG", 1, "1aa1132bc3f001b0"),             # new
    ("georss.xml", "GeoRSS", 3, "9aafc1a200051cea"),           # new
    ("gml.xml", "GML", 3, "ea4c000e4b3eb965"),
    ("layer.mif", "MapInfo File", 3, "88cd4628ec787161"),
    ("layer.tab", "MapInfo File", 2, "77a05fb28e638aef"),
    ("drawing.dwg", "CAD", None, ValueError),
    ("layer.dxf", "DXF", 3, "78a48244a0df9841"),
    ("layer.arrow", "Arrow", 3, "6ff311ede80fc0b4"),
    ("layer.arrows", "Arrow", 3, "6ff311ede80fc0b4"),
    ("layer.feather", "Arrow", 3, "6ff311ede80fc0b4"),
    ("layer.parquet", "Parquet", 3, "6ff311ede80fc0b4"),
    ("empty.gdb", "OpenFileGDB", None, FileNotFoundError),
    ("extract.pbf", "OSM", 0, "5d70c93205a8621c"),
    ("named.osm.pbf", "OSM", 0, "5d70c93205a8621c"),
    ("map.osm", "OSM", 1, "d4da7e1f1037ffe1"),
    ("tile.pbf", "MVT", 2, "8715c6748eb9ee07"),
    ("tile.mvt", "MVT", 2, "8715c6748eb9ee07"),
    ("tiles.pmtiles", "PMTiles", 2, "3e5e17e0a95af52f"),
    ("layer.gmt", "OGR_GMT", 3, "88cd4628ec787161"),
    ("layer.jml", "JML", 1, "4ef670e0ef899c8e"),
    ("sheet.xlsx", "XLSX", 1, "67553f6b24a26878"),
    ("sheet.ods", "ODS", 1, "67553f6b24a26878"),
    ("sheet.xls", "XLS", 1, "67553f6b24a26878"),
    ("drawing.dgn", "DGN", 0, "9878c7a35908e373"),
    ("cover.e00", "AVCE00", 1, "38f617ff80b0c3d3"),
    ("cover", "AVCBin", 1, "f175512e76b87631"),                # new
    ("feed", "GTFS", 2, "f0b11b832a8b9266"),                   # new
    ("transit.idf", "VDV", 2, "dd69f9789257eff8"),
    ("transit.x10", "VDV", 2, "dd69f9789257eff8"),
    ("s101/101PROBE.000", "S101", 0, "1f7f2804f2559532"),
    ("s57/US5PROBE.000", "S57", 1, "cbc8b6c50017c70d"),
    ("layer.mapml", "MapML", 1, "982257af6173da1c"),
    ("layer.sqlite", "SQLite", 3, "88cd4628ec787161"),
    ("layer.db", "SQLite", 3, "88cd4628ec787161"),
    ("cadastre.vfk", "VFK", 1, "ee9820f92023bfdc"),
    ("points.pnt", "MiraMonVector", 2, "f2003e27724675d9"),
    ("lines/lines.arc", "MiraMonVector", 1, "532121091c033cce"),
    ("polys/polys.pol", "MiraMonVector", 0, "94e4b0e0da5d0971"),
    ("terrain.map", "WAsP", 2, "9cc146185b60513e"),            # new
    ("mesh.slf", "Selafin", 3, "3cf4bf62fefae04a"),            # new
]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("vector_probes"))
    for rel, build in PROBES.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        build(path)
    return root


@pytest.mark.parametrize("rel,name,rows,expect", EXPECTED,
                         ids=[e[0] for e in EXPECTED])
def test_routing_matches_old_readers(probe_dir, rel, name, rows, expect):
    path = os.path.join(probe_dir, rel)
    assert vector_driver(path) == name
    if rows is None:
        with pytest.raises(expect):
            read_vector(path)
    else:
        t = read_vector(path)
        assert (t.num_rows, digest(t)) == (rows, expect)


def test_every_probe_is_expected():
    assert [e[0] for e in EXPECTED] == list(PROBES)


def test_every_entry_has_a_probe():
    assert {n for n, _, _ in D._VECTOR} <= {e[1] for e in EXPECTED}


def test_nitf_raster_named_ntf_points_to_read_raster(probe_dir):
    with pytest.raises(ValueError, match="NITF raster.*read_raster"):
        read_vector(os.path.join(probe_dir, "nitf.ntf"))


def test_unknown_extension_names_the_table(tmp_path):
    p = tmp_path / "x.unknownext"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="no vector driver.*shp"):
        vector_driver(str(p))
    with pytest.raises(ValueError, match="no vector driver"):
        read_vector(str(p))


def test_list_drivers_is_the_table():
    exts = {e for _, identify, _ in D._VECTOR if isinstance(identify, tuple)
            for e in identify}
    assert list_drivers() == sorted(exts)
    assert {"shp", "json", "000", "pbf", "xml", "slf", "map"} <= exts


def test_zip_member_pick_reads_the_table(tmp_path, probe_dir):
    # a member only the table knows (Selafin, new here) is the pick;
    # a file of no vector format beside it is ignored
    zp = str(tmp_path / "mesh.zip")
    with zipfile.ZipFile(zp, "w") as z:
        z.write(os.path.join(probe_dir, "mesh.slf"), "data/mesh.slf")
        z.writestr("data/readme.txt", "not a layer")
    assert vector_driver(zp) == "Selafin"
    assert read_vector(zp).num_rows == 3


def test_gtfs_feed_zip_is_read_as_the_archive(tmp_path):
    # a bare feed .zip holds no member of a vector extension; the GTFS
    # entry identifies the archive itself and reads the same table as
    # the feed directory probe
    zp = str(tmp_path / "feed.zip")
    with zipfile.ZipFile(zp, "w") as z:
        z.writestr("stops.txt", _GTFS_STOPS)
        z.writestr("agency.txt", "agency_id,agency_name\nA1,Agency\n")
    assert vector_driver(zp) == "GTFS"
    t = read_vector(zp)
    assert (t.num_rows, digest(t)) == (2, "f0b11b832a8b9266")


@pytest.mark.parametrize("members", [["readme.txt"], ["a.csv", "b.csv"]])
def test_bare_zip_without_one_vector_member_names_the_candidates(
        tmp_path, members):
    zp = str(tmp_path / "bundle.zip")
    with zipfile.ZipFile(zp, "w") as z:
        for name in members:
            z.writestr(name, "x\n")
    with pytest.raises(ValueError, match="specify the member to read"):
        read_vector(zp)


def test_archive_front_end_before_routing(tmp_path, probe_dir):
    src = os.path.join(probe_dir, "topology.json")
    gz = str(tmp_path / "topology.json.gz")
    with open(src, "rb") as f, gzip.open(gz, "wb") as g:
        g.write(f.read())
    assert vector_driver(gz) == "TopoJSON"
    zp = str(tmp_path / "a.zip")
    with zipfile.ZipFile(zp, "w") as z:
        z.write(src, "inner/t.json")
    assert vector_driver("/vsizip/" + zp + "/inner/t.json") == "TopoJSON"


def test_user_entry_goes_first_and_unregisters(probe_dir):
    path = os.path.join(probe_dir, "plain.json")
    register_vector_driver(".JSON", lambda p: pa.table({"fid": [7]}))
    try:
        assert vector_driver(path) == "json"
        assert read_vector(path)["fid"].to_pylist() == [7]
        register_vector_driver("json", lambda p: pa.table({"fid": [8]}))
        assert read_vector(path)["fid"].to_pylist() == [8]
    finally:
        unregister_vector_driver("json")
    assert vector_driver(path) == "GeoJSON"
    assert read_vector(path).num_rows == 1
    with pytest.raises(KeyError):
        unregister_vector_driver("json")


def test_user_extension_is_listed_while_registered():
    register_vector_driver(".probe", lambda p: pa.table({"fid": [1]}))
    try:
        assert "probe" in list_drivers()
    finally:
        unregister_vector_driver(".probe")
    assert "probe" not in list_drivers()


def test_loading_the_table_imports_no_reader():
    import subprocess
    import sys
    code = ("import sys, gdal_ray.sources.drivers; print(sorted(m for m "
            "in sys.modules if m.startswith('gdal_ray')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__)))).stdout
    assert eval(out) == ["gdal_ray", "gdal_ray.sources",
                         "gdal_ray.sources.drivers",
                         "gdal_ray.sources.raster"]


@pytest.mark.parametrize("name,body", [
    ("empty.idf", b""), ("empty.x10", b""), ("empty.vfk", b""),
    ("one_byte.slf", b"\x00")])
def test_empty_or_truncated_file_raises_valueerror(tmp_path, name, body):
    """A file with no layers, or a one-byte Selafin file, is refused
    with ValueError naming what is wrong, not StopIteration or
    struct.error."""
    p = tmp_path / name
    p.write_bytes(body)
    with pytest.raises(ValueError):
        read_vector(str(p))


def _mvt_layers(path):
    from gdal_ray.sources.mvt import decode_mvt
    with open(path, "rb") as f:
        return decode_mvt(f.read())


def _interlis(ref):
    def read(path):
        stem = os.path.splitext(path)[0]
        imd = stem + ".imd"
        return _ref(ref)(path, imd if os.path.exists(imd) else None)
    return read


def _ref(ref):
    mod, fn = ref.split(":")
    return getattr(importlib.import_module("gdal_ray.sources." + mod), fn)


# probe → its reader of the whole {layer: table} dataset: the readers
# behind a ``_first_layer`` entry and the other multi-layer readers
LAYER_READERS = {
    "transfer.xtf": _interlis("ili2:read_ili2"),
    "transfer.itf": _interlis("ili:read_ili1"),
    "sheet.sxf": _ref("sxf:read_sxf"),
    "survey.sos": _ref("sosi:read_sosi"),
    "lvbag.xml": _ref("lvbag:read_lvbag"),
    "empty.gdb": _ref("openfilegdb:read_gdb"),
    "mesh.slf": _ref("selafin:read_selafin"),
    "cadastre.vfk": _ref("vfk:read_vfk"),
    "feed": _ref("gtfs:read_gtfs_layers"),
    "transit.idf": _ref("vdv:read_vdv_layers"),
    "transit.x10": _ref("vdv:read_vdv_layers"),
    "s57/US5PROBE.000": _ref("s57:read_s57_layers"),
    "tile.pbf": _mvt_layers,
    "tile.mvt": _mvt_layers,
    "cover.e00": _ref("avce00:read_e00_layers"),
    "cover": _ref("avcbin:read_avcbin_layers"),
}

# (probe, layer, rows, digest) for every layer, recorded before the
# readers moved onto ``sources/vector.py::with_geometry``
EXPECTED_LAYERS = [
    ("transfer.xtf", "Probe.Topic.Punkt", 1, "5b96e246aa0fb632"),
    ("transfer.itf", "Topic__Grenzen", 1, "38debe3366cc6276"),
    ("sheet.sxf", "SYSTEM", 1, "bd2f9d5f7ef36c80"),
    ("survey.sos", "points", 1, "59b8eebd0a383107"),
    ("lvbag.xml", "Woonplaats", 1, "1aa1132bc3f001b0"),
    ("mesh.slf", "points", 3, "3cf4bf62fefae04a"),
    ("mesh.slf", "elements", 1, "3aff16d85bf3443c"),
    ("cadastre.vfk", "SOBR", 1, "ee9820f92023bfdc"),
    ("feed", "stops", 2, "f0b11b832a8b9266"),
    ("transit.idf", "Node", 2, "dd69f9789257eff8"),
    ("transit.idf", "Link", 1, "da8d4fd734d69af7"),
    ("transit.x10", "Node", 2, "dd69f9789257eff8"),
    ("transit.x10", "Link", 1, "da8d4fd734d69af7"),
    ("s57/US5PROBE.000", "DEPARE", 1, "cbc8b6c50017c70d"),
    ("tile.pbf", "layer", 2, "0f3bd9bf09abab6e"),
    ("tile.mvt", "layer", 2, "0f3bd9bf09abab6e"),
    ("cover.e00", "ARC", 1, "38f617ff80b0c3d3"),
    ("cover", "LAB", 1, "f175512e76b87631"),
]


def test_every_layer_reader_probe_is_a_probe():
    assert set(LAYER_READERS) <= set(PROBES)


@pytest.mark.parametrize("rel,layer,rows,expect", EXPECTED_LAYERS,
                         ids=[f"{e[0]}:{e[1]}" for e in EXPECTED_LAYERS])
def test_every_layer_is_pinned(probe_dir, rel, layer, rows, expect):
    t = LAYER_READERS[rel](os.path.join(probe_dir, rel))[layer]
    assert (t.num_rows, digest(t)) == (rows, expect)


def test_pinned_layers_are_all_layers(probe_dir):
    seen = []
    for rel, read in LAYER_READERS.items():
        try:
            layers = read(os.path.join(probe_dir, rel))
        except (ValueError, FileNotFoundError):
            continue
        seen += [(rel, name) for name in layers]
    assert seen == [e[:2] for e in EXPECTED_LAYERS]
