"""Attribute fields named like the layer layout's own columns.

Every vector reader appends its attribute columns beside ``fid``,
``wkb`` and the ``ENVELOPE`` columns, and names them through
``sources/vector.py::attribute_names``: a field called ``fid``, ``wkb``
or an envelope column (in any case) becomes ``attr_<name>``. Each
reader here reads one point feature at (3, 4) whose attributes are
``fid=7``, ``wkb="abc"``, ``minx=1.5`` and ``name="n0"``. Where the
engine's writer skips such a field name, the file is written with
same-length stand-ins that are then renamed in place."""

from __future__ import annotations

import json
import sqlite3
import struct

import pyarrow as pa
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.sources.vector import ENVELOPE, attribute_names, with_geometry

# stand-in name → the name the test file finally carries
_RENAMES = {"f_d": "fid", "w_b": "wkb", "m_nx": "minx"}


def _layer(names=("f_d", "w_b", "m_nx", "name")) -> pa.Table:
    t = with_geometry(pa.table({"fid": pa.array([0], pa.int64())}),
                      [W.point(3.0, 4.0)])
    for nm, v in zip(names, (7, "abc", 1.5, "n0")):
        t = t.append_column(nm, pa.array([v]))
    return t


def _renamed(data: bytes) -> bytes:
    for old, new in _RENAMES.items():
        assert data.count(old.encode()) == 1, old
        data = data.replace(old.encode(), new.encode())
    return data


def _csv(tmp_path):
    from gdal_ray.sources.csvio import read_csv
    p = tmp_path / "l.csv"
    p.write_text('WKT,fid,wkb,minx,name\n"POINT (3 4)",7,abc,1.5,n0\n')
    return read_csv(str(p))


def _geojson(tmp_path):
    from gdal_ray.sources.geojson import read_geojson_table
    p = tmp_path / "l.geojson"
    p.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": 0,
         "properties": {"fid": 7, "wkb": "abc", "minx": 1.5, "name": "n0"},
         "geometry": {"type": "Point", "coordinates": [3.0, 4.0]}}]}))
    return read_geojson_table(str(p))


def _shapefile(tmp_path):
    from gdal_ray.sources.shapefile import read_shapefile, write_shapefile
    p = tmp_path / "l.shp"
    write_shapefile(_layer(), str(p))
    dbf = tmp_path / "l.dbf"
    dbf.write_bytes(_renamed(dbf.read_bytes()))
    return read_shapefile(str(p))


def _gpkg(tmp_path):
    from gdal_ray.sources.gpkg import read_gpkg, write_gpkg
    p = str(tmp_path / "l.gpkg")
    write_gpkg(_layer(), p)
    con = sqlite3.connect(p)
    # the primary key gives way, so an attribute can be named fid
    con.execute('ALTER TABLE "layer" RENAME COLUMN fid TO id')
    for old, new in _RENAMES.items():
        con.execute(f'ALTER TABLE "layer" RENAME COLUMN "{old}" TO "{new}"')
    con.commit()
    con.close()
    return read_gpkg(p)


def _fgb(tmp_path):
    from gdal_ray.sources.flatgeobuf import read_fgb, write_fgb
    p = tmp_path / "l.fgb"
    write_fgb(_layer(), str(p))
    p.write_bytes(_renamed(p.read_bytes()))
    return read_fgb(str(p))


# -- a FileGDB v10 directory, byte by byte (sources/openfilegdb.py layout)

def _field(name: str, ftype: int, extra: bytes) -> bytes:
    return (bytes([len(name)]) + name.encode("utf-16-le") + b"\x00"
            + bytes([ftype]) + extra)


_OID = (6, b"\x04\x00")
_INT32 = (1, b"\x04\x00\x00")
_F64 = (3, b"\x08\x00\x00")
_STRING = (4, struct.pack("<iB", 0, 0) + b"\x00")
# origin (0, 0), scale 1, no z/m, no spatial-index grids
_POINT = (7, b"\x00\x00" + struct.pack("<H", 0) + b"\x00"
          + struct.pack("<3d", 0.0, 0.0, 1.0) + bytes(8 + 32 + 1)
          + struct.pack("<I", 0))


def _str(s: str) -> bytes:
    return bytes([len(s)]) + s.encode()


def _gdb_table(base, fields, rows) -> None:
    """Write ``base``.gdbtable/.gdbtablx: ``fields`` are (name, (type,
    descriptor bytes)), ``rows`` the encoded values of each row (no
    nullable field, so no null bitmap)."""
    desc = b"".join(_field(n, *spec) for n, spec in fields)
    desc = struct.pack("<IIBBBBH", len(desc) + 10, 3, 1, 0, 0, 0,
                       len(fields)) + desc
    body = bytearray(struct.pack("<ii", 3, len(rows)) + bytes(24)
                     + struct.pack("<Q", 40) + desc)
    offsets = []
    for values in rows:
        offsets.append(len(body))
        blob = b"".join(values)
        body += struct.pack("<i", len(blob)) + blob
    (base.parent / (base.name + ".gdbtable")).write_bytes(bytes(body))
    (base.parent / (base.name + ".gdbtablx")).write_bytes(
        struct.pack("<IIiI", 3, 1, len(rows), 4)
        + struct.pack(f"<{1024}I", *offsets, *[0] * (1024 - len(offsets))))


def _openfilegdb(tmp_path):
    from gdal_ray.sources.openfilegdb import read_gdb_layer
    gdb = tmp_path / "l.gdb"
    gdb.mkdir()
    _gdb_table(gdb / "a00000001",
               [("Name", _STRING), ("FileFormat", _INT32)],
               [[_str("GDB_SystemCatalog"), struct.pack("<i", 0)],
                [_str("zones"), struct.pack("<i", 0)]])
    point = bytes([1, 4, 5])        # shape type 1; x, y stored as v + 1
    _gdb_table(gdb / "a00000002",
               [("OBJECTID", _OID), ("SHAPE", _POINT), ("fid", _INT32),
                ("wkb", _STRING), ("minx", _F64), ("name", _STRING)],
               [[bytes([len(point)]) + point, struct.pack("<i", 7),
                 _str("abc"), struct.pack("<d", 1.5), _str("n0")]])
    return read_gdb_layer(str(gdb), "zones")


READERS = {"CSV": _csv, "GeoJSON": _geojson, "ESRI Shapefile": _shapefile,
           "GPKG": _gpkg, "FlatGeobuf": _fgb, "OpenFileGDB": _openfilegdb}


@pytest.mark.parametrize("build", READERS.values(), ids=READERS)
def test_layout_names_become_attr_columns(tmp_path, build):
    t = build(tmp_path)
    assert sorted(t.column_names) == sorted(
        ["fid", "wkb", *ENVELOPE, "attr_fid", "attr_wkb", "attr_minx",
         "name"])
    row = t.to_pylist()[0]
    assert W.loads(row["wkb"]).envelope() == (3.0, 4.0, 3.0, 4.0)
    assert row["minx"] == 3.0
    assert (row["attr_fid"], row["attr_wkb"], row["attr_minx"],
            row["name"]) == (7, "abc", 1.5, "n0")


def test_rule_is_case_insensitive_and_suffixes_repeats():
    assert attribute_names(["FID", "Wkb", "MaxY", "name", "name",
                            "attr_fid", "fid"]) == [
        "attr_FID", "attr_Wkb", "attr_MaxY", "name", "name_",
        "attr_fid", "attr_fid_"]
