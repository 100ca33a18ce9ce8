"""XLSX and ODS spreadsheet readers — attribute-table layers (one per
sheet), no geometry, matching the reference's column-type inference.

Reference drivers: ogr/ogrsf_frmts/xlsx/, ogr/ogrsf_frmts/ods/.
Behavior replicated from autotest/ogr/{ogr_xlsx,ogr_ods}.py:
- header row auto-detection (first row all strings and a later row
  differing in type) — otherwise Field1..FieldN names;
- per-column type promotion: Integer -> Real -> String; Date / Time /
  DateTime from XLSX cell styles (built-in numFmt ids 14-22 + custom
  format codes) or ODS office:value-type;
- XLSX serial dates convert from the 1899-12-30 epoch and render as
  OGR strings ("YYYY/MM/DD", "HH:MM:SS", "YYYY/MM/DD HH:MM:SS");
- shared strings, inline strings, repeated ODS columns, missing
  cells by cell reference.
"""

from __future__ import annotations

import datetime
import re
import zipfile
import xml.etree.ElementTree as ET

import pyarrow as pa
from . import pick_layer

__all__ = ["read_xlsx_layers", "read_xlsx_table", "read_ods_layers",
           "read_ods_table"]

_EPOCH = datetime.datetime(1899, 12, 30)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _col_index(ref: str) -> int:
    n = 0
    for ch in ref:
        if ch.isalpha():
            n = n * 26 + (ord(ch.upper()) - 64)
        else:
            break
    return n - 1


_DATE_FMT_IDS = set(range(14, 18)) | {22}
_TIME_FMT_IDS = set(range(18, 22)) | {45, 46, 47}


def _fmt_kind(code: str) -> str | None:
    """Custom numFmt format code -> 'date'/'time'/'datetime'/None."""
    c = re.sub(r"\[[^\]]*\]|\"[^\"]*\"", "", code).lower()
    # 'm' is ambiguous (month vs minute): y/d decide date-ness
    has_d = any(ch in c for ch in "yd")
    has_t = any(ch in c for ch in "hs") or ":" in c
    if has_d and has_t:
        return "datetime"
    if has_d:
        return "date"
    if has_t:
        return "time"
    return None


def _serial_to_dt(v: float) -> datetime.datetime:
    return _EPOCH + datetime.timedelta(days=float(v))


def _render(v, kind):
    dt = _serial_to_dt(v)
    # round to the nearest second (xlsx serials are binary fractions)
    dt = (dt + datetime.timedelta(seconds=0.5)).replace(microsecond=0)
    if kind == "date":
        return dt.strftime("%Y/%m/%d")
    if kind == "time":
        return dt.strftime("%H:%M:%S")
    return dt.strftime("%Y/%m/%d %H:%M:%S")


def read_xlsx_layers(path: str) -> dict[str, pa.Table]:
    zf = zipfile.ZipFile(path)

    def read_xml(name):
        try:
            return ET.fromstring(zf.read(name))
        except KeyError:
            return None

    # shared strings
    shared: list[str] = []
    ss = read_xml("xl/sharedStrings.xml")
    if ss is not None:
        for si in ss:
            if _local(si.tag) != "si":
                continue
            shared.append("".join(t.text or "" for t in si.iter()
                                  if _local(t.tag) == "t"))
    # styles: cellXf index -> date kind
    xf_kind: list[str | None] = []
    st = read_xml("xl/styles.xml")
    custom: dict[int, str | None] = {}
    if st is not None:
        for el in st.iter():
            if _local(el.tag) == "numFmt":
                custom[int(el.get("numFmtId"))] = _fmt_kind(
                    el.get("formatCode", ""))
        for el in st.iter():
            if _local(el.tag) == "cellXfs":
                for xf in el:
                    fid = int(xf.get("numFmtId", "0"))
                    if fid in custom:
                        xf_kind.append(custom[fid])
                    elif fid in _DATE_FMT_IDS:
                        xf_kind.append("datetime" if fid == 22 else "date")
                    elif fid in _TIME_FMT_IDS:
                        xf_kind.append("time")
                    else:
                        xf_kind.append(None)
    # workbook: sheet name -> target
    wb = read_xml("xl/workbook.xml")
    rels = read_xml("xl/_rels/workbook.xml.rels")
    rid_target = {}
    if rels is not None:
        for r in rels:
            rid_target[r.get("Id")] = r.get("Target")
    sheets = []
    for el in wb.iter():
        if _local(el.tag) == "sheet":
            rid = None
            for k, v in el.attrib.items():
                if _local(k) == "id":
                    rid = v
            target = rid_target.get(rid, f"worksheets/sheet"
                                    f"{len(sheets) + 1}.xml")
            if target.startswith("/"):
                target = target.lstrip("/")
            elif not target.startswith("xl/"):
                target = "xl/" + target
            sheets.append((el.get("name"), target))

    out = {}
    for name, target in sheets:
        root = read_xml(target)
        if root is None:
            continue
        rows: list[dict[int, tuple]] = []
        for row in root.iter():
            if _local(row.tag) != "row":
                continue
            # honor the row's r attribute: gaps are empty rows (they
            # count as features — autotest Feuille1 has 26)
            rnum = row.get("r")
            if rnum is not None:
                while len(rows) < int(rnum) - 1:
                    rows.append({})
            cells: dict[int, tuple] = {}
            ci = -1
            for c in row:
                if _local(c.tag) != "c":
                    continue
                ref = c.get("r")
                ci = _col_index(ref) if ref else ci + 1
                ctype = c.get("t", "n")
                s = int(c.get("s", "0"))
                v = None
                text = None
                for sub in c:
                    if _local(sub.tag) == "v":
                        text = sub.text
                    elif _local(sub.tag) == "is":
                        text = "".join(t.text or "" for t in sub.iter()
                                       if _local(t.tag) == "t")
                        ctype = "inline"
                if text is None:
                    continue
                if ctype == "s":
                    v = ("str", shared[int(text)])
                elif ctype in ("str", "inline"):
                    v = ("str", text)
                elif ctype == "b":
                    v = ("int", int(text))
                else:  # numeric
                    kind = xf_kind[s] if s < len(xf_kind) else None
                    if kind:
                        v = (kind, _render(float(text), kind))
                    else:
                        f = float(text)
                        if f.is_integer() and "." not in text and \
                                "e" not in text.lower() and \
                                abs(f) < 2**53:
                            v = ("int", int(f))
                        else:
                            v = ("float", f)
                cells[ci] = v
            rows.append(cells)
        out[name] = _assemble(rows)
    return out


_RANK = {"int": 0, "float": 1, "date": 2, "time": 2, "datetime": 2,
         "str": 3}


def _assemble(rows: list[dict[int, tuple]]) -> pa.Table:
    rows = [r for r in rows]
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return pa.table({"fid": pa.array([], pa.int64())})
    ncols = max((max(r) + 1) for r in rows if r) if any(rows) else 0

    # header detection: first non-empty row all strings, and some later
    # row has a non-string value (the reference's heuristic)
    first = rows[0]
    first_all_str = first and all(first.get(i, ("str", None))[0] == "str"
                                  for i in range(ncols)
                                  if first.get(i) is not None)
    later_non_str = any(v and v[0] != "str"
                        for r in rows[1:] for v in r.values())
    has_header = bool(first_all_str and later_non_str and len(rows) > 1)
    if has_header:
        names = [str(first.get(i, ("str", f"Field{i + 1}"))[1]
                     or f"Field{i + 1}") for i in range(ncols)]
        data_rows = rows[1:]
    else:
        names = [f"Field{i + 1}" for i in range(ncols)]
        data_rows = rows

    # per-column type promotion
    kinds = [None] * ncols
    for r in data_rows:
        for i, v in r.items():
            if v is None:
                continue
            k = v[0]
            if kinds[i] is None:
                kinds[i] = k
            elif kinds[i] != k:
                a, b = kinds[i], k
                if {a, b} == {"int", "float"}:
                    kinds[i] = "float"
                elif _RANK.get(a, 3) < _RANK.get(b, 3):
                    kinds[i] = b if _RANK.get(b, 3) == 3 else "str"
                elif _RANK.get(a, 3) > _RANK.get(b, 3):
                    kinds[i] = a if _RANK.get(a, 3) == 3 else "str"
    patype = {"int": pa.int64(), "float": pa.float64()}
    cols = {}
    for i in range(ncols):
        k = kinds[i] or "str"
        vals = []
        for r in data_rows:
            v = r.get(i)
            if v is None:
                vals.append(None)
            elif k == "int":
                vals.append(int(v[1]))
            elif k == "float":
                vals.append(float(v[1]))
            else:
                vals.append(str(v[1]))
        cols[names[i]] = pa.array(vals, patype.get(k, pa.string()))
    return pa.table({"fid": pa.array(range(len(data_rows)), pa.int64()),
                     **cols})


# ----------------------------------------------------------------- ODS
def read_ods_layers(path: str) -> dict[str, pa.Table]:
    zf = zipfile.ZipFile(path)
    root = ET.fromstring(zf.read("content.xml"))
    out = {}
    for tbl in root.iter():
        if _local(tbl.tag) != "table":
            continue
        name = None
        for k, v in tbl.attrib.items():
            if _local(k) == "name":
                name = v
        rows: list[dict[int, tuple]] = []
        for row in tbl:
            if _local(row.tag) != "table-row":
                continue
            nrep = 1
            for k, v in row.attrib.items():
                if _local(k) == "number-rows-repeated":
                    # huge trailing paddings are trimmed by _assemble;
                    # cap so they don't materialize first
                    nrep = min(int(v), 65536)
            cells: dict[int, tuple] = {}
            ci = 0
            for c in row:
                if _local(c.tag) != "table-cell":
                    continue
                rep = 1
                vtype = None
                vnum = None
                vdate = None
                vtime = None
                for k, v in c.attrib.items():
                    lk = _local(k)
                    if lk == "number-columns-repeated":
                        rep = int(v)
                    elif lk == "value-type":
                        vtype = v
                    elif lk == "value":
                        vnum = v
                    elif lk == "date-value":
                        vdate = v
                    elif lk == "time-value":
                        vtime = v
                text = "\n".join(
                    "".join(p.itertext())
                    for p in c if _local(p.tag) == "p") or None
                val = None
                if vtype in ("float", "percentage", "currency") and \
                        vnum is not None:
                    f = float(vnum)
                    val = ("int", int(f)) if f.is_integer() and \
                        "." not in vnum else ("float", f)
                elif vtype == "boolean":
                    val = ("int", 1 if c.get(
                        next(k for k in c.attrib
                             if _local(k) == "boolean-value"),
                        "false") == "true" else 0)
                elif vtype == "date" and vdate:
                    v2 = vdate.replace("-", "/").replace("T", " ")
                    val = ("datetime" if " " in v2 else "date", v2)
                elif vtype == "time" and vtime:
                    m = re.match(r"PT(\d+)H(\d+)M(\d+(?:\.\d+)?)S", vtime)
                    if m:
                        val = ("time", "%02d:%02d:%02d" % (
                            int(m.group(1)), int(m.group(2)),
                            int(float(m.group(3)))))
                elif text is not None:
                    val = ("str", text)
                if val is not None:
                    for k2 in range(rep):
                        cells[ci + k2] = val
                ci += rep
            rows.extend([dict(cells) for _ in range(nrep)])
        # trailing fully-empty rows/cols are padding
        out[name or f"Sheet{len(out) + 1}"] = _assemble(rows)
    return out


def read_xlsx_table(path: str, sheet: str | None = None) -> pa.Table:
    return pick_layer(read_xlsx_layers(path), path, sheet)


def read_ods_table(path: str, sheet: str | None = None) -> pa.Table:
    return pick_layer(read_ods_layers(path), path, sheet)
