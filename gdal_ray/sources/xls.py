"""XLS (Excel BIFF5/BIFF8) attribute-table reader.

Reference driver: ogr/ogrsf_frmts/xls/ (wraps freexl).  Behavior
replicated from autotest/ogr/ogr_xls.py: one layer per sheet named
after the BOUNDSHEET record ("Feuille1" in the fixture), header-row
auto-detection shared with the XLSX/ODS readers, Integer/Real/String/
Date/Time/DateTime column typing from cell XF -> FORMAT records
(built-in ids 14-22/45-47 plus freexl's custom-code heuristic),
OGR_XLS_HEADERS=DISABLE and OGR_XLS_FIELD_TYPES=STRING equivalents as
keyword options.

From-scratch pieces (no external libs):
  * OLE2 / CDF compound-document parser: FAT via the 109-entry DIFAT
    plus chained DIFAT sectors, directory tree, mini-FAT streams below
    the 4096-byte cutoff, "Workbook" / "Book" stream extraction;
  * BIFF record stream: BOF/BOUNDSHEET/SST(+CONTINUE with re-spec'd
    grbit at each boundary)/LABELSST/NUMBER/RK/MULRK/LABEL/BOOLERR/
    FORMULA+STRING/XF/FORMAT/DATEMODE;
  * RK packed numbers (int / f64-high-30-bits, /100 flag) and the
    1899-12-30 (or 1904) serial-date epoch.
"""

from __future__ import annotations

import struct

import pyarrow as pa

from . import pick_layer
from .spreadsheet import _assemble, _fmt_kind, _render

__all__ = ["read_xls_layers", "read_xls_table"]

_FREE = 0xFFFFFFFF
_ENDCHAIN = 0xFFFFFFFE


# ------------------------------------------------------------- OLE2
def _ole2_stream(buf: bytes, names: tuple[str, ...]) -> bytes:
    if buf[:8] != bytes.fromhex("d0cf11e0a1b11ae1"):
        raise ValueError("not an OLE2 compound document")
    ssz = 1 << struct.unpack_from("<H", buf, 30)[0]
    sssz = 1 << struct.unpack_from("<H", buf, 32)[0]
    n_fat = struct.unpack_from("<I", buf, 44)[0]
    dir_start = struct.unpack_from("<I", buf, 48)[0]
    mini_cutoff = struct.unpack_from("<I", buf, 56)[0]
    minifat_start = struct.unpack_from("<I", buf, 60)[0]
    n_minifat = struct.unpack_from("<I", buf, 64)[0]
    difat_start = struct.unpack_from("<I", buf, 68)[0]
    n_difat = struct.unpack_from("<I", buf, 72)[0]

    def sector(i):
        off = 512 + i * ssz
        return buf[off:off + ssz]

    # DIFAT: 109 header entries + chained DIFAT sectors
    difat = list(struct.unpack_from("<109I", buf, 76))
    s = difat_start
    for _ in range(n_difat):
        if s in (_FREE, _ENDCHAIN):
            break
        sec = sector(s)
        ents = struct.unpack(f"<{ssz // 4}I", sec)
        difat.extend(ents[:-1])
        s = ents[-1]
    fat = []
    for fs in difat[:max(n_fat, 0)] if n_fat else difat:
        if fs in (_FREE, _ENDCHAIN):
            continue
        fat.extend(struct.unpack(f"<{ssz // 4}I", sector(fs)))
        if n_fat and len(fat) // (ssz // 4) >= n_fat:
            pass

    def chain(start, limit=1 << 30):
        out, s, seen = [], start, set()
        while s not in (_FREE, _ENDCHAIN) and s < len(fat):
            if s in seen:
                break
            seen.add(s)
            out.append(sector(s))
            if len(out) * ssz > limit:
                break
            s = fat[s]
        return b"".join(out)

    # directory entries: 128 bytes each
    dirbuf = chain(dir_start)
    entries = []
    for off in range(0, len(dirbuf) - 127, 128):
        e = dirbuf[off:off + 128]
        nlen = struct.unpack_from("<H", e, 64)[0]
        if nlen < 2:
            entries.append(None)
            continue
        name = e[:nlen - 2].decode("utf-16-le", "replace")
        etype = e[66]
        start = struct.unpack_from("<I", e, 116)[0]
        size = struct.unpack_from("<Q", e, 120)[0]
        entries.append((name, etype, start, size))

    root = next(e for e in entries if e and e[1] == 5)
    ministream = chain(root[2], root[3] + ssz)[:root[3]]
    minifat = []
    s = minifat_start
    for _ in range(max(n_minifat, 1)):
        if s in (_FREE, _ENDCHAIN) or s >= len(fat):
            break
        minifat.extend(struct.unpack(f"<{ssz // 4}I", sector(s)))
        s = fat[s]

    def minichain(start, size):
        out, s, seen = [], start, set()
        while s not in (_FREE, _ENDCHAIN) and s < len(minifat):
            if s in seen:
                break
            seen.add(s)
            out.append(ministream[s * sssz:(s + 1) * sssz])
            if len(out) * sssz >= size + sssz:
                break
            s = minifat[s]
        return b"".join(out)[:size]

    for want in names:
        for e in entries:
            if e and e[1] == 2 and e[0] == want:
                if e[3] < mini_cutoff:
                    return minichain(e[2], e[3])
                return chain(e[2], e[3] + ssz)[:e[3]]
    raise ValueError(f"OLE2 stream {names} not found")


# ------------------------------------------------------------- BIFF
class _Recs:
    """Record iterator with CONTINUE-aware payload access."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def __iter__(self):
        buf = self.buf
        n = len(buf)
        pos = self.pos
        while pos + 4 <= n:
            op, ln = struct.unpack_from("<HH", buf, pos)
            if op == 0 and ln == 0:
                break
            yield op, pos + 4, ln
            pos += 4 + ln


def _parse_sst(buf: bytes, start: int, ln: int) -> list[str]:
    """SST record with CONTINUE chunks: each chunk restarts grbit when
    a string's characters span the boundary."""
    chunks = [(start, ln)]
    pos = start + ln
    while pos + 4 <= len(buf):
        op, cln = struct.unpack_from("<HH", buf, pos)
        if op != 0x3C:                   # CONTINUE
            break
        chunks.append((pos + 4, cln))
        pos += 4 + cln
    ci = 0
    coff, clen = chunks[0]
    p = coff

    def remaining():
        return coff + clen - p

    def advance_chunk():
        nonlocal ci, coff, clen, p
        ci += 1
        coff, clen = chunks[ci]
        p = coff

    def read(nbytes):
        nonlocal p
        out = b""
        need = nbytes
        while need:
            if remaining() == 0:
                advance_chunk()
            take = min(need, remaining())
            out += buf[p:p + take]
            p += take
            need -= take
        return out

    total, unique = struct.unpack_from("<ii", buf, p)
    p += 8
    strings = []
    for _ in range(unique):
        if remaining() == 0:
            advance_chunk()
        cch = struct.unpack("<H", read(2))[0]
        grbit = read(1)[0]
        crun = struct.unpack("<H", read(2))[0] if grbit & 0x08 else 0
        cb = struct.unpack("<I", read(4))[0] if grbit & 0x04 else 0
        chars = []
        left = cch
        wide = grbit & 0x01
        while left:
            if remaining() == 0:
                advance_chunk()
                wide = buf[p] & 0x01     # grbit re-specified
                p += 1
            avail = remaining() // (2 if wide else 1)
            take = min(left, avail)
            raw = read(take * (2 if wide else 1))
            chars.append(raw.decode("utf-16-le" if wide else "latin-1"))
            left -= take
        read(4 * crun + cb)
        strings.append("".join(chars))
    return strings


def _unistr(buf: bytes, p: int, biff8: bool, cch_bytes: int = 2):
    """Inline BIFF string at p -> (text, bytes consumed)."""
    if cch_bytes == 2:
        cch = struct.unpack_from("<H", buf, p)[0]
        p0 = p + 2
    else:
        cch = buf[p]
        p0 = p + 1
    if not biff8:
        return buf[p0:p0 + cch].decode("latin-1"), (p0 - p) + cch
    grbit = buf[p0]
    p0 += 1
    crun = 0
    cb = 0
    if grbit & 0x08:
        crun = struct.unpack_from("<H", buf, p0)[0]
        p0 += 2
    if grbit & 0x04:
        cb = struct.unpack_from("<I", buf, p0)[0]
        p0 += 4
    if grbit & 0x01:
        text = buf[p0:p0 + 2 * cch].decode("utf-16-le", "replace")
        p0 += 2 * cch
    else:
        text = buf[p0:p0 + cch].decode("latin-1")
        p0 += cch
    p0 += 4 * crun + cb
    return text, p0 - p


def _rk(v: int) -> tuple[str, float]:
    if v & 0x02:
        num = v >> 2
        if num & 0x20000000:
            num -= 0x40000000
        val = float(num)
        kind = "int"
    else:
        val = struct.unpack("<d", struct.pack("<Q", (v & ~0x3) << 32))[0]
        kind = "float"
    if v & 0x01:
        val /= 100.0
        kind = "float"
    if kind == "float" and val == int(val) and v & 0x02 and not v & 0x01:
        kind = "int"
    return kind, val


_DATE_IDS = set(range(14, 18))
_TIME_IDS = set(range(18, 22)) | {45, 46, 47}
_DATETIME_IDS = {22}


def read_xls_layers(path: str, headers: bool = True,
                    field_types: str | None = None) -> dict[str, pa.Table]:
    buf = _ole2_stream(open(path, "rb").read(), ("Workbook", "Book"))
    # workbook globals
    sheets = []                          # (bof offset, name)
    sst: list[str] = []
    xf_fmt: list[int] = []               # xf index -> ifmt
    fmt_kind: dict[int, str | None] = {}
    date1904 = False
    biff8 = True
    for op, off, ln in _Recs(buf):
        if op in (0x809, 0x409, 0x209, 0x009) and off == 4:
            vers = struct.unpack_from("<H", buf, off)[0] if ln >= 2 else 0
            biff8 = op == 0x809 and vers >= 0x600
        elif op == 0x85:                 # BOUNDSHEET
            pos = struct.unpack_from("<I", buf, off)[0]
            name, _ = _unistr(buf, off + 6, biff8, cch_bytes=1)
            sheets.append((pos, name))
        elif op == 0xFC:                 # SST
            sst = _parse_sst(buf, off, ln)
        elif op == 0xE0:                 # XF
            xf_fmt.append(struct.unpack_from("<H", buf, off + 2)[0])
        elif op in (0x41E, 0x1E):        # FORMAT
            if op == 0x41E and biff8:
                ifmt = struct.unpack_from("<H", buf, off)[0]
                code, _ = _unistr(buf, off + 2, True)
            else:
                ifmt = struct.unpack_from("<H", buf, off)[0]
                code, _ = _unistr(buf, off + 2, False, cch_bytes=1)
            fmt_kind[ifmt] = _fmt_kind(code)
        elif op == 0x22:                 # DATEMODE (1904)
            date1904 = struct.unpack_from("<H", buf, off)[0] == 1
        elif op == 0x0A and sheets:      # EOF of globals
            break

    def kind_of(xf: int) -> str | None:
        if xf >= len(xf_fmt):
            return None
        ifmt = xf_fmt[xf]
        if ifmt in _DATE_IDS:
            return "date"
        if ifmt in _DATETIME_IDS:
            return "datetime"
        if ifmt in _TIME_IDS:
            return "time"
        if ifmt in fmt_kind:
            return fmt_kind[ifmt]
        return None

    epoch_shift = 1462.0 if date1904 else 0.0

    def cell(kind_num, val, xf):
        k = kind_of(xf)
        if k in ("date", "time", "datetime"):
            return (k, _render(float(val) + epoch_shift, k))
        return (kind_num, val)

    out = {}
    for bof, name in sheets:
        rows: dict[int, dict[int, tuple]] = {}
        sub = _Recs(buf)
        sub.pos = bof
        started = False
        pend_formula = None
        for op, off, ln in sub:
            if op in (0x809, 0x409, 0x209, 0x009):
                if started:
                    break
                started = True
                continue
            if op == 0x0A:
                break
            if op == 0xFD and ln >= 10:   # LABELSST
                r, c, xf, isst = struct.unpack_from("<HHHI", buf, off)
                if 0 <= isst < len(sst) and sst[isst] != "":
                    rows.setdefault(r, {})[c] = ("str", sst[isst])
            elif op == 0x203:             # NUMBER
                r, c, xf = struct.unpack_from("<HHH", buf, off)
                v = struct.unpack_from("<d", buf, off + 6)[0]
                kn = "int" if v == int(v) and abs(v) < 2**53 else "float"
                rows.setdefault(r, {})[c] = cell(kn, v, xf)
            elif op == 0x27E:             # RK
                r, c, xf = struct.unpack_from("<HHH", buf, off)
                rkv = struct.unpack_from("<I", buf, off + 6)[0]
                kn, v = _rk(rkv)
                rows.setdefault(r, {})[c] = cell(kn, v, xf)
            elif op == 0xBD:              # MULRK
                r, c0 = struct.unpack_from("<HH", buf, off)
                nrk = (ln - 6) // 6
                for i in range(nrk):
                    xf, rkv = struct.unpack_from("<HI", buf,
                                                 off + 4 + 6 * i)
                    kn, v = _rk(rkv)
                    rows.setdefault(r, {})[c0 + i] = cell(kn, v, xf)
            elif op == 0x204:             # LABEL (inline)
                r, c, xf = struct.unpack_from("<HHH", buf, off)
                text, _ = _unistr(buf, off + 6, biff8)
                if text != "":
                    rows.setdefault(r, {})[c] = ("str", text)
            elif op == 0x205:             # BOOLERR
                r, c, xf = struct.unpack_from("<HHH", buf, off)
                v, is_err = buf[off + 6], buf[off + 7]
                if not is_err:
                    rows.setdefault(r, {})[c] = ("int", float(v))
            elif op == 0x06:              # FORMULA
                r, c, xf = struct.unpack_from("<HHH", buf, off)
                res = buf[off + 6:off + 14]
                if res[6:8] == b"\xff\xff":
                    if res[0] == 0:       # string result follows
                        pend_formula = (r, c, xf)
                    elif res[0] == 1:     # bool
                        rows.setdefault(r, {})[c] = ("int", float(res[2]))
                else:
                    v = struct.unpack("<d", res)[0]
                    kn = ("int" if v == int(v) and abs(v) < 2**53
                          else "float")
                    rows.setdefault(r, {})[c] = cell(kn, v, xf)
            elif op == 0x207 and pend_formula:   # STRING
                r, c, xf = pend_formula
                pend_formula = None
                text, _ = _unistr(buf, off, biff8)
                if text != "":
                    rows.setdefault(r, {})[c] = ("str", text)
        if not rows:                     # empty sheets are not layers
            continue                     # (ogr_xls.py: GetLayerCount()==1)
        nrows = max(rows) + 1
        row_list = [rows.get(i, {}) for i in range(nrows)]
        while row_list and not row_list[0]:
            row_list.pop(0)
        _promote_mixed_datetime(row_list)
        if field_types == "STRING":
            # header detection still uses the original cell types
            # (OGR computes bFirstLineIsHeaders before the coercion)
            ncols = max((max(r) + 1) for r in row_list if r)
            first = row_list[0]
            first_all_str = all(first.get(i, ("str", None))[0] == "str"
                                for i in range(ncols)
                                if first.get(i) is not None)
            later_non_str = any(v and v[0] != "str"
                                for r in row_list[1:] for v in r.values())
            has_hdr = bool(headers and first_all_str and later_non_str
                           and len(row_list) > 1)
            if has_hdr:
                names = [str(first.get(i, ("str", f"Field{i + 1}"))[1]
                             or f"Field{i + 1}") for i in range(ncols)]
                data = row_list[1:]
            else:
                names = [f"Field{i + 1}" for i in range(ncols)]
                data = row_list
            cols = {names[i]: pa.array(
                [None if r.get(i) is None else str(r[i][1]) for r in data],
                pa.string()) for i in range(ncols)}
            out[name] = pa.table(
                {"fid": pa.array(range(len(data)), pa.int64()), **cols})
            continue
        if not headers and row_list:
            # force the header row to count as data: prefix marker row
            # handled by passing rows straight through with a non-str
            # sentinel absent -> _assemble sees all-string first row but
            # we disable by stringifying nothing; emulate by inserting
            # a shim: simplest is to bypass detection
            out[name] = _assemble_no_header(row_list)
        else:
            out[name] = _assemble(row_list)
    return out


def _promote_mixed_datetime(rows):
    """OGR rule (ogrxlslayer.cpp:150-155): a column mixing any of
    Date/Time/DateTime becomes DateTime; freexl's per-cell text is then
    parsed into the DateTime field (OGRParseDate), so date-only cells
    render 'YYYY/MM/DD 00:00:00' and time-only '0000/00/00 HH:MM:SS'."""
    ncols = max((max(r) + 1) for r in rows if r) if any(rows) else 0
    for c in range(ncols):
        kinds = {r[c][0] for r in rows if r.get(c) is not None}
        dk = kinds & {"date", "time", "datetime"}
        if len(dk) < 2:
            continue
        for r in rows:
            v = r.get(c)
            if v is None:
                continue
            if v[0] == "date":
                r[c] = ("datetime", v[1] + " 00:00:00")
            elif v[0] == "time":
                r[c] = ("datetime", "0000/00/00 " + v[1])


def _assemble_no_header(rows):
    """OGR_XLS_HEADERS=DISABLE: all rows are data, Field1..N names."""
    ncols = max((max(r) + 1) for r in rows if r)
    cols = {}
    for i in range(ncols):
        vals = [None if r.get(i) is None else str(r[i][1]) for r in rows]
        cols[f"Field{i + 1}"] = pa.array(vals, pa.string())
    return pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                     **cols})


def read_xls_table(path: str, sheet: str | None = None) -> pa.Table:
    return pick_layer(read_xls_layers(path), path, sheet or None)
