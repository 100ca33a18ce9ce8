"""Selafin / Seraphin (TELEMAC hydraulic-model results) reader and
writer.

Independent implementation of the published TELEMAC file layout
(the reference driver is ogr/ogrsf_frmts/selafin/): big-endian
Fortran unformatted records (int32 length framing on both sides) —
80-byte title, (NBV1, NBV2) counts, NBV1 32-byte variable names, the
10-int IPARAM block (+ optional 6-int date when IPARAM[9] = 1),
(NELEM, NPOIN, NDP, 1), the IKLE connectivity (1-based node ids,
NELEM × NDP), IPOBO boundary markers, X and Y float32 node arrays,
then per-timestep records: time float32 + NBV1 × NPOIN float32
value arrays.

Like the reference, the mesh surfaces as two layers: a ``_p`` point
layer (one feature per node with per-variable values) and an ``_e``
element layer (one polygon per IKLE element whose attribute values
are the averages of its node values — ogrselafinlayer.cpp's element
attribute rule).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

__all__ = ["read_selafin", "write_selafin"]


def _rec(buf: bytes, off: int, need: int = 0):
    """One Fortran record at ``off`` (at least ``need`` bytes long)
    → (payload, offset of the next record)."""
    n = int.from_bytes(buf[off:off + 4], "big", signed=True) \
        if off + 4 <= len(buf) else -1
    if n < need or off + 8 + n > len(buf):
        raise ValueError(f"Selafin: truncated record at byte {off}")
    n2, = struct.unpack_from(">i", buf, off + 4 + n)
    if n2 != n:
        raise ValueError("Selafin: broken Fortran record framing")
    return buf[off + 4:off + 4 + n], off + 8 + n


def read_selafin(path: str, timestep: int = 0):
    """→ {"points": table (id, x, y, <var>..., wkb),
         "elements": table (id, <var>..., wkb)}."""
    from ..core import wkb as W

    buf = open(path, "rb").read()
    off = 0
    title, off = _rec(buf, off)
    counts, off = _rec(buf, off, 8)
    nbv1, _nbv2 = struct.unpack(">2i", counts[:8])
    names = []
    for _ in range(nbv1):
        nm, off = _rec(buf, off)
        names.append(nm.decode("latin-1")[:16].strip() or
                     f"VAR{len(names)}")
    iparam_rec, off = _rec(buf, off)
    iparam = struct.unpack(f">{len(iparam_rec) // 4}i", iparam_rec)
    if len(iparam) >= 10 and iparam[9] == 1:
        _date, off = _rec(buf, off)
    dims, off = _rec(buf, off, 16)
    nelem, npoin, ndp, _one = struct.unpack(">4i", dims[:16])
    ikle_rec, off = _rec(buf, off)
    ikle = np.frombuffer(ikle_rec, ">i4").reshape(nelem, ndp)
    _ipobo, off = _rec(buf, off)
    xs_rec, off = _rec(buf, off)
    ys_rec, off = _rec(buf, off)
    xs = np.frombuffer(xs_rec, ">f4").astype(np.float64)
    ys = np.frombuffer(ys_rec, ">f4").astype(np.float64)

    # seek the requested timestep
    values = {n: np.zeros(npoin) for n in names}
    t = None
    step = 0
    while off < len(buf):
        trec, off = _rec(buf, off, 4)
        tval = struct.unpack(">f", trec[:4])[0]
        vals = []
        for _ in range(nbv1):
            vrec, off = _rec(buf, off)
            vals.append(np.frombuffer(vrec, ">f4").astype(np.float64))
        if step == timestep:
            t = tval
            for n, v in zip(names, vals):
                values[n] = v
            break
        step += 1

    pts_cols = {"id": list(range(npoin)),
                "x": xs.tolist(), "y": ys.tolist()}
    for n in names:
        pts_cols[n] = values[n].tolist()
    pts_cols["wkb"] = [W.dumps(W.point(float(x), float(y)))
                       for x, y in zip(xs, ys)]
    pts_schema = pa.schema(
        [("id", pa.int64()), ("x", pa.float64()), ("y", pa.float64())]
        + [(n, pa.float64()) for n in names] + [("wkb", pa.binary())],
        metadata={b"title": title[:72].strip(),
                  b"time": str(t if t is not None else 0).encode()})

    el_cols = {"id": list(range(nelem))}
    for n in names:
        el_cols[n] = [float(values[n][ikle[e] - 1].mean())
                      for e in range(nelem)]
    el_wkbs = []
    for e in range(nelem):
        ring = [(float(xs[i - 1]), float(ys[i - 1])) for i in ikle[e]]
        ring.append(ring[0])
        el_wkbs.append(W.dumps(W.polygon(ring)))
    el_cols["wkb"] = el_wkbs
    el_schema = pa.schema(
        [("id", pa.int64())] + [(n, pa.float64()) for n in names]
        + [("wkb", pa.binary())])
    return {"points": pa.Table.from_pydict(pts_cols, schema=pts_schema),
            "elements": pa.Table.from_pydict(el_cols,
                                             schema=el_schema)}


def _wrec(out: bytearray, data: bytes):
    out += struct.pack(">i", len(data)) + data + \
        struct.pack(">i", len(data))


def write_selafin(path: str, x, y, ikle, values: dict[str, np.ndarray],
                  *, title: str = "gdal_ray selafin",
                  times=None) -> None:
    """Nodes (x, y), 1-based element connectivity (nelem, ndp), and
    per-variable node arrays → single- or multi-timestep Selafin.
    ``values`` maps name → (npoin,) or (ntimes, npoin) arrays."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    ikle = np.asarray(ikle, np.int32)
    npoin = len(x)
    nelem, ndp = ikle.shape if ikle.size else (0, 3)
    names = list(values)
    vals = {n: np.atleast_2d(np.asarray(values[n], np.float64))
            for n in names}
    ntimes = max(v.shape[0] for v in vals.values()) if names else 1
    times = list(times) if times is not None else list(range(ntimes))

    out = bytearray()
    _wrec(out, (title[:72].ljust(72) + "SERAFIN ").encode("latin-1"))
    _wrec(out, struct.pack(">2i", len(names), 0))
    for n in names:
        _wrec(out, n[:32].ljust(32).encode("latin-1"))
    _wrec(out, struct.pack(">10i", *([0] * 10)))
    _wrec(out, struct.pack(">4i", nelem, npoin, ndp, 1))
    _wrec(out, ikle.astype(">i4").tobytes())
    _wrec(out, np.zeros(npoin, ">i4").tobytes())
    _wrec(out, x.astype(">f4").tobytes())
    _wrec(out, y.astype(">f4").tobytes())
    for ti in range(ntimes):
        _wrec(out, struct.pack(">f", float(times[ti])))
        for n in names:
            v = vals[n]
            row = v[ti] if v.shape[0] > ti else v[-1]
            _wrec(out, np.asarray(row, ">f4").tobytes())
    with open(path, "wb") as f:
        f.write(out)
