"""MSGN (EUMETSAT Meteosat Second Generation native archive) reader.

Layout (frmts/msgn/msg_basic_types.h, msg_reader_core.cpp,
msgndataset.cpp): an ASCII main product header of 80-byte
``name[30]value[50]`` PH_DATA fields (the file must begin with
``FormatName                  : NATIVE``) with five 62-byte
PH_DATA_ID entries addressing the 15Header/15Data/15Trailer
sections, a secondary header of 14 PH_DATA fields (selected band
flags as ``X`` characters, selected-rectangle line/column numbers),
then per-line mission-data packets: big-endian GP_PK_HEADER (22
bytes, packetLength at offset 18) + GP_PK_SH1 (16) + SUB_VISIRLINE
(27: line number at 13, channel id at 17, validity at 24) + 10-bit
MSB-first sample data written mirrored (east→west) and bottom-up.

Packet geometry is discovered exactly like the reference's scan
(msg_reader_core.cpp:330-460): bytes_per_line = packetLength − 42,
packet_size = packetLength + 23, interline spacing accumulates one
packet per selected VISIR channel plus three per HRV line.  The
image-description record (101 bytes before the radiometric record at
header offset 387131 ≡ 60134+700+326058+239… per the constants) and
the 12-channel calibration slopes/offsets are read for
georeferencing/metadata.  This port exposes MODE_VISIR (channels
1-11 as 10-bit counts, the reference's default open mode) for
whole-disk products with the same geotransform arithmetic
(msgndataset.cpp:666-700: ±1856-center pixel grid, bottom-up) and a
``+proj=geos`` CRS; HRV re-assembly and the radiance/blackbody
(MODE_RAD) presentation are documented out of scope."""

from __future__ import annotations

import struct

import numpy as np

from ._bits import unpack_fields

__all__ = ["read_msgn"]

_NUM_CHANNELS = 12
_GP_PK_HEADER = 22
_GP_PK_SH1 = 16
_SUB_VISIRLINE = 27
_NLINES = 3712.0
_RAD_RECORD_OFFSET = 60134 + 700 + 326058 + 101


def _ph_data(buf: bytes, off: int):
    name = buf[off:off + 30].decode("ascii", "replace")
    value = buf[off + 30:off + 80].decode("ascii", "replace")
    return name, value


def _uint(value: str) -> int:
    digits = ""
    for ch in value.strip():
        if ch.isdigit():
            digits += ch
        elif digits:
            break
    return int(digits) if digits else 0


def read_msgn(path: str):
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(b"FormatName                  : NATIVE"):
        raise ValueError("not an MSG native archive")

    # main product header: 6 PH_DATA, 5 PH_DATA_ID, 1364 slack,
    # 19 PH_DATA
    header_off = header_size = data_off = data_size = 0
    trailer_off = 0
    for i in range(5):
        off = 6 * 80 + i * 62
        name = buf[off:off + 30].decode("ascii", "replace")
        size = buf[off + 30:off + 46].decode("ascii", "replace")
        addr = buf[off + 46:off + 62].decode("ascii", "replace")
        if name.startswith("15Header"):
            header_size, header_off = _uint(size), _uint(addr)
        elif name.startswith("15Trailer"):
            trailer_off = _uint(addr)
        elif name.startswith("15Data"):
            data_size, data_off = _uint(size), _uint(addr)

    main_meta = {}
    ph_names = ("formatName", "formatDocumentName",
                "formatDocumentMajorVersion",
                "formatDocumentMinorVersion", "creationDateTime",
                "creatingCentre")
    for i, key in enumerate(ph_names):
        _, value = _ph_data(buf, i * 80)
        main_meta[key] = value.strip()
    tail = 6 * 80 + 5 * 62 + 1364
    tail_names = ("totalFileSize", "gort", "asti", "llos", "snit",
                  "aiid", "ssbt", "ssst", "rrcc", "rrbt", "rrst",
                  "pprc", "ppdt", "gplv", "apnm", "aarf", "uudt",
                  "qqov", "udsp")
    for i, key in enumerate(tail_names):
        _, value = _ph_data(buf, tail + i * 80)
        main_meta[key] = value.strip()

    # secondary header
    sec = 6 * 80 + 5 * 62 + 1364 + 19 * 80
    sec_names = ("abid", "smod", "apxs", "avpa", "lscd", "lmap",
                 "qdlc", "qdlp", "qqai", "selectedBandIds",
                 "southLine", "northLine", "eastColumn", "westColumn")
    sec_vals = {}
    for i, key in enumerate(sec_names):
        _, value = _ph_data(buf, sec + i * 80)
        sec_vals[key] = value
    bands = [sec_vals["selectedBandIds"][i] == "X"
             for i in range(_NUM_CHANNELS)]
    north = _uint(sec_vals["northLine"])
    south = _uint(sec_vals["southLine"])
    west = _uint(sec_vals["westColumn"])
    east = _uint(sec_vals["eastColumn"])
    lines = north - (south - 1) if south > 0 and north >= south - 1 \
        else north
    cols = west - (east - 1) if east > 0 and west >= east - 1 else west
    if lines <= 0 or cols <= 0:
        raise ValueError("MSGN: invalid selected rectangle")

    # scan the first line's packets for sizes (reference scan loop)
    pos = data_off
    visir_bytes = visir_packet = 0
    hrv_packet = 0
    interline = 0
    pending = [i for i in range(_NUM_CHANNELS) if bands[i]]
    band_in_file: dict[int, int] = {}
    file_slot = 0
    while pending:
        if pos + _GP_PK_HEADER + _GP_PK_SH1 + _SUB_VISIRLINE > len(buf):
            raise ValueError("MSGN: truncated data section")
        packet_length = struct.unpack_from(">I", buf,
                                           pos + _GP_PK_HEADER - 4)[0]
        sub = pos + _GP_PK_HEADER + _GP_PK_SH1
        channel = buf[sub + 17]
        if channel == 0 or channel > _NUM_CHANNELS:
            raise ValueError("MSGN: invalid channel id")
        if packet_length < _GP_PK_SH1 + _SUB_VISIRLINE - 1:
            raise ValueError("MSGN: packet too short")
        if channel - 1 in pending:
            pending.remove(channel - 1)
            file_slot += 1
            band_in_file[channel - 1] = file_slot
            if channel != _NUM_CHANNELS:
                visir_bytes = packet_length - (_GP_PK_SH1
                                               + _SUB_VISIRLINE - 1)
                visir_packet = packet_length + _GP_PK_HEADER + 1
                interline += visir_packet
            else:
                hrv_packet = packet_length + _GP_PK_HEADER + 1
                interline += 3 * hrv_packet
                pos += 2 * (packet_length + _GP_PK_HEADER + 1)
                # (the two extra consecutive HRV lines)
        pos += packet_length + _GP_PK_HEADER + 1

    # image description + radiometric records
    idr_off = (_RAD_RECORD_OFFSET - 101 + header_off
               + _GP_PK_HEADER + _GP_PK_SH1 + 1)
    lon_ssp = struct.unpack_from(">f", buf, idr_off + 1)[0]
    (n_lines_ref, n_cols_ref) = struct.unpack_from(">ii", buf,
                                                   idr_off + 5)
    line_step, col_step = struct.unpack_from(">ff", buf, idr_off + 13)
    rad_off = idr_off + 101
    cal_off = rad_off + 6 * 12
    calibration = []
    for i in range(_NUM_CHANNELS):
        slope, offset = struct.unpack_from(">dd", buf,
                                           cal_off + 16 * i)
        calibration.append((slope, offset))

    # read the VISIR bands (channels 1..11)
    nsamples = visir_bytes * 8 // 10
    selected = [i for i in range(_NUM_CHANNELS - 1) if bands[i]]
    data_length = visir_bytes + _SUB_VISIRLINE
    out = np.zeros((lines, cols, len(selected)), dtype=np.uint16)
    for bi, ch in enumerate(selected):
        slot = band_in_file[ch]
        for y in range(lines):
            iy = lines - 1 - y  # bottom-up storage
            off = (data_off + interline * iy
                   + (slot - 1) * visir_packet
                   + (visir_packet - data_length))
            rec = buf[off:off + data_length]
            if len(rec) < data_length:
                continue
            validity = rec[24]
            if validity != 1:
                continue
            vals = unpack_fields(rec[_SUB_VISIRLINE:], 10, nsamples)
            n = min(nsamples, cols)
            # stored mirrored: sample c lands at column cols-1-c
            out[iy, cols - 1 - np.arange(n), bi] = vals[:n]

    gsd_x = 1000.0 * col_step
    gsd_y = 1000.0 * line_step
    origin_x = -gsd_x * (-(_NLINES / 2.0) + east - 1)
    origin_y = -gsd_y * ((_NLINES / 2.0) - south + 1.5)
    gt = (-origin_x, gsd_x, 0.0, -origin_y, 0.0, -gsd_y)

    meta = {"driver": "MSGN",
            "crs": (f"+proj=geos +lon_0={lon_ssp} +h=35785831 "
                    "+a=6378169 +b=6356583.8 +units=m"),
            "bands": [f"band {c + 1:02d}" for c in selected],
            "calibration": calibration,
            "reference_grid": (n_lines_ref, n_cols_ref)}
    meta.update({k: v for k, v in main_meta.items() if v})
    px = out[:, :, 0] if out.shape[2] == 1 else out
    return px, gt, 0, meta
