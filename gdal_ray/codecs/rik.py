"""RIK (Swedish lantmäteriet raster map) reader.

Layout (frmts/rik/rikdataset.cpp:36-76 and Open): an optional
``RIK3`` marker string, a length-prefixed map name, one of three
header layouts (RIK1 with offset bounds +4002995/+5004000/+201000/
+302005 and an MPP denominator, RIK2 with absolute bounds, RIK3
with string-encoded north/west), a 256-entry BGR palette, a block
offset array (compressed variants; RIK3 adds a size word per
block), and per-block payloads in one of four encodings:
uncompressed (options 0x00/0x40), RLE byte pairs (0x01/0x41,
count-1 then value), GIF-style LZW (0x0B — 8-bit pixels, max 13
code bits, optional clear code, codes packed LSB-first and
*realigned to a codeBits-byte group boundary* on width change or
clear, emitted bottom-up with the line break rounded up to a
4-pixel boundary), and ZLIB (0x0D, stored upside down).

Geotransform: west − mpp/2 / north + mpp/2 origin with square
meters-per-pixel (:1213-1218) — the reference's half-pixel quirk
preserved.  CRS is the fixed RT90 2.5 gon V (EPSG:3021)."""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["decode_rik"]

_RT90_WKT = (
    'PROJCS["RT90 2.5 gon V",GEOGCS["RT90",DATUM['
    '"Rikets_koordinatsystem_1990",SPHEROID["Bessel 1841",6377397.155,'
    '299.1528128]],PRIMEM["Greenwich",0],UNIT["degree",'
    '0.0174532925199433]],PROJECTION["Transverse_Mercator"],PARAMETER['
    '"latitude_of_origin",0],PARAMETER["central_meridian",'
    '15.80827777777778],PARAMETER["scale_factor",1],PARAMETER['
    '"false_easting",1500000],PARAMETER["false_northing",0],'
    'UNIT["metre",1],AUTHORITY["EPSG","3021"]]')


def _string(buf: bytes, pos: int):
    n = struct.unpack_from("<H", buf, pos)[0]
    return buf[pos + 2:pos + 2 + n].decode("latin1"), pos + 2 + n


class _LZW:
    """The driver's LZW variant (GetNextLZWCode + the decode loop,
    rikdataset.cpp:171-540): LSB-first codes, group realignment on
    code-width change, bottom-up pixel emission."""

    def __init__(self, data: bytes, width: int, height: int):
        if len(data) < 5:
            raise ValueError("RIK: LZW block too short")
        self.has_clear = bool(data[4] & 0x80)
        self.max_bits = data[4] & 0x1F
        # codes start 9 bits wide, so a table below 9 bits cannot hold them
        if not 9 <= self.max_bits <= 13:
            raise ValueError("RIK: invalid LZW max bits")
        self.data = data
        self.pos = 5
        self.align = 5
        self.bits_taken = 0
        self.width, self.height = width, height

    def _next(self, code_bits: int) -> int:
        if self.pos == self.align:
            self.align += code_bits
        ret = 0
        left = code_bits
        while left > 0:
            if self.pos >= len(self.data):
                return -1
            tmp = self.data[self.pos] >> self.bits_taken
            if left < 8:
                tmp &= (1 << left) - 1
            ret |= tmp << (code_bits - left)
            left -= 8 - self.bits_taken
            self.bits_taken = 0
            if left < 0:
                self.bits_taken = 8 + left
            if self.bits_taken == 0:
                self.pos += 1
        return ret

    def decode(self) -> np.ndarray:
        CLEAR = 256
        CODES = 1 << self.max_bits
        NO_CODE = CODES + 1
        last_added = CLEAR if self.has_clear else CLEAR - 1
        code_bits = 9
        prefix = [NO_CODE] * CODES
        character = list(range(CLEAR)) + [0] * (CODES - CLEAR)

        img = np.zeros((self.height, self.width), dtype=np.uint8)
        line_break = (self.width + 3) & ~3
        state = {"line": self.height - 1, "pos": 0}

        def out(pix):
            if state["pos"] < self.width and state["line"] >= 0:
                img[state["line"], state["pos"]] = pix
            state["pos"] += 1
            if state["pos"] == line_break:
                state["pos"] = 0
                state["line"] -= 1

        code = self._next(code_bits)
        if code < 0:
            raise ValueError("RIK: LZW underrun")
        out(code)
        last_output = code
        last_code = code
        while state["line"] >= 0 and \
                (state["line"] or state["pos"] < self.width) and \
                self.pos < len(self.data):
            last_code = code
            code = self._next(code_bits)
            if code < 0:
                raise ValueError("RIK: LZW underrun")
            if self.has_clear and code == CLEAR:
                prefix[CLEAR:] = [NO_CODE] * (CODES - CLEAR)
                last_added = CLEAR
                code_bits = 9
                self.pos = self.align
                self.bits_taken = 0
                code = self._next(code_bits)
                if code < 0:
                    raise ValueError("RIK: LZW underrun")
                if code > last_added:
                    raise ValueError("RIK: LZW clear error")
                out(code)
                last_output = code
                continue
            if prefix[code] == NO_CODE and code < CLEAR:
                out(code)
                last_output = code
            else:
                stack = []
                decode_code = code
                if code == last_added + 1:
                    stack.append(last_output)
                    decode_code = last_code
                elif code > last_added + 1:
                    raise ValueError("RIK: LZW code too high")
                i = 0
                while decode_code >= CLEAR and decode_code < NO_CODE:
                    i += 1
                    if i >= CODES:
                        raise ValueError("RIK: LZW decode error")
                    stack.append(character[decode_code])
                    decode_code = prefix[decode_code]
                stack.append(decode_code)
                last_output = stack[-1]
                for pix in reversed(stack):
                    if state["line"] < 0:
                        break
                    out(pix)
            if last_code != NO_CODE and last_added != CODES - 1:
                last_added += 1
                if last_added >= CODES:
                    raise ValueError("RIK: LZW table overflow")
                prefix[last_added] = last_code
                character[last_added] = last_output
            if last_added == (1 << code_bits) - 1 and \
                    code_bits != self.max_bits:
                code_bits += 1
                self.pos = self.align
                self.bits_taken = 0
        return img


def decode_rik(buf: bytes):
    """Decode a RIK map → ``(pixels uint8 palette indexes, gt, None,
    meta)`` with ``meta['palette']`` (256×3 RGB) and the fixed RT90
    CRS."""
    name, pos = _string(buf, 0)
    rik3 = name == "RIK3"
    if rik3:
        name, pos = _string(buf, pos)  # map name

    if rik3:
        proj, pos = _string(buf, pos)
        _, pos = _string(buf, pos)  # unknown
        north_s, pos = _string(buf, pos)
        west_s, pos = _string(buf, pos)
        north, west = float(north_s), float(west_s)
        scale, mpp_num, bw, bh, hb, vb = struct.unpack_from(
            "<IfIIII", buf, pos)
        pos += 24
        if mpp_num == 0:
            raise ValueError("RIK: zero meters-per-pixel")
        bpp = buf[pos]
        pos += 2  # bits per pixel + unknown byte
        options = buf[pos]
        pos += 1
        mpp = float(mpp_num)
    else:
        if len(buf) < pos + 50:
            raise ValueError("not a RIK file")
        unknown, south, west, north, east, scale, mpp_num = \
            struct.unpack_from("<HddddIf", buf, pos)
        pos += 2 + 32 + 8
        if not np.isfinite([south, west, north, east]).all() or \
                mpp_num == 0:
            raise ValueError("not a RIK file")
        offset_bounds = south < 4000000
        mpp_den = 1
        if offset_bounds:
            south += 4002995
            north += 5004000
            west += 201000
            east += 302005
            mpp_den = struct.unpack_from("<I", buf, pos)[0]
            pos += 4
            if mpp_den == 0:
                raise ValueError("RIK: zero MPP denominator")
        mpp = mpp_num / mpp_den
        bw, bh, hb = struct.unpack_from("<III", buf, pos)
        pos += 12
        if not (10 <= bw <= 2000 and 10 <= bh <= 2000):
            raise ValueError("RIK: implausible block size")
        vb = 0
        if not offset_bounds:
            vb = struct.unpack_from("<I", buf, pos)[0]
            pos += 4
        if offset_bounds or vb == 0:
            vb = int(np.ceil((north - south) / (bh * mpp)))
        bpp = buf[pos]
        pos += 1
        if bpp != 8:
            raise ValueError(f"RIK: {bpp} bits per pixel not supported")
        options = buf[pos]
        pos += 1
        if options not in (0x00, 0x40, 0x01, 0x41, 0x0B, 0x0D):
            raise ValueError(f"RIK: unknown options 0x{options:02x}")

    # 256-entry palette stored B, G, R
    palette = np.frombuffer(buf, dtype=np.uint8, count=768,
                            offset=pos).reshape(256, 3)[:, ::-1].copy()
    pos += 768

    blocks = hb * vb
    if options == 0x00:
        offsets = [pos + i * bw * bh for i in range(blocks)]
    else:
        fields_per_block = 2 if rik3 else 1
        raw = np.frombuffer(buf, dtype="<u4",
                            count=blocks * fields_per_block,
                            offset=pos)
        offsets = raw[::fields_per_block].tolist()
        pos += 4 * blocks * fields_per_block

    img = np.zeros((vb * bh, hb * bw), dtype=np.uint8)
    order = sorted(range(blocks), key=lambda i: offsets[i])
    for rank, bi in enumerate(order):
        off = offsets[bi]
        if off == 0 or off >= len(buf):
            continue
        end = offsets[order[rank + 1]] if rank + 1 < blocks else len(buf)
        by, bx = divmod(bi, hb)
        y0, x0 = by * bh, bx * bw
        npix = bw * bh
        if options in (0x00, 0x40):
            block = np.frombuffer(buf, dtype=np.uint8, count=npix,
                                  offset=off).reshape(bh, bw)
        elif options in (0x01, 0x41):
            data = buf[off:end]
            flat = np.zeros(npix, dtype=np.uint8)
            fp = ip = 0
            while fp + 1 < len(data) and ip < npix:
                count = data[fp] + 1
                color = data[fp + 1]
                fp += 2
                n = min(count, npix - ip)
                flat[ip:ip + n] = color
                ip += n
            block = flat.reshape(bh, bw)
        elif options == 0x0B:
            block = _LZW(buf[off:end], bw, bh).decode()
        else:  # 0x0D ZLIB, stored upside down
            flat = np.frombuffer(zlib.decompress(buf[off:end]),
                                 dtype=np.uint8, count=npix)
            block = flat.reshape(bh, bw)[::-1]
        img[y0:y0 + bh, x0:x0 + bw] = block

    gt = (west - mpp / 2.0, mpp, 0.0, north + mpp / 2.0, 0.0, -mpp)
    meta = {"driver": "RIK", "palette": palette, "crs": _RT90_WKT,
            "map_name": name, "scale": int(scale)}
    return img, gt, None, meta
