"""CCITT Group 3 / Group 4 bilevel fax decoder (ITU-T T.4 / T.6).

Modified-Huffman run-length tables and the 2D (READ) coding modes are
transcribed from the published ITU-T T.4 Tables 2/3 and T.6; own
Python implementation.  Used by the NITF C1 path (the reference wraps
libtiff: frmts/nitf/nitfbilevel.cpp writes a CCITTFAX3 memory TIFF)
and available for TIFF CCITT strips.

Bit order is MSB-first (TIFF FILLORDER_MSB2LSB).  Output is a (h, w)
uint8 array with black=1 / white=0 — the fax bit stream's own polarity
(libtiff emits 1-bits for black runs and the reference reads them as
min-is-black, frmts/nitf/nitfbilevel.cpp).
"""

from __future__ import annotations

import numpy as np

from ._bits import MsbReader, MsbWriter

__all__ = ["decode_g3_g4", "decode_g3", "decode_g4"]

# (code string, run length) — ITU-T T.4 Table 2 (white)
_WHITE_CODES = [
    ("00110101", 0), ("000111", 1), ("0111", 2), ("1000", 3),
    ("1011", 4), ("1100", 5), ("1110", 6), ("1111", 7),
    ("10011", 8), ("10100", 9), ("00111", 10), ("01000", 11),
    ("001000", 12), ("000011", 13), ("110100", 14), ("110101", 15),
    ("101010", 16), ("101011", 17), ("0100111", 18), ("0001100", 19),
    ("0001000", 20), ("0010111", 21), ("0000011", 22),
    ("0000100", 23), ("0101000", 24), ("0101011", 25),
    ("0010011", 26), ("0100100", 27), ("0011000", 28),
    ("00000010", 29), ("00000011", 30), ("00011010", 31),
    ("00011011", 32), ("00010010", 33), ("00010011", 34),
    ("00010100", 35), ("00010101", 36), ("00010110", 37),
    ("00010111", 38), ("00101000", 39), ("00101001", 40),
    ("00101010", 41), ("00101011", 42), ("00101100", 43),
    ("00101101", 44), ("00000100", 45), ("00000101", 46),
    ("00001010", 47), ("00001011", 48), ("01010010", 49),
    ("01010011", 50), ("01010100", 51), ("01010101", 52),
    ("00100100", 53), ("00100101", 54), ("01011000", 55),
    ("01011001", 56), ("01011010", 57), ("01011011", 58),
    ("01001010", 59), ("01001011", 60), ("00110010", 61),
    ("00110011", 62), ("00110100", 63),
    # makeup codes
    ("11011", 64), ("10010", 128), ("010111", 192),
    ("0110111", 256), ("00110110", 320), ("00110111", 384),
    ("01100100", 448), ("01100101", 512), ("01101000", 576),
    ("01100111", 640), ("011001100", 704), ("011001101", 768),
    ("011010010", 832), ("011010011", 896), ("011010100", 960),
    ("011010101", 1024), ("011010110", 1088), ("011010111", 1152),
    ("011011000", 1216), ("011011001", 1280), ("011011010", 1344),
    ("011011011", 1408), ("010011000", 1472), ("010011001", 1536),
    ("010011010", 1600), ("011000", 1664), ("010011011", 1728),
]

# ITU-T T.4 Table 3 (black)
_BLACK_CODES = [
    ("0000110111", 0), ("010", 1), ("11", 2), ("10", 3),
    ("011", 4), ("0011", 5), ("0010", 6), ("00011", 7),
    ("000101", 8), ("000100", 9), ("0000100", 10), ("0000101", 11),
    ("0000111", 12), ("00000100", 13), ("00000111", 14),
    ("000011000", 15), ("0000010111", 16), ("0000011000", 17),
    ("0000001000", 18), ("00001100111", 19), ("00001101000", 20),
    ("00001101100", 21), ("00000110111", 22), ("00000101000", 23),
    ("00000010111", 24), ("00000011000", 25), ("000011001010", 26),
    ("000011001011", 27), ("000011001100", 28), ("000011001101", 29),
    ("000001101000", 30), ("000001101001", 31), ("000001101010", 32),
    ("000001101011", 33), ("000011010010", 34), ("000011010011", 35),
    ("000011010100", 36), ("000011010101", 37), ("000011010110", 38),
    ("000011010111", 39), ("000001101100", 40), ("000001101101", 41),
    ("000011011010", 42), ("000011011011", 43), ("000001010100", 44),
    ("000001010101", 45), ("000001010110", 46), ("000001010111", 47),
    ("000001100100", 48), ("000001100101", 49), ("000001010010", 50),
    ("000001010011", 51), ("000000100100", 52), ("000000110111", 53),
    ("000000111000", 54), ("000000100111", 55), ("000000101000", 56),
    ("000001011000", 57), ("000001011001", 58), ("000000101011", 59),
    ("000000101100", 60), ("000001011010", 61), ("000001100110", 62),
    ("000001100111", 63),
    # makeup codes
    ("0000001111", 64), ("000011001000", 128), ("000011001001", 192),
    ("000001011011", 256), ("000000110011", 320),
    ("000000110100", 384), ("000000110101", 448),
    ("0000001101100", 512), ("0000001101101", 576),
    ("0000001001010", 640), ("0000001001011", 704),
    ("0000001001100", 768), ("0000001001101", 832),
    ("0000001110010", 896), ("0000001110011", 960),
    ("0000001110100", 1024), ("0000001110101", 1088),
    ("0000001110110", 1152), ("0000001110111", 1216),
    ("0000001010010", 1280), ("0000001010011", 1344),
    ("0000001010100", 1408), ("0000001010101", 1472),
    ("0000001011010", 1536), ("0000001011011", 1600),
    ("0000001100100", 1664), ("0000001100101", 1728),
]

# shared extended makeup codes (T.4 Table 4)
_EXT_CODES = [
    ("00000001000", 1792), ("00000001100", 1856),
    ("00000001101", 1920), ("000000010010", 1984),
    ("000000010011", 2048), ("000000010100", 2112),
    ("000000010101", 2176), ("000000010110", 2240),
    ("000000010111", 2304), ("000000011100", 2368),
    ("000000011101", 2432), ("000000011110", 2496),
    ("000000011111", 2560),
]


def _build(codes):
    return {(len(c), int(c, 2)): run for c, run in codes}


_WHITE = _build(_WHITE_CODES + _EXT_CODES)
_BLACK = _build(_BLACK_CODES + _EXT_CODES)
_MAX_CODE_LEN = 14


def _read_run(br: MsbReader, table) -> int:
    """One complete run length: makeup codes accumulate until a
    terminating code (< 64)."""
    total = 0
    while True:
        run = None
        win = br.peek(_MAX_CODE_LEN - 1)
        for ln in range(2, _MAX_CODE_LEN):
            key = (ln, win >> (_MAX_CODE_LEN - 1 - ln))
            if key in table:
                run = table[key]
                br.pos += ln
                break
        if run is None:
            raise ValueError("fax: invalid run code")
        total += run
        if run < 64:
            return total


def _sync_eol(br: MsbReader) -> bool:
    """Skip fill bits to the next EOL (eleven 0s + 1); True if found."""
    zeros = 0
    while br.pos < len(br.data) * 8:
        b = br.get(1)
        if b == 0:
            zeros += 1
        else:
            if zeros >= 11:
                return True
            zeros = 0
    return False


def _decode_1d_line(br: MsbReader, width: int) -> list:
    """One MH-coded line → changing-element positions (transitions),
    starting with a white run."""
    changes = []
    pos = 0
    color_white = True
    while pos < width:
        run = _read_run(br, _WHITE if color_white else _BLACK)
        pos += run
        changes.append(min(pos, width))
        color_white = not color_white
    return changes


def _decode_2d_line(br: MsbReader, width: int, ref: list) -> list:
    """One 2D (READ) coded line against reference transitions."""
    from bisect import bisect_right
    changes = []
    a0 = -1
    color_white = True
    end = len(br.data) * 8
    while a0 < width:
        # b1: first ref transition strictly right of a0 whose parity
        # matches the current colour (even index = white→black)
        i = bisect_right(ref, a0)
        if i % 2 != (0 if color_white else 1):
            i += 1
        b1 = ref[i] if i < len(ref) else width
        b2 = ref[i + 1] if i + 1 < len(ref) else width
        # read mode code
        if br.pos >= end:
            break
        m = br.peek(7)
        if m >> 6 == 1:                           # V0
            br.pos += 1
            a1 = b1
        elif m >> 4 == 0b011:                     # VR1
            br.pos += 3
            a1 = b1 + 1
        elif m >> 4 == 0b010:                     # VL1
            br.pos += 3
            a1 = b1 - 1
        elif m >> 4 == 0b001:                     # horizontal
            br.pos += 3
            r1 = _read_run(br, _WHITE if color_white else _BLACK)
            r2 = _read_run(br, _BLACK if color_white else _WHITE)
            base = a0 if a0 > 0 else 0
            changes.append(min(base + r1, width))
            changes.append(min(base + r1 + r2, width))
            a0 = base + r1 + r2
            continue
        elif m >> 3 == 0b0001:                    # pass
            br.pos += 4
            a0 = b2
            continue
        elif m >> 1 == 0b000011:                  # VR2
            br.pos += 6
            a1 = b1 + 2
        elif m >> 1 == 0b000010:                  # VL2
            br.pos += 6
            a1 = b1 - 2
        elif m == 0b0000011:                      # VR3
            br.pos += 7
            a1 = b1 + 3
        elif m == 0b0000010:                      # VL3
            br.pos += 7
            a1 = b1 - 3
        else:
            raise ValueError("fax: invalid 2D mode code")
        changes.append(min(max(a1, 0), width))
        a0 = a1
        color_white = not color_white
    return changes


def _changes_to_row(changes, width):
    row = np.zeros(width, np.uint8)
    color = 0  # lines start with a white run; black emits 1-bits
    prev = 0
    for c in changes:
        row[prev:c] = color
        color ^= 1
        prev = c
        if prev >= width:
            break
    if prev < width:
        row[prev:] = color
    return row


def decode_g3(data: bytes, width: int, height: int,
              two_d: bool = False) -> np.ndarray:
    """Group 3 (T.4): EOL-delimited lines; in 2D mode each EOL is
    followed by a tag bit (1 = next line 1D, 0 = 2D)."""
    br = MsbReader(data)
    rows = []
    ref = [width, width]
    while len(rows) < height:
        if not _sync_eol(br):
            break
        if two_d:
            if br.pos >= len(data) * 8:
                break
            tag = br.get(1)
            one_d = tag == 1
        else:
            one_d = True
        try:
            if one_d:
                changes = _decode_1d_line(br, width)
            else:
                changes = _decode_2d_line(br, width, ref)
        except ValueError:
            break
        rows.append(_changes_to_row(changes, width))
        ref = changes if changes else [width, width]
    while len(rows) < height:
        rows.append(np.zeros(width, np.uint8))
    return np.vstack(rows[:height])


def decode_g4(data: bytes, width: int, height: int) -> np.ndarray:
    """Group 4 (T.6): pure 2D MMR, no EOLs, all-white reference."""
    br = MsbReader(data)
    rows = []
    ref = [width, width]
    for _ in range(height):
        try:
            changes = _decode_2d_line(br, width, ref)
        except ValueError:
            break
        rows.append(_changes_to_row(changes, width))
        ref = changes if changes else [width, width]
    while len(rows) < height:
        rows.append(np.zeros(width, np.uint8))
    return np.vstack(rows[:height])


def decode_mh(data: bytes, width: int, height: int) -> np.ndarray:
    """TIFF compression 2 (CCITT RLE / modified Huffman): pure 1D
    lines, no EOLs, each row restarts on a byte boundary."""
    br = MsbReader(data)
    rows = []
    for _ in range(height):
        br.align()
        if br.pos >= len(data) * 8:
            break
        try:
            changes = _decode_1d_line(br, width)
        except ValueError:
            break
        rows.append(_changes_to_row(changes, width))
    while len(rows) < height:
        rows.append(np.zeros(width, np.uint8))
    return np.vstack(rows[:height])


def decode_g3_g4(data: bytes, width: int, height: int,
                 comrat: str = "") -> np.ndarray:
    """NITF C1 entry: COMRAT starting with '2' selects T.4 2D
    (nitfbilevel.cpp GROUP3OPT_2DENCODING); otherwise 1D G3."""
    return decode_g3(data, width, height,
                     two_d=comrat.strip().startswith("2"))


# ------------------------------------------------------------------ encode
def _enc_table(codes):
    """run -> (value, nbits), split into terminating (<64) and makeup."""
    term, makeup = {}, {}
    for c, run in codes:
        (term if run < 64 else makeup)[run] = (int(c, 2), len(c))
    return term, makeup


_W_TERM, _W_MAKEUP = _enc_table(_WHITE_CODES + _EXT_CODES)
_B_TERM, _B_MAKEUP = _enc_table(_BLACK_CODES + _EXT_CODES)
_W_MK_RUNS = sorted(_W_MAKEUP, reverse=True)
_B_MK_RUNS = sorted(_B_MAKEUP, reverse=True)

# T.6 mode codes: vertical offsets a1-b1 in [-3, 3], pass, horizontal
_V_CODES = {0: (0b1, 1), 1: (0b011, 3), 2: (0b000011, 6),
            3: (0b0000011, 7), -1: (0b010, 3), -2: (0b000010, 6),
            -3: (0b0000010, 7)}
_PASS = (0b0001, 4)
_HORIZ = (0b001, 3)


def _put_run(bw: MsbWriter, black: bool, run: int):
    term = _B_TERM if black else _W_TERM
    makeup = _B_MAKEUP if black else _W_MAKEUP
    mk_runs = _B_MK_RUNS if black else _W_MK_RUNS
    while run >= 64:
        for mk in mk_runs:
            if mk <= run and (run - mk < 64 or mk == mk_runs[0]):
                bw.put(*makeup[mk])
                run -= mk
                break
    bw.put(*term[run])


def _row_changes(row: np.ndarray, width: int) -> list:
    """Changing-element positions (first = white->black transition),
    padded with four `width` sentinels."""
    d = np.flatnonzero(row[1:] != row[:-1]) + 1
    c = d.tolist()
    if row[0]:
        c.insert(0, 0)
    c.extend((width, width, width, width))
    return c


def encode_g4(img: np.ndarray) -> bytes:
    """Group 4 (T.6) 2D MMR encoder: pass/vertical/horizontal modes
    against an all-white imaginary first reference line, EOFB
    terminated.  Input is (h, w) with nonzero = black, matching
    decode_g4's output polarity (roundtrip identity)."""
    img = (np.asarray(img) != 0).astype(np.uint8)
    h, w = img.shape
    bw = MsbWriter()
    ref = [w, w, w, w]
    for y in range(h):
        cur = _row_changes(img[y], w)
        a0 = -1
        color = 0            # 0 = white (a0's color)
        ai = 0               # index of a1 in cur
        bi = 0               # roving index of b1 in ref
        while True:
            a1 = cur[ai]
            # b1: first ref change > a0 whose new color != color; ref
            # transitions alternate to-black (even idx) / to-white, so
            # b1's index parity must match a1's.
            if (bi ^ ai) & 1:
                bi += 1
            while bi >= 2 and ref[bi - 2] > a0:
                bi -= 2
            while ref[bi] <= a0 and ref[bi] < w:
                bi += 2
            b1 = ref[bi]
            b2 = ref[bi + 1]
            if b2 < a1:                       # pass mode
                bw.put(*_PASS)
                a0 = b2
            elif -3 <= a1 - b1 <= 3:          # vertical mode
                bw.put(*_V_CODES[a1 - b1])
                a0 = a1
                color ^= 1
                ai += 1
            else:                             # horizontal mode
                a2 = cur[ai + 1]
                start = 0 if a0 < 0 else a0
                bw.put(*_HORIZ)
                _put_run(bw, bool(color), a1 - start)
                _put_run(bw, not color, a2 - a1)
                a0 = a2
                ai += 2
            if a0 >= w:
                break
        ref = cur
    bw.put(0b000000000001, 12)   # EOFB
    bw.put(0b000000000001, 12)
    return bw.finish()


__all__.append("encode_g4")
