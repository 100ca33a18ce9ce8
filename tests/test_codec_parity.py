"""Decode parity pins for the codecs that read or write bit streams.

Each case builds a synthetic stream — with the engine's own encoder
where one exists, otherwise from crafted bytes — decodes it, and hashes
what came out (the encoded bytes too, for the encoders). The digests
were recorded from the bit readers, writers and LZW decoders each codec
carried before they shared ``codecs/_bits.py``; a change to the shared
module that alters any decoded sample or encoded byte fails here."""

from __future__ import annotations

import hashlib
import struct
import types
import zlib

import numpy as np
import pytest

from lzw_synth import tiff_lzw


def _digest(*parts) -> str:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (bytes, bytearray, memoryview)):
            h.update(b"b%d:" % len(x) + bytes(x))
        else:
            h.update(repr(x).encode())
    for p in parts:
        feed(p)
    return h.hexdigest()[:16]


def _rng(seed=0):
    return np.random.default_rng(seed)


def _blobs(h, w, seed):
    """Bilevel image with runs of every length (fax-friendly)."""
    r = _rng(seed)
    img = np.zeros((h, w), np.uint8)
    for _ in range(h * w // 60):
        y, x = r.integers(0, h), r.integers(0, w)
        img[y:y + r.integers(1, 6), x:x + r.integers(1, 90)] = 1
    return img


# ------------------------------------------------------------ GIF
def _gif(h, w, ncol, seed):
    from gdal_ray.codecs.gif import decode_gif, encode_gif
    r = _rng(seed)
    idx = (r.integers(0, ncol, (h, w)) if ncol > 4 else
           (np.arange(h * w).reshape(h, w) // 7 % ncol)).astype(np.uint8)
    pal = r.integers(0, 256, (ncol, 3)).astype(np.uint8)
    buf = encode_gif(idx, pal, transparent=1)
    return buf, decode_gif(buf)


# ------------------------------------------------------------ fax
def _mh_rows(img, eol: bool):
    """Modified-Huffman (T.4 1D) rows as a bit string, built from the
    code tables; ``eol`` prefixes each row with EOL (G3), otherwise
    each row starts on a byte boundary (TIFF compression 2)."""
    from gdal_ray.codecs import fax
    def table(codes):
        return {run: c for c, run in codes}
    tabs = (table(fax._WHITE_CODES + fax._EXT_CODES),
            table(fax._BLACK_CODES + fax._EXT_CODES))
    out = ""
    for row in img:
        line = "000000000001" if eol else ""
        runs, color, x = [], 0, 0
        while x < len(row):
            n = 0
            while x < len(row) and row[x] == color:
                n += 1
                x += 1
            runs.append((color, n))
            color ^= 1
        for color, n in runs:
            while n >= 64:
                mk = min(n // 64 * 64, 2560)
                line += tabs[color][mk]
                n -= mk
            line += tabs[color][n]
        if not eol:
            line += "0" * (-len(line) % 8)
        out += line
    out += "0" * (-len(out) % 8)
    return int(out, 2).to_bytes(len(out) // 8, "big")


def _fax(kind):
    from gdal_ray.codecs import fax
    img = _blobs(24, 200, 3)
    if kind == "g4":
        buf = fax.encode_g4(img)
        return buf, fax.decode_g4(buf, 200, 24)
    if kind == "g3":
        buf = _mh_rows(img, eol=True)
        return buf, fax.decode_g3(buf, 200, 24)
    buf = _mh_rows(img, eol=False)
    return buf, fax.decode_mh(buf, 200, 24)


# ------------------------------------------------------------ JPEG / WebP
def _smooth(h, w, c, seed):
    r = _rng(seed)
    y, x = np.mgrid[0:h, 0:w]
    base = np.stack([(x * (3 + k) + y * (5 - k)) % 256 for k in range(c)],
                    -1)
    return np.clip(base + r.integers(-20, 20, base.shape), 0,
                   255).astype(np.uint8)


def _jpeg(c, progressive):
    from gdal_ray.codecs import jpeg
    img = _smooth(40, 35, c, 4)
    buf = jpeg.encode(img if c == 3 else img[:, :, 0], quality=80,
                      progressive=progressive)
    return buf, jpeg.decode(buf)


def _webp(c):
    from gdal_ray.codecs.webp import decode_webp, encode_webp_lossless
    img = _smooth(30, 41, c, 5)
    buf = encode_webp_lossless(img)
    return buf, decode_webp(buf)


# ------------------------------------------------------------ EXR PIZ
def _exr(tmp_path):
    from gdal_ray.codecs.exr import read_exr, write_exr
    img = _smooth(19, 37, 3, 6).astype(np.uint16) * 7
    p = str(tmp_path / "piz.exr")
    write_exr(p, img, compression="PIZ")
    raw = open(p, "rb").read()
    out = read_exr(p)
    return raw, out[0] if isinstance(out, tuple) else out


# ------------------------------------------------------------ RasterLite2
def _rl2(sample, pixel, bits):
    from gdal_ray.sources.rasterlite2 import decode_rl2_tile
    w, h = 13, 5
    stride = (w * bits + 7) // 8
    payload = _rng(bits).integers(0, 256, h * stride).astype(
        np.uint8).tobytes()
    hdr = bytearray(32)
    hdr[1], hdr[3], hdr[4], hdr[5], hdr[6] = 0xFA, 0x21, sample, pixel, 1
    struct.pack_into("<HHHH", hdr, 7, w, h, stride, h)
    struct.pack_into("<IIII", hdr, 15, len(payload), len(payload), 0, 0)
    return decode_rl2_tile(bytes(hdr) + payload, None)


# ------------------------------------------------------------ PDF
def _pdf_image(bpc, ncomp, filt, indexed=False):
    from gdal_ray.codecs.pdf import PdfFile, Stream, _decode_image
    w, h = 11, 6
    rowbytes = (w * ncomp * bpc + 7) // 8
    raw = _rng(bpc * 10 + ncomp).integers(0, 256, h * rowbytes).astype(
        np.uint8).tobytes()
    d = {"Width": w, "Height": h, "BitsPerComponent": bpc,
         "ColorSpace": "DeviceRGB" if ncomp == 3 else "DeviceGray"}
    if indexed:
        lut = bytes(range(3 * (1 << bpc)))
        d["ColorSpace"] = ["Indexed", "DeviceRGB", (1 << bpc) - 1, lut]
    if filt == "LZWDecode":
        d["Filter"], body = filt, tiff_lzw(raw)
    else:
        d["Filter"], body = "FlateDecode", zlib.compress(raw)
    return _decode_image(PdfFile(b"%PDF-1.4\n%%EOF\n"), Stream(d, body))


def _pdf_roundtrip(tmp_path):
    from gdal_ray.codecs.pdf import read_pdf, write_pdf
    img = _smooth(20, 30, 3, 7)
    p = str(tmp_path / "r.pdf")
    write_pdf(img, (0, 1, 0, 20, 0, -1), p, epsg=4326)
    return read_pdf(p)[0]


# ------------------------------------------------------------ GeoTIFF
def _strip_tiff(payload: bytes, w, h, bits, comp, sfmt=1, photo=1):
    """Single-strip, single-band TIFF around an already packed (and
    compressed) payload."""
    entries = [(256, 4, 1, w), (257, 4, 1, h), (258, 3, 1, bits),
               (259, 3, 1, comp), (262, 3, 1, photo), (273, 4, 1, 0),
               (277, 3, 1, 1), (278, 4, 1, h), (279, 4, 1, len(payload)),
               (339, 3, 1, sfmt)]
    off = 8 + 2 + 12 * len(entries) + 4
    out = b"II*\x00" + struct.pack("<IH", 8, len(entries))
    for tag, typ, cnt, val in entries:
        out += struct.pack("<HHII", tag, typ, cnt, off if tag == 273
                           else val)
    return out + struct.pack("<I", 0) + payload


def _gtiff(bits, comp, sfmt=1):
    from gdal_ray.codecs.gtiff import decode_gtiff
    w, h = 19, 7
    raw = _rng(bits + comp).integers(0, 256, h * ((w * bits + 7) // 8))\
        .astype(np.uint8).tobytes()
    payload = tiff_lzw(raw) if comp == 5 else raw
    return decode_gtiff(_strip_tiff(payload, w, h, bits, comp,
                                    sfmt)).pixels


def _gtiff_lzw_long():
    """8-bit LZW strip long enough for 12-bit codes and a CLEAR."""
    from gdal_ray.codecs.gtiff import decode_gtiff
    w, h = 160, 120
    raw = (_rng(9).integers(0, 24, w * h)).astype(np.uint8).tobytes()
    return decode_gtiff(_strip_tiff(tiff_lzw(raw), w, h, 8, 5)).pixels


def _gtiff_deflate():
    from gdal_ray.codecs.gtiff import decode_gtiff, encode_gtiff
    buf = encode_gtiff(_smooth(33, 20, 3, 8), tile_size=16)
    return buf, decode_gtiff(buf).pixels


# ------------------------------------------------------------ PNG / BMP
def _png_chunk(tag, data):
    return struct.pack(">I", len(data)) + tag + data + struct.pack(
        ">I", zlib.crc32(tag + data))


def _png(depth, ctype, interlace):
    from gdal_ray.codecs import png
    w, h = 21, 13
    r = _rng(depth * 3 + ctype + interlace)
    passes = png._ADAM7 if interlace else [(0, 0, 1, 1)]
    raw = b""
    for x0, y0, dx, dy in passes:
        pw = (w - x0 + dx - 1) // dx
        ph = (h - y0 + dy - 1) // dy
        if pw == 0 or ph == 0:
            continue
        rb = (pw * depth + 7) // 8
        for _ in range(ph):
            raw += bytes([0]) + r.integers(0, 256, rb).astype(
                np.uint8).tobytes()
    body = _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, depth, ctype,
                                           0, 0, interlace))
    if ctype == 3:
        body += _png_chunk(b"PLTE", bytes(range(3 * (1 << depth))))
    body += _png_chunk(b"IDAT", zlib.compress(raw))
    body += _png_chunk(b"IEND", b"")
    return png.decode(b"\x89PNG\r\n\x1a\n" + body)


def _bmp(bits):
    from gdal_ray.codecs.bmp import decode_bmp
    w, h = 19, 6
    stride = ((w * bits + 7) // 8 + 3) & ~3
    npal = 1 << bits
    data_off = 14 + 40 + 4 * npal
    pixels = _rng(bits).integers(0, 256, stride * h).astype(
        np.uint8).tobytes()
    hdr = b"BM" + struct.pack("<IHHI", data_off + len(pixels), 0, 0,
                              data_off)
    hdr += struct.pack("<IiiHHIIiiII", 40, w, h, 1, bits, 0, len(pixels),
                       0, 0, npal, 0)
    pal = bytes(x for i in range(npal) for x in (i, 2 * i, 3 * i, 0))
    return decode_bmp(hdr + pal + pixels)


# ------------------------------------------------------------ GRIB2
def _grib2_simple(nbits):
    from gdal_ray.codecs.grib2 import _decode_data
    n = 37
    drs = bytearray(21)
    struct.pack_into(">fHHB", drs, 11, 12.5, 0x8002, 1, nbits)  # E=-2
    data = _rng(nbits).integers(0, 256, (n * nbits + 7) // 8).astype(
        np.uint8).tobytes()
    return _decode_data(0, bytes(drs), data, n)


def _grib2_complex(templ):
    from gdal_ray.codecs.grib2 import _complex_unpack
    drs = bytearray(49)
    struct.pack_into(">fhh", drs, 11, 3.0, 0, 0)
    drs[19], drs[20], drs[22] = 7, 1, 0          # nbits, int, no missing
    struct.pack_into(">I", drs, 31, 6)           # ng
    drs[35], drs[36] = 1, 3                      # group width ref, bits
    struct.pack_into(">I", drs, 37, 4)           # group length ref
    drs[41] = 1                                  # length increment
    struct.pack_into(">I", drs, 42, 5)           # last group length
    drs[46] = 2                                  # group length bits
    drs[47], drs[48] = 2, 2                      # order 2, 2 octets
    data = _rng(templ).integers(0, 256, 200).astype(np.uint8).tobytes()
    return _complex_unpack(bytes(drs), data, 60, templ)


# ------------------------------------------------------------ others
def _hfa(nbits):
    from gdal_ray.codecs.hfa import _read_packed
    vals = _rng(nbits).integers(0, 256, 40).astype(np.uint8).tobytes()
    return _read_packed(vals, nbits, 40 * 8 // nbits - 3)


def _nitf(nbpp):
    from gdal_ray.codecs.nitf import _read_uncompressed
    seg = types.SimpleNamespace(rows=9, cols=10, bands=1, nbpp=nbpp,
                                bw=8, bh=5, bpr=2, bpc=2, imode="B",
                                nodata=None)
    blk = (8 * 5 * nbpp + 7) // 8
    buf = _rng(nbpp).integers(0, 256, 4 * blk).astype(np.uint8).tobytes()
    return _read_uncompressed(buf, seg, [0, blk, 2 * blk, 3 * blk])


def _msgn(tmp_path):
    from test_msgn import _make_msgn
    from gdal_ray.codecs.msgn import read_msgn
    counts = _rng(11).integers(0, 1024, (4, 9, 2)).astype(np.uint16)
    return read_msgn(_make_msgn(tmp_path, counts, [1, 5], 4, 9))[0]


def _aig(magic):
    from gdal_ray.codecs.aig import _process_block
    data = _rng(magic).integers(0, 256, 30).astype(np.uint8).tobytes()
    return _process_block(data, magic, -3, 8, 6)


def _vicar():
    from gdal_ray.codecs.vicar import _basic_decode
    code = _rng(13).integers(0, 256, 120).astype(np.uint8)
    return _basic_decode(code, 6, 2)


def _zstd():
    import pyarrow as pa
    from gdal_ray.codecs.zstd import zstd_decompress
    raw = bytes(_rng(14).integers(0, 12, 5000).astype(np.uint8)) * 3
    buf = pa.compress(raw, codec="zstd", asbytes=True)
    out = zstd_decompress(buf)
    assert out == raw
    return buf, out


CASES = {
    "gif_2col": lambda t: _gif(7, 13, 2, 1),
    "gif_16col": lambda t: _gif(48, 64, 16, 2),
    "gif_256col_clear": lambda t: _gif(160, 160, 256, 3),
    "fax_g4": lambda t: _fax("g4"),
    "fax_g3": lambda t: _fax("g3"),
    "fax_mh": lambda t: _fax("mh"),
    "jpeg_gray": lambda t: _jpeg(1, False),
    "jpeg_rgb": lambda t: _jpeg(3, False),
    "jpeg_rgb_progressive": lambda t: _jpeg(3, True),
    "webp_rgb": lambda t: _webp(3),
    "webp_rgba": lambda t: _webp(4),
    "exr_piz": _exr,
    "rl2_mono1": lambda t: _rl2(0xa1, 0x11, 1),
    "rl2_pal2": lambda t: _rl2(0xa2, 0x12, 2),
    "rl2_gray4": lambda t: _rl2(0xa3, 0x13, 4),
    "pdf_gray1": lambda t: _pdf_image(1, 1, "FlateDecode"),
    "pdf_gray2_lzw": lambda t: _pdf_image(2, 1, "LZWDecode"),
    "pdf_rgb4": lambda t: _pdf_image(4, 3, "FlateDecode"),
    "pdf_indexed4_lzw": lambda t: _pdf_image(4, 1, "LZWDecode", True),
    "pdf_indexed1": lambda t: _pdf_image(1, 1, "FlateDecode", True),
    "pdf_roundtrip": _pdf_roundtrip,
    "gtiff_1bit": lambda t: _gtiff(1, 1),
    "gtiff_1bit_lzw": lambda t: _gtiff(1, 5),
    "gtiff_2bit_lzw": lambda t: _gtiff(2, 5),
    "gtiff_4bit": lambda t: _gtiff(4, 1),
    "gtiff_12bit": lambda t: _gtiff(12, 1),
    "gtiff_12bit_signed_lzw": lambda t: _gtiff(12, 5, sfmt=2),
    "gtiff_8bit_lzw": lambda t: _gtiff(8, 5),
    "gtiff_lzw_12bit_codes": lambda t: _gtiff_lzw_long(),
    "gtiff_deflate": lambda t: _gtiff_deflate(),
    "png_gray1": lambda t: _png(1, 0, 0),
    "png_gray2": lambda t: _png(2, 0, 0),
    "png_pal4": lambda t: _png(4, 3, 0),
    "png_gray2_adam7": lambda t: _png(2, 0, 1),
    "png_pal1_adam7": lambda t: _png(1, 3, 1),
    "bmp_1bit": lambda t: _bmp(1),
    "bmp_4bit": lambda t: _bmp(4),
    "grib2_simple_5": lambda t: _grib2_simple(5),
    "grib2_simple_13": lambda t: _grib2_simple(13),
    "grib2_simple_24": lambda t: _grib2_simple(24),
    "grib2_complex": lambda t: _grib2_complex(2),
    "grib2_complex_sd": lambda t: _grib2_complex(3),
    "hfa_1": lambda t: _hfa(1),
    "hfa_2": lambda t: _hfa(2),
    "hfa_4": lambda t: _hfa(4),
    "nitf_1": lambda t: _nitf(1),
    "nitf_2": lambda t: _nitf(2),
    "nitf_4": lambda t: _nitf(4),
    "msgn_10bit": _msgn,
    "aig_4bit": lambda t: _aig(0x04),
    "aig_1bit": lambda t: _aig(0x01),
    "vicar_basic": lambda t: _vicar(),
    "zstd_fse": lambda t: _zstd(),
}

DIGESTS = {
    "gif_2col": "84fd3cd152f04f8e",
    "gif_16col": "993a3be0f268ca9d",
    "gif_256col_clear": "9cff2389ac76fe25",
    "fax_g4": "3d7a026de9b11abc",
    "fax_g3": "9ad6303db8a23d01",
    "fax_mh": "a31035ef341d099a",
    "jpeg_gray": "04ec56ce2ade3ef3",
    "jpeg_rgb": "3825e6897d835423",
    "jpeg_rgb_progressive": "16a789005fa5a743",
    "webp_rgb": "3971f7a91310589f",
    "webp_rgba": "76487cfe03e03689",
    "exr_piz": "028e71188c7c2106",
    "rl2_mono1": "6f12298ebb488313",
    "rl2_pal2": "6a783b7b6cc0a9a8",
    "rl2_gray4": "dbbcd4a21173c94f",
    "pdf_gray1": "2c5e3280732ebd7c",
    "pdf_gray2_lzw": "5e1eaae2943f11f5",
    "pdf_rgb4": "c50d8e31082a013a",
    "pdf_indexed4_lzw": "bd57d777387f2b7d",
    "pdf_indexed1": "e6d2adff3b039dc0",
    "pdf_roundtrip": "042bf9c3c09486ee",
    "gtiff_1bit": "b88e1a696a4497c3",
    "gtiff_1bit_lzw": "729573e1c08209f3",
    "gtiff_2bit_lzw": "ff4201e0c50b691d",
    "gtiff_4bit": "e8dd8a559b6b7c0b",
    "gtiff_12bit": "f9127111497268a2",
    "gtiff_12bit_signed_lzw": "73b70bff10c3400d",
    "gtiff_8bit_lzw": "10935f1b062ebb50",
    "gtiff_lzw_12bit_codes": "43271a1ff8102a54",
    "gtiff_deflate": "bfc72001b8ec8655",
    "png_gray1": "a639e63645e3d678",
    "png_gray2": "e91c5db75509e39b",
    "png_pal4": "3b2530e27e54078f",
    "png_gray2_adam7": "305c4800678ee7d1",
    "png_pal1_adam7": "551e30962872e947",
    "bmp_1bit": "f12a830f33dce8a6",
    "bmp_4bit": "c7e4d40283166c89",
    "grib2_simple_5": "bb7ae000daaa6057",
    "grib2_simple_13": "d0374df3cbc6b439",
    "grib2_simple_24": "e05fa1b57bfe3d2d",
    "grib2_complex": "0dfa9f69f04bb453",
    "grib2_complex_sd": "5c2ad5e17dc258e9",
    "hfa_1": "9cdc1c6089637315",
    "hfa_2": "cfd7d5be4420c97f",
    "hfa_4": "fd843633e4bb5fee",
    "nitf_1": "c3a71920d051e275",
    "nitf_2": "1b11c4f7407fc3e7",
    "nitf_4": "375fdfc3af7e3dbc",
    "msgn_10bit": "0fc1a6d9f479c777",
    "aig_4bit": "a1775bf6184be66b",
    "aig_1bit": "c414d17d57518ef4",
    "vicar_basic": "7ec6227d9fa6f9a5",
    "zstd_fse": "dfdbfa1c29d0b927",
}


@pytest.mark.parametrize("name", list(CASES))
def test_decode_parity(name, tmp_path):
    assert _digest(CASES[name](tmp_path)) == DIGESTS[name]
