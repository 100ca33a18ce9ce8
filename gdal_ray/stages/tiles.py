"""Tile cutting: cover-list expansion, per-tile render, overview cascade.

Ray-Data-first re-expression of gdal2tiles / `gdal raster tile`
semantics (reference: swig/python/gdal-utils/osgeo_utils/gdal2tiles.py
lifecycle; apps/gdalalg_raster_tile.cpp:642-700 per-tile work unit):

  Stage A (max zoom): the map side decodes each image once and warps
  one ≤256² RGBA-PNG fragment per covering (z, x, y) tile
  (warp_fragments_batch); fragments are salted into buckets by cell,
  and a map_groups callable (RenderFragments) composites each cell's
  fragments in image_id order and encodes the tile PNG. The exchange
  carries pre-warped fragments (≈1× the corpus), not the source bytes
  once per covering cell (wide-row rule, SURVEY §7.5.6).

  Stage B (overviews): zoom-descending 4→1 combine
  (create_overview_tile semantics, gdal2tiles.py:1466-1494) with a
  per-zoom barrier (gdal2tiles.py:4547).

Both exchanges run on Arrow: a bucket arrives as a pa.Table, is split
into cells (or parents) at numpy run boundaries over the sorted key,
and comes back as one TILE_SCHEMA table with no pandas schema metadata.

Skew: contributions for hot cells can be range-salted by image rank so
salt buckets composite disjoint image_id ranges; merging buckets in
salt order preserves global compositing order (PBSM-style).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..codecs import decode as codec_decode
from ..codecs import encode as codec_encode
from ..core import geotransform as gtr
from ..core import mercator as merc
from ..core import resample as rs
from ..core.checksum import checksum_multiband

TILE_SIZE = 256

COVER_SCHEMA = pa.schema([
    ("cell", pa.uint64()),
    ("z", pa.int32()), ("x", pa.int64()), ("y", pa.int64()),
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("fmt", pa.string()),
    ("gt0", pa.float64()), ("gt1", pa.float64()), ("gt2", pa.float64()),
    ("gt3", pa.float64()), ("gt4", pa.float64()), ("gt5", pa.float64()),
    ("img_w", pa.int32()), ("img_h", pa.int32()),
])

TILE_SCHEMA = pa.schema([
    ("cell", pa.uint64()),
    ("z", pa.int32()), ("x", pa.int64()), ("y", pa.int64()),
    ("png", pa.binary()),
    ("n_src", pa.int32()),
    ("cs_r", pa.int32()), ("cs_g", pa.int32()), ("cs_b", pa.int32()),
])


def cover_batch(batch: pa.Table, zoom: int | None = None,
                max_cells_per_image: int = 4096) -> pa.Table:
    """Image rows (with georef cols) → one row per covering tile at
    `zoom` (or each image's native_z when zoom is None). Metadata-only:
    carries encoded bytes through to the render stage."""
    n = batch.num_rows
    minx = batch["minx"].to_numpy(); miny = batch["miny"].to_numpy()
    maxx = batch["maxx"].to_numpy(); maxy = batch["maxy"].to_numpy()
    native = batch["native_z"].to_numpy()
    out_rows: dict[str, list] = {k.name: [] for k in COVER_SCHEMA}
    ids = batch["image_id"].to_pylist()
    bys = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    gts = [batch[f"gt{k}"].to_numpy() for k in range(6)]
    ws = batch["w"].to_numpy(); hs = batch["h"].to_numpy()
    for i in range(n):
        z = int(zoom if zoom is not None else native[i])
        cells = merc.cells_for_envelope(minx[i], miny[i], maxx[i], maxy[i], z,
                                        max_cells=max_cells_per_image)
        if len(cells) == 0:
            continue
        zz, xx, yy = merc.cell_decode(cells)
        k = len(cells)
        out_rows["cell"].extend(cells.tolist())
        out_rows["z"].extend([z] * k)
        out_rows["x"].extend(xx.tolist())
        out_rows["y"].extend(yy.tolist())
        out_rows["image_id"].extend([ids[i]] * k)
        out_rows["bytes"].extend([bys[i]] * k)
        out_rows["fmt"].extend([fmts[i]] * k)
        for g in range(6):
            out_rows[f"gt{g}"].extend([float(gts[g][i])] * k)
        out_rows["img_w"].extend([int(ws[i])] * k)
        out_rows["img_h"].extend([int(hs[i])] * k)
    return pa.Table.from_pydict(out_rows, schema=COVER_SCHEMA)


def tile_geotransform(z: int, x: int, y_xyz: int, tile_size: int = TILE_SIZE):
    """North-up geotransform of an XYZ tile's pixel grid."""
    ty_tms = int(merc.xyz_to_tms(y_xyz, z))
    minx, miny, maxx, maxy = merc.tile_bounds(x, ty_tms, z, tile_size)
    return gtr.from_bounds(float(minx), float(miny), float(maxx), float(maxy),
                           tile_size, tile_size)


FRAGMENT_SCHEMA = pa.schema([
    ("cell", pa.uint64()),
    ("z", pa.int32()), ("x", pa.int64()), ("y", pa.int64()),
    ("image_id", pa.string()),
    ("r0", pa.int32()), ("c0", pa.int32()),
    ("frag", pa.binary()),          # RGBA png: rgb + validity alpha
])

_KERNEL_RADIUS = {"near": 1, "bilinear": 1, "cubic": 2,
                  "cubicspline": 2, "lanczos": 3}


def _footprint_window(src_gt, w, h, dst_gt, ts, resampling):
    """dst sub-window (c0, r0, c1, r1) covered by a source footprint,
    padded by the resampling kernel's reach (ComputeSourceWindow's dual,
    alg/gdalwarpoperation.cpp:134)."""
    exs = (src_gt[0], src_gt[0] + w * src_gt[1])
    eys = (src_gt[3], src_gt[3] + h * src_gt[5])
    c0 = int(np.floor((min(exs) - dst_gt[0]) / dst_gt[1]))
    c1 = int(np.ceil((max(exs) - dst_gt[0]) / dst_gt[1]))
    r0 = int(np.floor((max(eys) - dst_gt[3]) / dst_gt[5]))
    r1 = int(np.ceil((min(eys) - dst_gt[3]) / dst_gt[5]))
    radius = _KERNEL_RADIUS.get(resampling, 2)
    pad = int(np.ceil(radius * abs(src_gt[1]) / abs(dst_gt[1]))) + 1
    return (max(c0 - pad, 0), max(r0 - pad, 0),
            min(c1 + pad, ts), min(r1 + pad, ts))


def warp_fragments_batch(batch: pa.Table, zoom: int | None = None,
                         *, resampling: str = "bilinear",
                         tile_size: int = TILE_SIZE,
                         max_cells_per_image: int = 4096) -> pa.Table:
    """Image rows (with georef cols) → one PRE-WARPED tile fragment per
    covering tile: decode once in the map stage, warp each covering
    tile's sub-window, re-encode the fragment as RGBA PNG (alpha =
    validity).

    This is the scale fix for the render shuffle: the exchange carries
    ≤tile_size² encoded fragments totalling ≈1× the corpus, instead of
    the full source bytes duplicated once per covering cell
    (cover-factor×). Per-pixel results are IDENTICAL to warping inside
    the render group: to_uint8 is elementwise and compositing is
    later-id-wins either way (checksum-verified in tests)."""
    n = batch.num_rows
    minx = batch["minx"].to_numpy(); miny = batch["miny"].to_numpy()
    maxx = batch["maxx"].to_numpy(); maxy = batch["maxy"].to_numpy()
    native = batch["native_z"].to_numpy()
    ids = batch["image_id"].to_pylist()
    bys = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    gts = [batch[f"gt{k}"].to_numpy() for k in range(6)]
    ts = tile_size
    out: dict[str, list] = {k.name: [] for k in FRAGMENT_SCHEMA}
    for i in range(n):
        z = int(zoom if zoom is not None else native[i])
        cells = merc.cells_for_envelope(minx[i], miny[i], maxx[i], maxy[i], z,
                                        max_cells=max_cells_per_image)
        if len(cells) == 0:
            continue
        src_gt = tuple(float(g[i]) for g in gts)
        px = codec_decode(bys[i], fmts[i])
        h, w = px.shape[:2]
        zz, xx, yy = merc.cell_decode(cells)
        for cell, tx, ty in zip(cells.tolist(), xx.tolist(), yy.tolist()):
            dst_gt = tile_geotransform(z, int(tx), int(ty), ts)
            c0, r0, c1, r1 = _footprint_window(src_gt, w, h, dst_gt, ts,
                                               resampling)
            if c0 >= c1 or r0 >= r1:
                continue
            sub_gt = (dst_gt[0] + c0 * dst_gt[1], dst_gt[1], 0.0,
                      dst_gt[3] + r0 * dst_gt[5], 0.0, dst_gt[5])
            warped, valid = rs.warp(px, src_gt, sub_gt, (r1 - r0, c1 - c0),
                                    resampling)
            if not valid.any():
                continue
            rgb = rs.to_uint8(np.where(valid[:, :, None], warped, 0.0))
            rgba = np.dstack([rgb, (valid * 255).astype(np.uint8)])
            out["cell"].append(np.uint64(cell))
            out["z"].append(z); out["x"].append(int(tx)); out["y"].append(int(ty))
            out["image_id"].append(ids[i])
            out["r0"].append(r0); out["c0"].append(c0)
            # level-1 deflate: fragments live only through one exchange,
            # so trade ~15% size for ~3x faster encode
            out["frag"].append(codec_encode(rgba, "png", level=1))
    return pa.Table.from_pydict(out, schema=FRAGMENT_SCHEMA)


def _as_table(group: pa.Table | pd.DataFrame) -> pa.Table:
    """map_groups hands these callables a pa.Table; a pandas group from
    a direct caller is converted once here."""
    if isinstance(group, pd.DataFrame):
        return pa.Table.from_pandas(group, preserve_index=False)
    return group


def _key_slices(t: pa.Table, key: np.ndarray):
    """Split a group into one slice per distinct key (a salted bucket
    holds many cells or parents). The table is reordered at most once —
    a stable sort, so rows of one key keep their arrival order — and
    every slice is a zero-copy view between numpy run boundaries."""
    if len(key) > 1 and (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        t, key = t.take(order), key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    for s, e in zip(starts.tolist(), ends.tolist()):
        yield t.slice(s, e - s)


def _first(t: pa.Table, col: str) -> int:
    return int(t[col][0].as_py())


class _TileRows:
    """Accumulates rendered tiles; one TILE_SCHEMA table out."""

    def __init__(self):
        self.cols: dict[str, list] = {f.name: [] for f in TILE_SCHEMA}

    def add(self, cell: int, z: int, x: int, y: int, rgb: np.ndarray,
            rgba: np.ndarray, n_src: int) -> None:
        """rgba is encoded as the tile PNG; rgb gives the band
        checksums."""
        cs = checksum_multiband(rgb)
        for k, v in (("cell", int(cell)), ("z", z), ("x", x), ("y", y),
                     ("png", codec_encode(rgba, "png")), ("n_src", n_src),
                     ("cs_r", int(cs[0])), ("cs_g", int(cs[1])),
                     ("cs_b", int(cs[2]))):
            self.cols[k].append(v)

    def table(self) -> pa.Table:
        return pa.Table.from_pydict(self.cols, schema=TILE_SCHEMA)


def _render_by_cell(render_one, group: pa.Table | pd.DataFrame) -> pa.Table:
    t = _as_table(group)
    out = _TileRows()
    if t.num_rows:
        for sub in _key_slices(t, t["cell"].to_numpy()):
            render_one(sub, out)
    return out.table()


class RenderFragments:
    """map_groups callable: pre-warped fragments of one or more (z,x,y)
    tiles → one rendered RGBA tile row per cell. Compositing order:
    ascending image_id, later wins on valid pixels — identical to
    RenderTile."""

    def __init__(self, tile_size: int = TILE_SIZE, skip_blank: bool = True):
        self.tile_size = tile_size
        self.skip_blank = skip_blank

    def _render_one(self, t: pa.Table, out: _TileRows) -> None:
        ts = self.tile_size
        acc = np.zeros((ts, ts, 3), dtype=np.uint8)
        alpha = np.zeros((ts, ts), dtype=bool)
        order = np.argsort(t["image_id"].to_numpy(), kind="stable")
        frags = t["frag"].to_pylist()
        r0s = t["r0"].to_numpy()
        c0s = t["c0"].to_numpy()
        n_src = 0
        for ridx in order:
            rgba = codec_decode(frags[ridx], "png")
            fh, fw = rgba.shape[:2]
            r0, c0 = int(r0s[ridx]), int(c0s[ridx])
            valid = rgba[:, :, 3] > 0
            if not valid.any():
                continue
            win = acc[r0:r0 + fh, c0:c0 + fw]
            win[valid] = rgba[:, :, :3][valid]
            alpha[r0:r0 + fh, c0:c0 + fw] |= valid
            n_src += 1
        if self.skip_blank and not alpha.any():
            return
        rgba_out = np.dstack([acc, (alpha * 255).astype(np.uint8)])
        out.add(_first(t, "cell"), _first(t, "z"), _first(t, "x"),
                _first(t, "y"), acc, rgba_out, n_src)

    def __call__(self, group: pa.Table | pd.DataFrame) -> pa.Table:
        return _render_by_cell(self._render_one, group)


class RenderTile:
    """map_groups callable: all contributions of one or more (z,x,y)
    tiles → one rendered RGBA tile row per cell.

    Actor-pool stage: per-actor decode cache (an image overlapping k
    tiles in this actor's groups decodes once — GDAL's block-cache role,
    gcore/gdalrasterblock.cpp, scoped per worker instead of global).
    """

    def __init__(self, resampling: str = "bilinear", tile_size: int = TILE_SIZE,
                 skip_blank: bool = True):
        self.resampling = resampling
        self.tile_size = tile_size
        self.skip_blank = skip_blank
        self._cache: dict[str, np.ndarray] = {}
        self._cache_bytes = 0
        self._cache_limit = 256 * 1024 * 1024

    def _decode(self, image_id: str, buf: bytes, fmt: str) -> np.ndarray:
        px = self._cache.get(image_id)
        if px is None:
            px = codec_decode(buf, fmt)
            if self._cache_bytes + px.nbytes > self._cache_limit:
                self._cache.clear()
                self._cache_bytes = 0
            self._cache[image_id] = px
            self._cache_bytes += px.nbytes
        return px

    def _render_one(self, t: pa.Table, out: _TileRows) -> None:
        """Render one tile's contribution group; append it to out."""
        z, x, y = _first(t, "z"), _first(t, "x"), _first(t, "y")
        ts = self.tile_size
        dst_gt = tile_geotransform(z, x, y, ts)
        acc = np.zeros((ts, ts, 3), dtype=np.float64)
        alpha = np.zeros((ts, ts), dtype=bool)
        # deterministic compositing order: ascending image_id, later wins
        ids = t["image_id"].to_numpy()
        order = np.argsort(ids, kind="stable")
        blobs = t["bytes"].to_pylist()
        fmts = t["fmt"].to_pylist()
        gts = [t[f"gt{k}"].to_numpy() for k in range(6)]
        ws = t["img_w"].to_numpy()
        hs = t["img_h"].to_numpy()
        n_src = 0
        for ridx in order:
            src_gt = tuple(g[ridx] for g in gts)
            # dst sub-window covered by this image's footprint — warping
            # only it makes hot tiles (hundreds of small images) linear
            # in footprint area, not in tile area × images
            c0, r0, c1, r1 = _footprint_window(
                src_gt, ws[ridx], hs[ridx], dst_gt, ts, self.resampling)
            if c0 >= c1 or r0 >= r1:
                continue
            sub_gt = (dst_gt[0] + c0 * dst_gt[1], dst_gt[1], 0.0,
                      dst_gt[3] + r0 * dst_gt[5], 0.0, dst_gt[5])
            px = self._decode(ids[ridx], blobs[ridx], fmts[ridx])
            warped, valid = rs.warp(px, src_gt, sub_gt, (r1 - r0, c1 - c0),
                                    self.resampling)
            if not valid.any():
                continue
            acc[r0:r1, c0:c1][valid] = warped[valid]
            alpha[r0:r1, c0:c1] |= valid
            n_src += 1
        if self.skip_blank and not alpha.any():
            return
        rgb = rs.to_uint8(acc)
        rgba = np.dstack([rgb, (alpha * 255).astype(np.uint8)])
        out.add(_first(t, "cell"), z, x, y, rgb, rgba, n_src)

    def __call__(self, group: pa.Table | pd.DataFrame) -> pa.Table:
        return _render_by_cell(self._render_one, group)


class CombineChildren:
    """Overview cascade 4→1: map_groups over parent cell; places ≤4 child
    tiles into a 2×2 mosaic and box-downsamples (gdal2tiles
    create_overview_tile semantics)."""

    def __init__(self, tile_size: int = TILE_SIZE, alg: str = "average"):
        self.tile_size = tile_size
        self.alg = alg

    def _combine_one(self, t: pa.Table, out: _TileRows) -> None:
        ts = self.tile_size
        pz = _first(t, "z") - 1
        px_ = _first(t, "x") >> 1
        py_ = _first(t, "y") >> 1
        mosaic = np.zeros((2 * ts, 2 * ts, 4), dtype=np.uint8)
        xs = t["x"].to_numpy()
        ys = t["y"].to_numpy()
        for i, png in enumerate(t["png"].to_pylist()):
            child = codec_decode(png, "png")
            dx = (int(xs[i]) & 1) * ts
            dy = (int(ys[i]) & 1) * ts  # XYZ y grows downward
            mosaic[dy:dy + ts, dx:dx + ts] = child
        down = rs.downsample2x(mosaic, self.alg)
        # de-premultiply-free alpha: average alpha independently
        rgba = rs.to_uint8(down)
        out.add(merc.cell_id(pz, px_, py_), pz, px_, py_, rgba[:, :, :3],
                rgba, int(np.sum(t["n_src"].to_numpy())))

    def __call__(self, group: pa.Table | pd.DataFrame) -> pa.Table:
        t = _as_table(group)
        out = _TileRows()
        if t.num_rows:
            parent = (t["parent"].to_numpy() if "parent" in t.column_names
                      else merc.cell_parent(t["cell"].to_numpy()))
            for sub in _key_slices(t, parent):
                self._combine_one(sub, out)
        return out.table()


def add_parent_cell(batch: pa.Table) -> pa.Table:
    parent = merc.cell_parent(batch["cell"].to_numpy())
    return batch.append_column("parent", pa.array(parent, pa.uint64()))
