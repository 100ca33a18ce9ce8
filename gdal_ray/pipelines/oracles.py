"""DuckDB oracle SQL builders for the battery queries.

Every builder returns an ANSI-SQL string DuckDB can run over the
driver-registered parquet views (documents, embeddings, …). The raster
and geometry oracles reconstruct the synthetic inputs from their
closed-form generators (sources/images.py, sources/vector.py,
sources/geo.py) with generate_series — an INDEPENDENT recomputation of
each operator's result, not a re-run of the Ray code.

DuckDB 1.0 notes baked in here:
  * generate_series cannot take lateral column bounds → constant-bound
    series JOINed with a <= filter;
  * 1::UBIGINT << 63 overflows → (1::HUGEINT << b) % 2^64;
  * HUGEINT arithmetic gives exact mod-2^64 polynomial hashes.
"""

from __future__ import annotations

import numpy as np

from ..sources import geo as G
from ..sources.images import H_CYCLE, W_CYCLE

_M64 = 1 << 64

# ---------------------------------------------------------------------------
# shared closed-form snippets (images corpus)
# ---------------------------------------------------------------------------


def sql_images_cte(n: int, *, png_only: bool = False, series_name: str = "imgs") -> str:
    """CTE reconstructing image params for indices 0..n-1:
    (i, a, b, c, w, h, image_id[, res, x0, y1]).  Mirrors
    sources/images.py pattern_params/image_dims and sources/geo.py
    image_geotransform exactly."""
    wc = " ".join(f"WHEN {k} THEN {int(v)}" for k, v in enumerate(W_CYCLE))
    hc = " ".join(f"WHEN {k} THEN {int(v)}" for k, v in enumerate(H_CYCLE))
    filt = " WHERE i % 2 = 0" if png_only else ""
    x_expr, y_expr = G.sql_point_xy("i")
    return f"""
{series_name} AS (
  SELECT i, p,
         1 + (p * 7919) % 13  AS a,
         1 + (p * 104729) % 17 AS b,
         (p * 1299709) % 97   AS c,
         CASE WHEN p % 251 = 13 THEN 1 ELSE (CASE p % 4 {wc} END) END AS w,
         CASE WHEN p % 251 = 13 THEN 1 ELSE (CASE (p // 4) % 4 {hc} END) END AS h,
         printf('img%08d', i) AS image_id,
         power(2.0, 1 + (i % 4)) AS res,
         {x_expr} AS x0,
         {y_expr} AS y1
  FROM (SELECT g AS i, CASE WHEN g % 97 = 0 THEN 0 ELSE g END AS p
        FROM generate_series(0, {n - 1}) t(g)){filt}
)"""


def sql_pixels_cte(n: int, *, png_only: bool = True,
                   max_dim: int = 512) -> str:
    """CTE of every (image, pixel) with closed-form band values v0/v1
    ((a*gx + b*gy [+ c]) % 256). Pairs imgs with constant-bound series
    filtered to gx < w, gy < h."""
    return f"""
WITH {sql_images_cte(n, png_only=png_only)},
gxs AS (SELECT g AS gx FROM generate_series(0, {max_dim - 1}) t(g)),
gys AS (SELECT g AS gy FROM generate_series(0, {max_dim - 1}) t(g)),
px AS (
  SELECT i, image_id, w, h, gx, gy, a, b,
         (a * gx + b * gy) % 256         AS v0,
         (a * gx + b * gy + c) % 256     AS v1,
         (a * gx + b * gy + 2 * c) % 256 AS v2
  FROM imgs JOIN gxs ON gx < w JOIN gys ON gy < h
)"""


# ---------------------------------------------------------------------------
# text / embedding family
# ---------------------------------------------------------------------------

def sql_minhash_pairs(threshold: float = 0.5, k: int = 5) -> str:
    """Brute-force exact char-k-gram Jaccard over all doc pairs —
    verifies the MinHash-LSH + exact-verify pipeline end to end."""
    return f"""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
gs AS (SELECT g FROM generate_series(1, 8192) t(g)),
sh AS (SELECT DISTINCT doc_id, substr(text, g, {k}) AS s
       FROM d JOIN gs ON g <= L - {k - 1}),
sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS i
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT ia AS id_a, ib AS id_b,
       ROUND(i::DOUBLE / (sa.n + sb.n - i), 4) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = ia
JOIN sz sb ON sb.doc_id = ib
WHERE i::DOUBLE / (sa.n + sb.n - i) >= {threshold}
"""


def sql_simhash_pairs(max_hamming: int = 6, k: int = 4) -> str:
    """Brute-force SimHash Hamming pairs: recomputes the identical
    codepoint-polynomial signature (functions/dedup.py simhash) with
    HUGEINT mod-2^64 arithmetic, then all-pairs popcount."""
    B = 1099511628211
    pows = [pow(B, p, _M64) for p in range(k - 1, -1, -1)]
    terms = " + ".join(
        f"unicode(substr(text, g + {j}, 1))::HUGEINT * {pows[j]}"
        for j in range(k))
    return f"""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
gs AS (SELECT g FROM generate_series(1, 8192) t(g)),
sh AS (SELECT doc_id, (({terms}) % {_M64})::UBIGINT AS hv
       FROM d JOIN gs ON g <= L - {k - 1}),
bits AS (SELECT doc_id, b.g AS bit,
                2 * SUM(CASE WHEN (hv >> b.g) & 1 = 1 THEN 1 ELSE 0 END)
                  - COUNT(*) AS v
         FROM sh, generate_series(0, 63) b(g) GROUP BY 1, 2),
sig AS (SELECT doc_id,
               SUM(CASE WHEN v > 0
                   THEN ((1::HUGEINT << bit) % {_M64})::UBIGINT
                   ELSE 0::UBIGINT END) AS s
        FROM bits GROUP BY doc_id)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.s, b.s))::BIGINT AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= {max_hamming}
"""


def sql_embedding_pairs(threshold: float = 0.9) -> str:
    return f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(a.embedding, b.embedding), 4) AS cos_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {threshold}
"""


def sql_ivf_topk(nq: int = 4, k: int = 5) -> str:
    """Exact per-query cosine top-k — equals IVF output when every list
    is probed (nprobe = nlist)."""
    return f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id < {nq}),
s AS (SELECT q.qid, e.vec_id,
             list_cosine_similarity(qe, e.embedding) AS c
      FROM q CROSS JOIN embeddings e),
r AS (SELECT qid, vec_id, c,
             row_number() OVER (PARTITION BY qid ORDER BY c DESC, vec_id) AS rn
      FROM s)
SELECT qid, vec_id, ROUND(c, 4) AS cos_sim FROM r WHERE rn <= {k}
"""


def sql_lang_id(stopwords: dict[str, set[str]]) -> str:
    """Stopword-voting language ID (functions/text.py detect_language):
    first-400-words vote, first language in registration order wins
    ties, 'und' when no stopword hits."""
    langs = list(stopwords)  # dict order == Python iteration order

    def inlist(lang):
        return ", ".join(f"'{w}'" for w in sorted(stopwords[lang]))

    scores = ",\n  ".join(
        f"len(list_filter(ws, x -> x IN ({inlist(lg)}))) AS s_{lg}"
        for lg in langs)
    gmax = "greatest(" + ", ".join(f"s_{lg}" for lg in langs) + ")"
    case = " ".join(f"WHEN s_{lg} = m THEN '{lg}'" for lg in langs)
    return f"""
WITH w AS (SELECT doc_id,
  list_slice(regexp_extract_all(lower(text),
             '[a-zàâäéèêëïîôöùûüçßñ]+'), 1, 400) AS ws
  FROM documents),
s AS (SELECT doc_id,
  {scores}
  FROM w),
p AS (SELECT doc_id, {gmax} AS m, * FROM s),
pred AS (SELECT doc_id,
  CASE WHEN m = 0 THEN 'und' {case} END AS pred_lang FROM p)
SELECT pred_lang, COUNT(*)::BIGINT AS n FROM pred GROUP BY pred_lang
"""


def sql_fingerprints() -> str:
    """Min-over-windows polynomial fingerprint (functions/text.py
    fingerprint6): degree-5 polynomial in codepoints, base 131."""
    pows = [131 ** p for p in range(5, -1, -1)]
    terms = " + ".join(
        f"unicode(substr(text, g + {j}, 1))::BIGINT * {pows[j]}"
        if pows[j] != 1 else f"unicode(substr(text, g + {j}, 1))::BIGINT"
        for j in range(6))
    return f"""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
gs AS (SELECT g FROM generate_series(1, 8192) t(g)),
h AS (SELECT doc_id, {terms} AS v
      FROM d JOIN gs ON g <= L - 5)
SELECT d.doc_id, COALESCE(MIN(h.v), -1) AS fingerprint
FROM d LEFT JOIN h ON d.doc_id = h.doc_id
GROUP BY d.doc_id
"""


# ---------------------------------------------------------------------------
# raster family (closed-form pixel reconstruction, lossless PNG rows)
# ---------------------------------------------------------------------------

def sql_raster_stats(n: int = 128) -> str:
    return sql_pixels_cte(n) + """
SELECT image_id, ROUND(AVG(v0), 4) AS mean_b0,
       MIN(v0)::DOUBLE AS min_b0, MAX(v0)::DOUBLE AS max_b0
FROM px GROUP BY image_id
"""


def sql_heif_roundtrip(n: int = 32) -> str:
    """HEIF uncompressed roundtrip: band-0 stats (lossless, as
    sql_raster_stats) plus the roundtripped geotransform origin
    (closed-form x0 from the georef generator)."""
    return sql_pixels_cte(n) + """
, st AS (SELECT image_id, ROUND(AVG(v0), 4) AS mean_b0,
         MIN(v0)::DOUBLE AS min_b0, MAX(v0)::DOUBLE AS max_b0
         FROM px GROUP BY image_id)
SELECT st.*, ROUND(i.x0, 4) AS gt_x0
FROM st JOIN imgs i USING (image_id)
"""


def sql_cog_roundtrip(n: int = 48) -> str:
    """COG roundtrip: band stats (as sql_raster_stats) + analytic
    overview-level count. With ceil-halving, the minimal k with
    ceil(maxdim / 2^k) <= 256 is exactly max(0, ceil(log2(maxdim/256)))
    — so n_levels is closed-form from the dims cycle."""
    return sql_pixels_cte(n) + """
, st AS (SELECT image_id, ROUND(AVG(v0), 4) AS mean_b0,
         MIN(v0)::DOUBLE AS min_b0, MAX(v0)::DOUBLE AS max_b0
         FROM px GROUP BY image_id)
SELECT st.*,
       (1 + greatest(0, CAST(ceil(log2(greatest(i.w, i.h) / 256.0))
                             AS BIGINT)))::BIGINT AS n_levels,
       TRUE AS cog_ok
FROM st JOIN imgs i USING (image_id)
"""


def sql_raster_histogram(n: int = 128, bins: int = 16) -> str:
    return sql_pixels_cte(n) + f"""
SELECT (v0 // {256 // bins}) AS bin, COUNT(*)::BIGINT AS count
FROM px GROUP BY 1
"""


def sql_norm_diff(n: int = 128) -> str:
    return sql_pixels_cte(n) + """
SELECT image_id,
       ROUND(AVG(CASE WHEN v0 + v1 <> 0
                 THEN (v0 - v1)::DOUBLE / (v0 + v1) END), 4) AS mean_nd
FROM px GROUP BY image_id
"""


def sql_footprint(n: int = 96, threshold: int = 100) -> str:
    """Footprint area (pixel units) == count of mask pixels: the traced
    outline polygon (with holes) of a binary mask encloses exactly the
    mask's pixels."""
    return sql_pixels_cte(n) + f"""
SELECT image_id, COALESCE(SUM(CASE WHEN v0 > {threshold} THEN 1 END), 0)::DOUBLE
       AS fp_area
FROM px GROUP BY image_id
"""


def sql_interpolate_at_points(n: int = 96) -> str:
    """Bilinear sample of band 0 at each image's center: pixel-center
    convention puts the sample midway between the four pixels around
    (w/2, h/2); replicate interpolate_at_point's exact weights."""
    # col = w/2 → fx = w/2 - 0.5; x0 = floor(fx); tx = fx - x0
    return f"""
WITH {sql_images_cte(n, png_only=True)},
c AS (SELECT image_id, a, b, w, h,
             CAST(floor(w / 2.0 - 0.5) AS BIGINT) AS px0,
             CAST(floor(h / 2.0 - 0.5) AS BIGINT) AS py0,
             (w / 2.0 - 0.5) - floor(w / 2.0 - 0.5) AS tx,
             (h / 2.0 - 0.5) - floor(h / 2.0 - 0.5) AS ty
      FROM imgs),
v AS (SELECT image_id,
  ((a * px0 + b * py0) % 256)             * (1 - tx) * (1 - ty)
+ ((a * least(px0 + 1, w - 1) + b * py0) % 256)       * tx * (1 - ty)
+ ((a * px0 + b * least(py0 + 1, h - 1)) % 256)       * (1 - tx) * ty
+ ((a * least(px0 + 1, w - 1) + b * least(py0 + 1, h - 1)) % 256) * tx * ty
  AS val
  FROM c)
SELECT image_id, ROUND(val, 4) AS center_val FROM v
"""


def sql_pipeline_dsl(n: int = 64, min_w: int = 256) -> str:
    """read_images ! georef ! filter w>=256 ! select — dims + placement
    are closed-form."""
    return f"""
WITH {sql_images_cte(n)}
SELECT image_id, w::INTEGER AS w, h::INTEGER AS h,
       x0 AS minx, y1 AS maxy
FROM imgs WHERE w >= {min_w}
"""


# ---------------------------------------------------------------------------
# vector family (closed-form polygon generator, sources/vector.py)
# ---------------------------------------------------------------------------

def sql_polygons_cte(m: int, name: str = "polys") -> str:
    """CTE of polygon params for fid 0..m-1: center, size, shape class.
    Mirrors sources/vector.py make_polygon."""
    x_expr, y_expr = G.sql_point_xy("(fid * 3 + 1)")
    return f"""
{name} AS (
  SELECT fid, {x_expr} AS cx, {y_expr} AS cy,
         5000.0 * (1 + (fid * 7) % 5) AS s,
         fid % 5 AS k
  FROM (SELECT g AS fid FROM generate_series(0, {m - 1}) t(g))
)"""


def sql_polygon_area_expr() -> str:
    """Closed-form area per shape class k (size s):
    k=0 square (2s)^2; k=1 rotated square 2s^2; k=2 L-shape 3s^2;
    k=3 square minus (2s/3)^2 hole; k=4 two s-squares."""
    return ("CASE k WHEN 0 THEN 4*s*s WHEN 1 THEN 2*s*s WHEN 2 THEN 3*s*s "
            "WHEN 3 THEN 4*s*s - (2.0*s/3)*(2.0*s/3) ELSE 2*s*s END")


def sql_pip_expr(px: str = "qx", py: str = "qy") -> str:
    """Point-in-polygon predicate for the generator's 5 shape classes,
    replicating geom.points_in_polygon's convention exactly: inside OR
    on the outer boundary counts; only the strict interior of a hole is
    excluded. The synthetic grids are dyadic-aligned, so boundary hits
    are exact float equalities, not measure-zero events."""
    return f"""(
  CASE k
    WHEN 0 THEN abs({px} - cx) <= s AND abs({py} - cy) <= s
    WHEN 1 THEN abs({px} - cx) + abs({py} - cy) <= s
    WHEN 2 THEN abs({px} - cx) <= s AND abs({py} - cy) <= s
             AND NOT ({px} - cx > 0 AND {py} - cy > 0)
    WHEN 3 THEN abs({px} - cx) <= s AND abs({py} - cy) <= s
             AND NOT (abs({px} - cx) < s/3 AND abs({py} - cy) < s/3)
    ELSE ({px} >= cx - s AND {px} <= cx AND {py} >= cy - s AND {py} <= cy)
      OR ({px} >= cx + 1.5*s AND {px} <= cx + 2.5*s
          AND {py} >= cy + 1.5*s AND {py} <= cy + 2.5*s)
  END)"""


def sql_vector_ops(m: int = 40) -> str:
    """Segmentize → area/centroid: segmentize inserts vertices but
    leaves area and centroid invariant; both are closed-form per shape
    class."""
    # centroid: k=0,1,3 symmetric → (cx, cy).
    # k=2 L-shape: 3 unit squares (s/2 centers): mean of (-s/2,-s/2),
    #   (s/2,-s/2), (-s/2,s/2) → (cx - s/6, cy - s/6).
    # k=4 two squares: centers (cx-s/2, cy-s/2) and (cx+2s, cy+2s)
    #   → (cx + 0.75s, cy + 0.75s).
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2,
       ROUND(CASE k WHEN 2 THEN cx - s/6.0 WHEN 4 THEN cx + 0.75*s
             ELSE cx END, 3) AS centroid_x,
       ROUND(CASE k WHEN 2 THEN cy - s/6.0 WHEN 4 THEN cy + 0.75*s
             ELSE cy END, 3) AS centroid_y
FROM polys
"""


def sql_buffer_explode(m: int = 40) -> str:
    """Explode collections → one row per part with area. Only k=4 rows
    are multipolygons (2 parts of s^2 each); all other classes emit one
    part with the class area (holes stay with their outer ring)."""
    area = sql_polygon_area_expr()
    return f"""
WITH {sql_polygons_cte(m)},
parts AS (
  SELECT fid, 0 AS part_index,
         CASE WHEN k = 4 THEN s*s ELSE {area} END AS area
  FROM polys
  UNION ALL
  SELECT fid, 1 AS part_index, s*s AS area FROM polys WHERE k = 4
)
SELECT fid, part_index, ROUND(area / 1e6, 3) AS area_km2 FROM parts
"""


def sql_layer_intersection_total(m: int = 30) -> str:
    """Tile rects partition the plane → per-feature intersection areas
    sum to the feature's area (closed form)."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid, ROUND({sql_polygon_area_expr()} / 1e6, 3) AS total_area_km2
FROM polys
"""


def sql_layer_clip_erase(m: int = 30) -> str:
    """clip_area + erased_area == feature area (complementarity of
    Clip/Erase against the same rectangle)."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid, ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_total
FROM polys
"""


def sql_raster_calc(n: int = 96) -> str:
    """Band algebra "(A - B) / (A + B + 1) * 100 + C / 2" → per-image
    mean (denominator ≥ 1, so no NaN path)."""
    return sql_pixels_cte(n) + """
SELECT image_id,
       ROUND(AVG((v0 - v1)::DOUBLE / (v0 + v1 + 1) * 100 + v2 / 2.0), 4)
         AS mean_calc
FROM px GROUP BY image_id
"""


def sql_pansharpen(n: int = 96) -> str:
    """Weighted Brovey (alg/gdalpansharpen.cpp:471-520): pan is the
    synthetic sensor 0.5·v0+0.25·v1+0.25·v2, pseudo-pan weights
    (0.25, 0.5, 0.25) — all exact in binary, so the only inexact ops
    (divide, multiply, AVG) are shared bit-for-bit with numpy up to
    summation order, absorbed by the 4-decimal round."""
    return sql_pixels_cte(n) + """,
ps AS (
  SELECT image_id, v0, v1, v2,
         0.5 * v0 + 0.25 * v1 + 0.25 * v2  AS pan,
         v0 * 0.25 + v1 * 0.5 + v2 * 0.25  AS pseudo
  FROM px
)
SELECT image_id,
       ROUND(AVG(CASE WHEN pseudo = 0 THEN 0.0 ELSE v0 * pan / pseudo END), 4) AS mean_ps0,
       ROUND(AVG(CASE WHEN pseudo = 0 THEN 0.0 ELSE v1 * pan / pseudo END), 4) AS mean_ps1,
       ROUND(AVG(CASE WHEN pseudo = 0 THEN 0.0 ELSE v2 * pan / pseudo END), 4) AS mean_ps2
FROM ps GROUP BY image_id
"""


def sql_geojson_roundtrip(m: int = 25) -> str:
    """GeoJSON write→read roundtrip is lossless (repr floats), so areas
    equal the closed-form shape-class areas."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid, ROUND({sql_polygon_area_expr()}, 2) AS area
FROM polys
"""


def sql_rasterize_zones(m: int = 30, zoom: int = 6) -> str:
    """Scanline-burn pixel counts: pixels of the global z{{zoom}}
    256px-tile lattice whose CENTERS fall inside each polygon.

    The lattice center at integer index X is
    -ORIGIN_SHIFT + (X + 0.5) * res with res = 2*OS / (2^z * 256)."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    res = 2 * OS / ((1 << zoom) * 256)
    return f"""
WITH {sql_polygons_cte(m)},
span AS (SELECT g AS d FROM generate_series(0, 63) t(g)),
base AS (SELECT fid, cx, cy, s, k,
    CAST(floor((cx - s + {OS!r}) / {res!r}) AS BIGINT) - 1 AS xb,
    CAST(floor((cy - s + {OS!r}) / {res!r}) AS BIGINT) - 1 AS yb,
    CASE WHEN k = 4 THEN 2.5*s ELSE s END AS xhi
  FROM polys),
cand AS (SELECT fid, cx, cy, s, k,
    -{OS!r} + ((xb + dx.d) + 0.5) * {res!r} AS qx,
    -{OS!r} + ((yb + dy.d) + 0.5) * {res!r} AS qy
  FROM base, span dx(d), span dy(d)
  WHERE (xb + dx.d + 0.5) * {res!r} - {OS!r} <= cx + xhi + {res!r}
    AND (yb + dy.d + 0.5) * {res!r} - {OS!r} <= cy + (CASE WHEN k = 4 THEN 2.5*s ELSE s END) + {res!r})
SELECT fid, COALESCE(SUM(CASE WHEN {sql_pip_expr()} THEN 1 END), 0)::BIGINT
       AS total_px
FROM cand GROUP BY fid
"""


def sql_polygonize_roundtrip(m: int = 20) -> str:
    """Rasterize→polygonize roundtrip: traced polygon area equals burned
    pixel count × cell area on the per-feature 66×66 grid (padding res =
    env_size/64). Both output columns equal count * sx * sy."""
    return f"""
WITH {sql_polygons_cte(m)},
grid AS (SELECT fid, cx, cy, s, k,
    CASE WHEN k = 4 THEN 3.5*s ELSE 2*s END AS ew,
    CASE WHEN k = 4 THEN cx - s ELSE cx - s END AS e0,
    CASE WHEN k = 4 THEN cy - s ELSE cy - s END AS e1
  FROM polys),
g2 AS (SELECT *, ew / 64.0 AS res,
       (ew + 2 * (ew / 64.0)) / 66.0 AS sx,
       (ew + 2 * (ew / 64.0)) / 66.0 AS sy,
       e0 - ew / 64.0 AS gx0,
       e1 + ew + ew / 64.0 AS gy1
  FROM grid),
span AS (SELECT g AS d FROM generate_series(0, 65) t(g)),
cand AS (SELECT fid, cx, cy, s, k, sx, sy,
    gx0 + (dx.d + 0.5) * sx AS qx,
    gy1 - (dy.d + 0.5) * sy AS qy
  FROM g2, span dx(d), span dy(d)),
cnt AS (SELECT fid, sx, sy,
    COALESCE(SUM(CASE WHEN {sql_pip_expr()} THEN 1 END), 0) AS n
  FROM cand GROUP BY fid, sx, sy)
SELECT fid, ROUND(n * sx * sy / 1e6, 3) AS pixel_area_km2,
       ROUND(n * sx * sy / 1e6, 3) AS polygon_area_km2
FROM cnt
"""


def sql_cutline_clip(n: int = 96, m: int = 40) -> str:
    """Per-image kept-pixel count after clipping to the FIRST (lowest
    fid) polygon whose envelope overlaps the image's: count of image
    pixel centers inside that polygon."""
    return f"""
WITH {sql_images_cte(n)},
{sql_polygons_cte(m)},
penv AS (SELECT fid, cx, cy, s, k,
    cx - s AS pminx, cy - s AS pminy,
    CASE WHEN k = 4 THEN cx + 2.5*s ELSE cx + s END AS pmaxx,
    CASE WHEN k = 4 THEN cy + 2.5*s ELSE cy + s END AS pmaxy
  FROM polys),
ienv AS (SELECT i, image_id, w, h, res, x0, y1,
    x0 AS iminx, y1 - h * res AS iminy,
    x0 + w * res AS imaxx, y1 AS imaxy
  FROM imgs),
match AS (SELECT ienv.*, p.fid, p.cx, p.cy, p.s, p.k,
    row_number() OVER (PARTITION BY i ORDER BY p.fid) AS rn
  FROM ienv JOIN penv p
    ON NOT (p.pminx > imaxx OR iminx > p.pmaxx
         OR p.pminy > imaxy OR iminy > p.pmaxy)),
first AS (SELECT * FROM match WHERE rn = 1),
span AS (SELECT g AS d FROM generate_series(0, 511) t(g)),
cand AS (SELECT f.image_id, f.cx, f.cy, f.s, f.k,
    f.x0 + (dx.d + 0.5) * f.res AS qx,
    f.y1 - (dy.d + 0.5) * f.res AS qy
  FROM first f JOIN span dx(d) ON dx.d < f.w JOIN span dy(d) ON dy.d < f.h),
cnt AS (SELECT image_id,
    COALESCE(SUM(CASE WHEN {sql_pip_expr()} THEN 1 END), 0) AS kept
  FROM cand GROUP BY image_id)
SELECT ienv.image_id, COALESCE(cnt.kept, 0)::BIGINT AS kept_px
FROM ienv LEFT JOIN cnt ON ienv.image_id = cnt.image_id
"""


def sql_morton_cell(zoom: int, tx: str, ty_xyz: str) -> str:
    """cell_id(zoom, tx, ty_xyz) = zoom<<58 | interleave(tx, ty) as a
    BIGINT expression (bit-by-bit interleave, zoom bits ≤ 29)."""
    nbits = zoom if zoom > 0 else 1
    terms = []
    for kbit in range(nbits):
        terms.append(f"(((({tx}) >> {kbit}) & 1) << {2 * kbit})")
        terms.append(f"(((({ty_xyz}) >> {kbit}) & 1) << {2 * kbit + 1})")
    return f"(({zoom}::BIGINT << 58) | (" + " | ".join(terms) + "))"


def sql_spatial_sort(zoom: int = 10, n_chunks: int = 64) -> str:
    """Hilbert-ish locality sort digest: events ordered by Morton cell
    id (then event_id), split into ~64 equal chunks, per-chunk cell
    range."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    x_expr, y_expr = G.sql_point_xy("event_id")
    tx_e, ty_e = G.sql_tile_xy("px.x", "px.y", zoom)
    cell = sql_morton_cell(zoom, "t.tx", "t.ty")
    return f"""
WITH px AS (SELECT event_id, {x_expr} AS x, {y_expr} AS y FROM events),
t AS (SELECT event_id, {tx_e} AS tx, {ty_e} AS ty FROM px),
c AS (SELECT event_id, {cell} AS cell FROM t),
r AS (SELECT cell, row_number() OVER (ORDER BY cell, event_id) - 1 AS rn,
             COUNT(*) OVER () AS n
      FROM c),
k AS (SELECT *, greatest(n // {n_chunks}, 1) AS ck FROM r)
SELECT (rn // ck)::BIGINT AS chunk,
       MIN(cell)::BIGINT AS cell_min, MAX(cell)::BIGINT AS cell_max,
       COUNT(*)::BIGINT AS n_rows
FROM k GROUP BY 1
"""


def sql_raster_index(n: int = 128, zoom: int = 6) -> str:
    """Per-cell manifest: covering z6 cells per image envelope
    (mercator.cover_envelopes semantics: eps-nudged corner tiles,
    inclusive tile range, degenerate ranges collapse to the min
    corner's tile), aggregated per cell."""
    from ..core import mercator as M
    OS = M.ORIGIN_SHIFT
    res = float(M.resolution(zoom))
    eps = res * 1e-6
    ntiles = 1 << zoom

    def tile_of(v):
        return (f"least(greatest(CAST(ceil((({v}) + {OS!r}) / {res!r} / 256.0)"
                f" AS BIGINT) - 1, 0), {ntiles - 1})")

    cell = sql_morton_cell(zoom, "tx", f"({ntiles - 1} - ty_tms)")
    return f"""
WITH {sql_images_cte(n)},
env AS (SELECT i, image_id, w, h,
    (w::BIGINT * h)::BIGINT AS n_px,
    x0 AS minx, y1 - h * res AS miny, x0 + w * res AS maxx, y1 AS maxy
  FROM imgs),
rng AS (SELECT *,
    {tile_of(f"minx + {eps!r}")} AS tx0, {tile_of(f"maxx - {eps!r}")} AS tx1r,
    {tile_of(f"miny + {eps!r}")} AS ty0, {tile_of(f"maxy - {eps!r}")} AS ty1r
  FROM env),
rng2 AS (SELECT *, greatest(tx1r, tx0) AS tx1, greatest(ty1r, ty0) AS ty1
  FROM rng),
span AS (SELECT g FROM generate_series(0, 7) t(g)),
cov AS (SELECT r.n_px, r.minx, r.miny, r.maxx, r.maxy,
               r.tx0 + sx.g AS tx, r.ty0 + sy.g AS ty_tms
  FROM rng2 r
  JOIN span sx ON r.tx0 + sx.g <= r.tx1
  JOIN span sy ON r.ty0 + sy.g <= r.ty1)
SELECT {cell} AS cell, COUNT(*)::BIGINT AS n_images,
       SUM(n_px)::BIGINT AS total_px,
       MIN(minx) AS minx, MIN(miny) AS miny,
       MAX(maxx) AS maxx, MAX(maxy) AS maxy
FROM cov GROUP BY 1
"""


def _sql_cover_base_cte(n: int, zoom: int) -> str:
    """Shared WITH-body ending in ``base`` = the DISTINCT covering XYZ
    tiles at `zoom` over the n-image corpus (cover_envelopes
    semantics, as sql_raster_index)."""
    from ..core import mercator as M
    OS = M.ORIGIN_SHIFT
    res = float(M.resolution(zoom))
    eps = res * 1e-6
    ntiles = 1 << zoom

    def tile_of(v):
        return (f"least(greatest(CAST(ceil((({v}) + {OS!r}) / {res!r} / 256.0)"
                f" AS BIGINT) - 1, 0), {ntiles - 1})")

    return f"""{sql_images_cte(n)},
env AS (SELECT x0 AS minx, y1 - h * res AS miny,
               x0 + w * res AS maxx, y1 AS maxy FROM imgs),
rng AS (SELECT *,
    {tile_of(f"minx + {eps!r}")} AS tx0, {tile_of(f"maxx - {eps!r}")} AS tx1r,
    {tile_of(f"miny + {eps!r}")} AS ty0, {tile_of(f"maxy - {eps!r}")} AS ty1r
  FROM env),
rng2 AS (SELECT *, greatest(tx1r, tx0) AS tx1, greatest(ty1r, ty0) AS ty1
  FROM rng),
span AS (SELECT g FROM generate_series(0, 7) t(g)),
base AS (SELECT DISTINCT r.tx0 + sx.g AS x,
                {ntiles - 1} - (r.ty0 + sy.g) AS y
  FROM rng2 r
  JOIN span sx ON r.tx0 + sx.g <= r.tx1
  JOIN span sy ON r.ty0 + sy.g <= r.ty1)"""


def sql_mbtiles_roundtrip(n: int = 128, zoom: int = 6) -> str:
    """MBTiles roundtrip: covering tiles at `zoom` plus their zoom-1
    parents (x//2, y//2 in XYZ). The Ray side wrote these through a
    sqlite .mbtiles (TMS rows) and read them back, so equality proves
    cover math AND the container's y-flip/rowcount."""
    return f"""
WITH {_sql_cover_base_cte(n, zoom)}
SELECT {zoom}::BIGINT AS z, x::BIGINT AS x, y::BIGINT AS y FROM base
UNION ALL
SELECT {zoom - 1}::BIGINT, px::BIGINT, py::BIGINT
FROM (SELECT DISTINCT x // 2 AS px, y // 2 AS py FROM base)
"""


def sql_kml_superoverlay(n: int = 128, zoom: int = 6) -> str:
    """KML superoverlay read-back: one row per written z/x/y.kml with
    its NetworkLink (child) count. Deepest level links nothing; each
    zoom-1 parent links its existing children — COUNT(*) over the
    already-DISTINCT base grouped by parent."""
    return f"""
WITH {_sql_cover_base_cte(n, zoom)}
SELECT {zoom}::BIGINT AS z, x::BIGINT AS x, y::BIGINT AS y,
       0::BIGINT AS n_links
FROM base
UNION ALL
SELECT {zoom - 1}::BIGINT, x // 2, y // 2, COUNT(*)::BIGINT
FROM base GROUP BY x // 2, y // 2
"""


def sql_layer_setops(m_a: int = 30, m_b: int = 40) -> str:
    """Pairwise layer-algebra set-op areas: polygons (classes 0,2,3,4 —
    every non-rotated class, incl. concave L, hole and multipolygon)
    × axis-aligned boxes. Each A class decomposes into ≤2 SIGNED
    axis-aligned boxes, so inter/union/symdiff areas are exact box
    algebra in SQL."""
    bx, by = G.sql_point_xy("(fid * 5 + 2)")
    area_a = sql_polygon_area_expr()
    return f"""
WITH {sql_polygons_cte(m_a)},
pa2 AS (SELECT fid, cx, cy, s, k, {area_a} AS area_a FROM polys
        WHERE k <> 1),
-- signed axis-box decomposition of each A class
apieces AS (
  SELECT fid, area_a, 1.0 AS sgn, cx - s AS x0, cy - s AS y0,
         cx + s AS x1, CASE WHEN k = 4 THEN cy ELSE cy + s END AS y1,
         k FROM pa2 WHERE k IN (0, 2, 3)
  UNION ALL   -- k=2: minus top-right quadrant
  SELECT fid, area_a, -1.0, cx, cy, cx + s, cy + s, k
  FROM pa2 WHERE k = 2
  UNION ALL   -- k=3: minus center hole
  SELECT fid, area_a, -1.0, cx - s/3, cy - s/3, cx + s/3, cy + s/3, k
  FROM pa2 WHERE k = 3
  UNION ALL   -- k=4: two boxes
  SELECT fid, area_a, 1.0, cx - s, cy - s, cx, cy, k FROM pa2 WHERE k = 4
  UNION ALL
  SELECT fid, area_a, 1.0, cx + 1.5*s, cy + 1.5*s, cx + 2.5*s, cy + 2.5*s, k
  FROM pa2 WHERE k = 4
),
boxes AS (
  SELECT fid AS fid_b, {bx} AS bcx, {by} AS bcy,
         4000.0 * (1 + (fid * 11) % 3) AS bs
  FROM (SELECT g AS fid FROM generate_series(0, {m_b - 1}) t(g))),
b2 AS (SELECT fid_b, bcx - bs AS bx0, bcy - bs AS by0,
              bcx + bs AS bx1, bcy + bs AS by1,
              4.0 * bs * bs AS area_b FROM boxes),
inter AS (
  SELECT p.fid AS fid_a, b.fid_b, p.area_a, b.area_b,
         SUM(p.sgn * greatest(0.0, least(p.x1, b.bx1) - greatest(p.x0, b.bx0))
                   * greatest(0.0, least(p.y1, b.by1) - greatest(p.y0, b.by0)))
           AS i
  FROM apieces p JOIN b2 b
    ON p.x0 <= b.bx1 AND b.bx0 <= p.x1 AND p.y0 <= b.by1 AND b.by0 <= p.y1
  GROUP BY 1, 2, 3, 4)
SELECT fid_a, fid_b,
       ROUND(i / 1e6, 3) AS inter_km2,
       ROUND((area_a + area_b - i) / 1e6, 3) AS union_km2,
       ROUND((area_a + area_b - 2 * i) / 1e6, 3) AS symdiff_km2
FROM inter WHERE i > 1.0
"""


def sql_idw_grid(k: int = 400, n: int = 64) -> str:
    """IDW (power 2, no radius) quadrant means over the metro box:
    points and grid centers are closed-form; the IDW quotient is plain
    SQL arithmetic (sin() is bit-identical between numpy and DuckDB's
    libm on this platform — verified empirically)."""
    xw, yw = G.sql_point_xy("(i * 7 + 3)")
    ux = G.sql_unit_hash("i", 97003)
    uy = G.sql_unit_hash("i", 57301)
    MX0, MY0, MW = G.METRO_X0, G.METRO_Y0, G.METRO_W
    res = MW / n
    return f"""
WITH pts0 AS (
  SELECT i,
    CASE WHEN i % 5 = 2 THEN {MX0!r} + {ux} * {MW!r} ELSE {xw} END AS x,
    CASE WHEN i % 5 = 2 THEN {MY0!r} + {uy} * {MW!r} ELSE {yw} END AS y,
    sin(i::DOUBLE) AS v
  FROM (SELECT g AS i FROM generate_series(0, {k - 1}) t(g))),
pts AS (SELECT * FROM pts0
        WHERE x >= {MX0!r} AND x <= {MX0 + MW!r}
          AND y >= {MY0!r} AND y <= {MY0 + MW!r}),
cells AS (
  SELECT cx.g AS col, cy.g AS row,
         {MX0!r} + (cx.g + 0.5) * {res!r} AS gx,
         {MY0 + MW!r} - (cy.g + 0.5) * {res!r} AS gy
  FROM generate_series(0, {n - 1}) cx(g), generate_series(0, {n - 1}) cy(g)),
idw AS (
  SELECT col, row,
         SUM(v / ((gx - x) * (gx - x) + (gy - y) * (gy - y)))
         / SUM(1.0 / ((gx - x) * (gx - x) + (gy - y) * (gy - y))) AS val
  FROM cells CROSS JOIN pts GROUP BY col, row)
SELECT ((row // 32) * 2 + (col // 32))::BIGINT AS quadrant,
       ROUND(AVG(val), 4) AS mean_val
FROM idw GROUP BY 1
"""


def sql_zonal_raster(n_img: int = 128, m_poly: int = 60) -> str:
    """Zonal statistics closed form: per-polygon count/sum/min/max/mean
    of band-0 values of every lossless image pixel whose CENTER lies in
    the polygon (same inside-or-on-boundary convention as the burn)."""
    return f"""
WITH {sql_images_cte(n_img, png_only=True)},
{sql_polygons_cte(m_poly)},
penv AS (SELECT fid, cx, cy, s, k,
    cx - s AS pminx, cy - s AS pminy,
    CASE WHEN k = 4 THEN cx + 2.5*s ELSE cx + s END AS pmaxx,
    CASE WHEN k = 4 THEN cy + 2.5*s ELSE cy + s END AS pmaxy
  FROM polys),
ienv AS (SELECT i, a, b, w, h, res, x0, y1,
    x0 AS iminx, y1 - h * res AS iminy, x0 + w * res AS imaxx, y1 AS imaxy
  FROM imgs),
pairs AS (SELECT ienv.*, p.fid, p.cx, p.cy, p.s, p.k
  FROM ienv JOIN penv p
    ON NOT (p.pminx > imaxx OR iminx > p.pmaxx
         OR p.pminy > imaxy OR iminy > p.pmaxy)),
span AS (SELECT g AS d FROM generate_series(0, 511) t(g)),
cand AS (SELECT pr.fid, pr.cx, pr.cy, pr.s, pr.k,
    (pr.a * dx.d + pr.b * dy.d) % 256 AS v,
    pr.x0 + (dx.d + 0.5) * pr.res AS qx,
    pr.y1 - (dy.d + 0.5) * pr.res AS qy
  FROM pairs pr
  JOIN span dx(d) ON dx.d < pr.w
  JOIN span dy(d) ON dy.d < pr.h),
hit AS (SELECT fid, v FROM cand WHERE {sql_pip_expr()})
SELECT fid, ROUND(SUM(v)::DOUBLE, 4) AS pixel_sum,
       COUNT(*)::BIGINT AS pixel_count,
       MIN(v)::DOUBLE AS pixel_min, MAX(v)::DOUBLE AS pixel_max,
       ROUND(SUM(v)::DOUBLE / COUNT(*), 4) AS pixel_mean
FROM hit GROUP BY fid
"""


def sql_hillshade(n: int = 128) -> str:
    """Horn hillshade interior mean: each interior pixel's 3×3 neighbor
    values are closed-form, so dzdx/dzdy and the full shade formula
    (gdaldem Horn kernel, az=315 alt=45) replay exactly in SQL (libm
    trig parity verified to 1e-15 on this platform)."""
    v = "((a * ({x}) + b * ({y})) % 256)"

    def vv(dx, dy):
        return v.format(x=f"gx + {dx}", y=f"gy + {dy}")

    dzdx = (f"(({vv(1,-1)} + 2 * {vv(1,0)} + {vv(1,1)}) "
            f"- ({vv(-1,-1)} + 2 * {vv(-1,0)} + {vv(-1,1)})) / 8.0")
    dzdy = (f"(({vv(-1,1)} + 2 * {vv(0,1)} + {vv(1,1)}) "
            f"- ({vv(-1,-1)} + 2 * {vv(0,-1)} + {vv(1,-1)})) / 8.0")
    return f"""
WITH {sql_images_cte(n, png_only=True)},
gxs AS (SELECT g AS gx FROM generate_series(1, 510) t(g)),
gys AS (SELECT g AS gy FROM generate_series(1, 510) t(g)),
grad AS (
  SELECT image_id, {dzdx} AS p, {dzdy} AS q
  FROM imgs JOIN gxs ON gx < w - 1 JOIN gys ON gy < h - 1),
sh AS (
  SELECT image_id,
         sin(pi()/4) * cos(atan(sqrt(p*p + q*q)))
       + cos(pi()/4) * sin(atan(sqrt(p*p + q*q)))
         * cos(radians(135.0) - atan2(q, -p)) AS shade
  FROM grad)
SELECT image_id, ROUND(AVG(shade), 4) AS mean_shade
FROM sh GROUP BY image_id
"""


def sql_mosaic(n_img: int = 96, W: int = 512) -> str:
    """Mosaic composite oracle (rank-wins nearest sampling onto the
    metro grid, ~10 overlapping hot-cluster sources): covered pixels
    and distinct winning sources. Every coordinate step mirrors the
    engine's float op order exactly (affine inverse/composition, floor
    sampling), so pixel membership is bit-identical; band VALUES of the
    lossy half are PSNR/pytest-covered, hence no checksum column."""
    from ..core import geotransform as gtr
    MX0, MY0, MW = G.METRO_X0, G.METRO_Y0, G.METRO_W
    dst_gt = gtr.from_bounds(MX0, MY0, MX0 + MW, MY0 + MW, W, W)
    D0, DRX, D3, DRY = (repr(dst_gt[0]), repr(dst_gt[1]),
                        repr(dst_gt[3]), repr(dst_gt[5]))
    return f"""
WITH {sql_images_cte(n_img)},
aff AS (
  SELECT i, a, b, w, h,
         (0.0 - res) * (1.0 / (res * (0.0 - res))) AS ia,
         res * (1.0 / (res * (0.0 - res))) AS ie,
         x0, y1
  FROM imgs),
m AS (
  SELECT i, a, b, w, h,
         -(x0 * ia) + ia * {D0} AS m0, ia * {DRX} AS m1,
         -(y1 * ie) + ie * {D3} AS m3, ie * {DRY} AS m5,
         x0, y1, ia, ie
  FROM aff
  WHERE NOT (x0 > {MX0 + MW!r} OR {MX0!r} > x0 + w * (1.0/ia)
          OR y1 < {MY0!r} OR {MY0 + MW!r} < y1 - h * (1.0/ie))),
span AS (SELECT g AS d FROM generate_series(0, {W - 1}) t(g)),
samp AS (
  SELECT px.d AS gx, py.d AS gy, m.i,
         CAST(floor(m.m0 + m.m1 * (px.d + 0.5)) AS BIGINT) AS ix,
         CAST(floor(m.m3 + m.m5 * (py.d + 0.5)) AS BIGINT) AS iy,
         m.w, m.h
  FROM m, span px(d), span py(d)),
valid AS (
  SELECT gx, gy, i
  FROM samp WHERE ix >= 0 AND ix < w AND iy >= 0 AND iy < h),
win AS (SELECT gx, gy, MAX(i) AS wi FROM valid GROUP BY gx, gy)
SELECT (SELECT COUNT(*) FROM win)::BIGINT AS covered_px,
       (SELECT COUNT(DISTINCT wi) FROM win)::BIGINT AS n_sources
"""


def sql_vector_drivers(m: int = 25) -> str:
    """CSV, GeoPackage and KML roundtrips are lossless (KML writes
    shortest-exact-repr coordinates) → per-driver areas equal the
    closed-form shape-class areas."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_csv,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_gpkg,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_kml
FROM polys
"""


def fgb_query_bbox(m: int = 40):
    """Deterministic query window for the fgb_roundtrip battery row:
    quantiles of the closed-form polygon envelopes (same numbers are
    inlined into the SQL oracle and used by the Ray query)."""
    import numpy as np
    from ..sources.vector import polygons_table
    t = polygons_table(m)
    return (float(np.quantile(t["minx"].to_numpy(), 0.25)),
            float(np.quantile(t["miny"].to_numpy(), 0.25)),
            float(np.quantile(t["maxx"].to_numpy(), 0.60)),
            float(np.quantile(t["maxy"].to_numpy(), 0.60)))


def sql_fgb_roundtrip(m: int = 40) -> str:
    """FlatGeobuf write→read is lossless (f64 coords bit-exact), so
    roundtripped areas equal the closed-form shape-class areas; the
    packed-R-tree bbox search returns exactly the envelope-intersecting
    features (closed-form envelopes per shape class: ±s around the
    center, class 4 extends to cx+2.5s / cy+2.5s)."""
    bx0, by0, bx1, by1 = fgb_query_bbox(m)
    return f"""
WITH {sql_polygons_cte(m)},
env AS (
  SELECT fid, {sql_polygon_area_expr()} AS area,
         cx - s AS minx, cy - s AS miny,
         CASE WHEN k = 4 THEN cx + 2.5*s ELSE cx + s END AS maxx,
         CASE WHEN k = 4 THEN cy + 2.5*s ELSE cy + s END AS maxy
  FROM polys)
SELECT fid AS pid,
       ROUND(area / 1e6, 3) AS area_km2_fgb,
       (CASE WHEN minx <= {bx1!r} AND maxx >= {bx0!r}
             AND miny <= {by1!r} AND maxy >= {by0!r}
        THEN 1 ELSE 0 END)::BIGINT AS in_bbox
FROM env
"""


def sql_linear_grid(size: int = 64) -> str:
    """Delaunay-linear grid: every node value equals the source plane
    (barycentric interpolation is exact on affine data), so row sums
    are closed-form over node centers."""
    from ..sources import geo as G
    res = G.METRO_W / size
    return f"""
WITH rows_ AS (SELECT g AS r FROM generate_series(0, {size - 1}) t(g)),
cols_ AS (SELECT g AS c FROM generate_series(0, {size - 1}) t(g)),
nodes AS (
  SELECT r, c,
         3.0 * ((c + 0.5) * {res!r}) / 1e4
         - 2.0 * ({G.METRO_W!r} - (r + 0.5) * {res!r}) / 1e4 + 7.0 AS v
  FROM rows_, cols_)
SELECT r AS row, ROUND(SUM(v), 2) AS sum_v, COUNT(*)::BIGINT AS n
FROM nodes GROUP BY r ORDER BY r
"""


def sql_contours(n: int = 96, levels=(64, 128, 192)) -> str:
    """Marching-squares crossing conservation: the traced polylines'
    distinct vertices per level equal the number of lattice edges whose
    endpoint samples straddle the level ((v >= L) differs) — closed
    form for the gradient corpus."""
    def count(L):
        return (f"SUM(CASE WHEN gx < w - 1 AND "
                f"((v0 >= {L}) <> (((a * (gx + 1) + b * gy) % 256) >= {L})) "
                f"THEN 1 ELSE 0 END)"
                f" + SUM(CASE WHEN gy < h - 1 AND "
                f"((v0 >= {L}) <> (((a * gx + b * (gy + 1)) % 256) >= {L})) "
                f"THEN 1 ELSE 0 END)")

    cols = ",\n       ".join(
        f"({count(L)})::BIGINT AS n_cross_l{int(L)}" for L in levels)
    return sql_pixels_cte(n) + f"""
SELECT image_id,
       {cols}
FROM px GROUP BY image_id
"""


def sql_image_spatial_join(n_img: int = 200, m_poly: int = 40) -> str:
    """The flagship spatial join, recomputed closed-form: image
    footprints are axis rects; each polygon class has an exact
    rect-Intersects test (boundary touching counts, matching
    geom.intersects):
      k=0 box: closed rect overlap;
      k=1 diamond: min L1 distance from rect to center ≤ s;
      k=2 L: union of the two closed half boxes;
      k=3 box-with-hole: overlap big AND NOT strictly inside open hole;
      k=4 multipolygon: either closed box."""
    ov = ("({bx0} <= imaxx AND iminx <= {bx1} "
          "AND {by0} <= imaxy AND iminy <= {by1})")

    def box(bx0, by0, bx1, by1):
        return ov.format(bx0=bx0, by0=by0, bx1=bx1, by1=by1)

    pred = f"""(
  CASE k
    WHEN 0 THEN {box('cx - s', 'cy - s', 'cx + s', 'cy + s')}
    WHEN 1 THEN (greatest(0, cx - imaxx, iminx - cx)
               + greatest(0, cy - imaxy, iminy - cy)) <= s
    WHEN 2 THEN ({box('cx - s', 'cy - s', 'cx + s', 'cy')}
              OR {box('cx - s', 'cy - s', 'cx', 'cy + s')})
    WHEN 3 THEN {box('cx - s', 'cy - s', 'cx + s', 'cy + s')}
             AND NOT (iminx > cx - s/3 AND imaxx < cx + s/3
                  AND iminy > cy - s/3 AND imaxy < cy + s/3)
    ELSE ({box('cx - s', 'cy - s', 'cx', 'cy')}
       OR {box('cx + 1.5*s', 'cy + 1.5*s', 'cx + 2.5*s', 'cy + 2.5*s')})
  END)"""
    return f"""
WITH {sql_images_cte(n_img)},
{sql_polygons_cte(m_poly)},
ienv AS (SELECT image_id, x0 AS iminx, y1 - h * res AS iminy,
                x0 + w * res AS imaxx, y1 AS imaxy
         FROM imgs),
cats AS (SELECT fid, cx, cy, s, k,
                'zone' || fid AS name,
                CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b'
                             ELSE 'c' END AS category
         FROM polys)
SELECT i.image_id, p.fid, p.name, p.category
FROM ienv i JOIN cats p ON {pred}
"""


def sql_points_cte(k: int = 300, name: str = "pts") -> str:
    """CTE for points_table(k): position + dense-cluster override."""
    xw, yw = G.sql_point_xy("(i * 7 + 3)")
    ux = G.sql_unit_hash("i", 97003)
    uy = G.sql_unit_hash("i", 57301)
    MX0, MY0, MW = G.METRO_X0, G.METRO_Y0, G.METRO_W
    return f"""
{name} AS (
  SELECT i AS fid,
    CASE WHEN i % 5 = 2 THEN {MX0!r} + {ux} * {MW!r} ELSE {xw} END AS x,
    CASE WHEN i % 5 = 2 THEN {MY0!r} + {uy} * {MW!r} ELSE {yw} END AS y
  FROM (SELECT g AS i FROM generate_series(0, {k - 1}) t(g)))"""


def sql_image_pip(k_pts: int = 300, m_poly: int = 40) -> str:
    """Point-in-polygon join closed form (inside-or-on-boundary,
    matching geom.points_in_polygon)."""
    return f"""
WITH {sql_points_cte(k_pts)},
{sql_polygons_cte(m_poly)},
cats AS (SELECT fid, cx, cy, s, k,
                'zone' || fid AS name,
                CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b'
                             ELSE 'c' END AS category
         FROM polys)
SELECT p.fid AS pt_fid, c.fid, c.name, c.category
FROM pts p JOIN cats c ON {sql_pip_expr('p.x', 'p.y')}
"""


def sql_image_knn(k_pts: int = 300, nq: int = 10, kk: int = 3) -> str:
    """kNN join brute force: for the first nq dense-cluster points, the
    kk nearest cluster points by euclidean distance (fid tie-break)."""
    return f"""
WITH {sql_points_cte(k_pts)},
cluster AS (SELECT row_number() OVER (ORDER BY fid) - 1 AS ord, fid, x, y
            FROM pts WHERE fid % 5 = 2),
queries AS (SELECT fid AS qid, x AS qx, y AS qy FROM cluster
            WHERE ord < {nq}),
d AS (SELECT q.qid, c.fid,
             sqrt((q.qx - c.x) * (q.qx - c.x)
                + (q.qy - c.y) * (q.qy - c.y)) AS dist
      FROM queries q CROSS JOIN (SELECT fid, x, y FROM cluster) c),
r AS (SELECT qid, fid, dist,
             row_number() OVER (PARTITION BY qid
                                ORDER BY dist, fid) AS rn
      FROM d)
SELECT qid, fid, ROUND(dist, 4) AS dist FROM r WHERE rn <= {kk}
"""


def sql_image_phash_dedup(n: int = 200) -> str:
    """phash dedup closed form: phash is integer arithmetic on the
    pattern params (sources/images.py phash_of); keep MIN(image_id) per
    phash."""
    return f"""
WITH {sql_images_cte(n)},
ph AS (SELECT image_id,
        ((a::BIGINT * 1000003 + b * 10007 + c * 101 + w * 31 + h)
         * 2654435761) % {2**62} AS phash
       FROM imgs)
SELECT phash, MIN(image_id) AS image_id FROM ph GROUP BY phash
"""


def sql_gtiff_float_nodata(n: int = 32, W: int = 128,
                           nd: float = -9999.0) -> str:
    """Float32+nodata GeoTIFF pipeline oracle: values are
    ((a*x+b*y)%256)/4 cast to float32 (exact: quarter-integers ≤ 64),
    holes on (x+y)%17 == 0."""
    return f"""
WITH imgs AS (
  SELECT i, 1 + (i * 7919) % 13 AS a, 1 + (i * 104729) % 17 AS b
  FROM (SELECT g AS i FROM generate_series(0, {n - 1}) t(g))),
gxs AS (SELECT g AS gx FROM generate_series(0, {W - 1}) t(g)),
gys AS (SELECT g AS gy FROM generate_series(0, {W - 1}) t(g)),
px AS (
  SELECT i, ((a * gx + b * gy) % 256) / 4.0 AS v,
         (gx + gy) % 17 = 0 AS hole
  FROM imgs, gxs, gys)
SELECT i AS rid,
       SUM(CASE WHEN NOT hole THEN 1 ELSE 0 END)::BIGINT AS n_valid,
       ROUND(AVG(CASE WHEN NOT hole THEN v END), 4) AS mean_valid
FROM px GROUP BY i
"""


def sql_proximity(n: int = 48, crop: int = 64) -> str:
    """Exact EDT oracle: per pixel, min euclidean distance to any
    zero-valued pixel of the crop, brute-forced in SQL (floored sums;
    -1 when the crop has no target pixel)."""
    return f"""
WITH {sql_images_cte(n, png_only=True)},
gxs AS (SELECT g AS gx FROM generate_series(0, {crop - 1}) t(g)),
gys AS (SELECT g AS gy FROM generate_series(0, {crop - 1}) t(g)),
px AS (SELECT i, image_id, gx, gy, (a * gx + b * gy) % 256 AS v
       FROM imgs, gxs, gys),
tgt AS (SELECT i, gx AS tx, gy AS ty FROM px WHERE v = 0),
d AS (SELECT p.i, p.image_id, p.gx, p.gy,
             MIN(sqrt((p.gx - t.tx) * (p.gx - t.tx)
                    + (p.gy - t.ty) * (p.gy - t.ty))) AS dist
      FROM px p JOIN tgt t ON t.i = p.i
      GROUP BY p.i, p.image_id, p.gx, p.gy),
per AS (SELECT image_id,
               CAST(SUM(floor(dist + 1e-9)) AS BIGINT) AS dist_sum
        FROM d GROUP BY image_id)
SELECT img.image_id, COALESCE(per.dist_sum, -1) AS dist_sum
FROM (SELECT DISTINCT image_id FROM px) img
LEFT JOIN per ON per.image_id = img.image_id
"""


def sql_wkt_warp(n: int = 96, w: int = 96) -> str:
    """Suggested-output geometry for the WKT-constructed ellipsoidal
    Mercator warp (q_wkt_warp): Mercator is per-axis monotone, so the
    21-point edge walk collapses to the corners; x = a·λrad and
    y = a·(atanh s − e·atanh e·s) replay in SQL (atanh spelled as
    ½·ln((1+z)/(1−z)) — DuckDB lacks atanh). Expression order mirrors
    core/srs.py::Mercator.forward so both sides compute the same
    doubles; dims derive exactly like suggested_warp_output."""
    import numpy as np
    a = 6378137.0
    f = 1.0 / 298.257223563
    e = repr(float(np.sqrt(f * (2.0 - f))))
    diag = repr(float(np.hypot(w, w)))

    def ATANH(z):
        return f"(0.5 * ln((1.0 + {z}) / (1.0 - {z})))"

    def Y(lat):
        s = f"sin(({lat}) * (pi() / 180.0))"
        return (f"({a!r} * ({ATANH(s)} - {e} * "
                f"{ATANH(f'({e} * {s})')}))")

    def X(lon):
        return f"({a!r} * (({lon}) * (pi() / 180.0)))"

    wf = repr(float(w))
    return f"""
WITH g AS (
  SELECT i, 'wkt' || lpad(CAST(i AS VARCHAR), 5, '0') AS image_id,
         -150.0 + (i * 37) % 300 AS lon0,
         -55.0 + (i * 53) % 110 AS lat0
  FROM (SELECT g AS i FROM generate_series(0, {n - 1}) t(g))),
c AS (
  SELECT image_id,
         {X('lon0')} AS minx,
         {X(f'lon0 + 0.01 * {wf}')} AS maxx,
         {Y(f'(lat0 + {w} * 0.01) - 0.01 * {wf}')} AS miny,
         {Y(f'lat0 + {w} * 0.01')} AS maxy
  FROM g),
r AS (
  SELECT image_id, minx, maxy,
         maxx - minx AS sx, maxy - miny AS sy FROM c),
q AS (
  SELECT image_id, minx, maxy, sx, sy,
         sqrt(sx * sx + sy * sy) / {diag} AS res_out FROM r)
SELECT image_id,
       greatest(1, CAST(ROUND(sx / res_out) AS BIGINT)) AS dst_w,
       greatest(1, CAST(ROUND(sy / res_out) AS BIGINT)) AS dst_h,
       ROUND(minx, 4) AS minx,
       ROUND(maxy, 2) AS maxy
FROM q
"""


def sql_gcp_warp(n: int = 96) -> str:
    """GCP-warp suggested-output geometry: the order-2 fit reproduces
    the separable quadratic GCP field exactly, both axes monotone, so
    the 21-point edge walk collapses to the corners:
      x-span = 1.5·res·w  (qx = res/2w burn-in), y-span = 1.25·res·h,
      out_res = diag/ src_diag_px, dims = round(span/out_res),
      minx = x0, maxy = y1 (and the north-up dst_gt anchors there)."""
    return f"""
WITH {sql_images_cte(n)},
g AS (SELECT image_id, w, h, x0, y1,
    1.5 * res * w  AS sx,
    1.25 * res * h AS sy
  FROM imgs),
r AS (SELECT image_id, w, h, x0, y1, sx, sy,
    sqrt(sx * sx + sy * sy) / sqrt(w * w + h * h + 0.0) AS res_out
  FROM g)
SELECT image_id,
       greatest(1, CAST(ROUND(sx / res_out) AS INTEGER)) AS dst_w,
       greatest(1, CAST(ROUND(sy / res_out) AS INTEGER)) AS dst_h,
       ROUND(x0, 4) AS minx,
       ROUND(y1, 4) AS maxy
FROM r
"""


def sql_reproject_dims(n: int = 96) -> str:
    """Suggested-warp-output dims for 3857→4326 (the 21-point edge walk
    collapses to the 4 corners for a monotone north-up transform):
    lon = x/OS*180; lat = 180/pi*(2*atan(exp(y/OS*pi)) - pi/2);
    res = dst_diag/src_diag; dims = round(span/res). The warped PIXELS
    are mesh-path values verified in pytest; the grid geometry is
    hash-checked here."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    lat = ("(180.0 / pi() * (2.0 * atan(exp(({y}) / {OS} * 180.0 "
           "* pi() / 180.0)) - pi() / 2.0))")

    def LAT(y):
        return lat.format(y=y, OS=repr(float(OS)))

    return f"""
WITH {sql_images_cte(n)},
env AS (SELECT image_id, w, h,
    x0 / {OS!r} * 180.0 AS lon0,
    (x0 + w * res) / {OS!r} * 180.0 AS lon1,
    {LAT('y1 - h * res')} AS lat0,
    {LAT('y1')} AS lat1
  FROM imgs),
g AS (SELECT image_id, w, h,
    sqrt((lon1 - lon0) * (lon1 - lon0) + (lat1 - lat0) * (lat1 - lat0))
      / sqrt(w * w + h * h + 0.0) AS r,
    lon1 - lon0 AS sx, lat1 - lat0 AS sy
  FROM env)
SELECT image_id,
       greatest(1, CAST(ROUND(sx / r) AS INTEGER)) AS dst_w,
       greatest(1, CAST(ROUND(sy / r) AS INTEGER)) AS dst_h
FROM g
"""


def sql_rpc_locate(n: int = 4096) -> str:
    """RPC direct transform recomputed in SQL. The synthetic models
    (core/rpc.py::synthetic_rpc) have denominator 1 at h=0 and
    numerators L + a·LP + b·L² (samp) / P − a·LP + b·P² (line), with
    a = 0.02·(k%5), b = 0.01·(k%3); de-normalization is
    px = samp·2048 + (2048 − 8k) + 0.5, ln = line·2048 + (2048 + 16k)
    + 0.5 (the +0.5 center→corner shift of RPCTransformPoint). All
    intermediate values are exact multiples of 2e-4, so ROUND(...,4)
    is boundary-safe on both sides. rt_ok = TRUE asserts the Ray-side
    iterative inverse converged."""
    return f"""
WITH pts AS (
  SELECT i, i % 8 AS k,
         4.6 + (i % 64) * 0.0125 AS lon,
         43.6 + ((i // 64) % 64) * 0.0125 AS lat
  FROM generate_series(0, {n - 1}) t(i)
),
norm AS (
  SELECT i, k,
         (lon - 5.0) / 0.5 AS L,
         (lat - 44.0) / 0.5 AS P,
         0.02 * (k % 5) AS a,
         0.01 * (k % 3) AS b
  FROM pts
)
SELECT i AS pid, k,
       ROUND((L + a * L * P + b * L * L) * 2048.0
             + (2048.0 - 8.0 * k) + 0.5, 4) AS px,
       ROUND((P - a * L * P + b * P * P) * 2048.0
             + (2048.0 + 16.0 * k) + 0.5, 4) AS ln,
       TRUE AS rt_ok
FROM norm
"""


def sql_geoloc_transform(n: int = 2048) -> str:
    """Geolocation-array forward transform recomputed in SQL. The
    synthetic grids are bilinear in the geoloc indices (gp, gl), and
    bilinear interpolation reproduces a bilinear field exactly, so
    pixel→geo collapses to the node formula evaluated at
    gp = px/8 = 2·(t%16)+0.5, gl = 2·((t//16)%16)+0.5.  Expression
    order mirrors queries.py::q_geoloc_transform so both sides compute
    bit-identical doubles; exact values carry ≤ 4 decimals."""
    return f"""
WITH pts AS (
  SELECT i, i % 8 AS k,
         2.0 * ((i // 8) % 16) + 0.5 AS gp,
         2.0 * (((i // 8) // 16) % 16) + 0.5 AS gl
  FROM generate_series(0, {n - 1}) t(i)
),
d AS (SELECT i, k, gp, gl, 0.01 * (k % 4) AS dd FROM pts)
SELECT i AS pid, k,
       ROUND(100.0 + k + 2.5 * gp + 0.25 * gl + dd * gp * gl, 4) AS gx,
       ROUND(200.0 - 2.0 * k + 0.125 * gp + 3.0 * gl - dd * gp * gl, 4)
         AS gy,
       TRUE AS rt_ok
FROM d
"""


def sql_nearblack(n: int = 96) -> str:
    """Nearblack collar mask count recomputed closed-form: the painted
    frame is the exact union of the four directional runs, so
    n_masked = w·min(t+b,h) + max(h−t−b,0)·min(l+r,w) with the frame
    widths derived from the image index exactly as in
    queries.py::q_nearblack."""
    return f"""
WITH {sql_images_cte(n)},
f AS (
  SELECT image_id, w, h,
         (i % 3) + ((i // 3) % 3)  AS tb,
         ((i // 4) % 4) + ((i // 7) % 4) AS lr
  FROM imgs
)
SELECT image_id, w::INTEGER AS w, h::INTEGER AS h,
       (w * LEAST(tb, h)
        + GREATEST(h - tb, 0) * LEAST(lr, w))::BIGINT AS n_masked
FROM f
"""


def sql_color_relief(n: int = 64) -> str:
    """color-relief channel sums recomputed closed-form.  Ramp entries
    at 0/64/128/192/255 with colors mirrored from
    queries.py::_RELIEF_RAMP; interpolation follows the reference's
    first-entry-≥-v bracket, so v=0 takes entry 0 and each segment is
    half-open (lo, hi].  Channel = FLOOR(0.5 + lo_c + ratio·(hi_c −
    lo_c)) — expression order mirrors stages/raster_ops.py::
    color_relief so both sides compute identical doubles (clamp is a
    no-op for this ramp)."""
    # (lo_e, hi_e, lo_c, hi_c) per segment, per channel
    ramp = [(0, (0, 0, 128)), (64, (0, 128, 64)), (128, (255, 255, 0)),
            (192, (205, 92, 92)), (255, (255, 255, 255))]

    def chan(ci: int) -> str:
        cases = []
        for s in range(4):
            lo_e, lo_c = ramp[s][0], ramp[s][1][ci]
            hi_e, hi_c = ramp[s + 1][0], ramp[s + 1][1][ci]
            cases.append(
                f"WHEN v0 <= {hi_e} THEN FLOOR(0.5 + {lo_c}.0 + "
                f"(v0 - {lo_e}.0) / {hi_e - lo_e}.0 * {hi_c - lo_c}.0)")
        first = ramp[0][1][ci]
        return ("CASE WHEN v0 <= 0 THEN {f}.0 ".format(f=first)
                + " ".join(cases) + f" ELSE {ramp[4][1][ci]}.0 END")

    return sql_pixels_cte(n) + f"""
, rel AS (
  SELECT image_id,
         {chan(0)} AS r,
         {chan(1)} AS g,
         {chan(2)} AS b
  FROM px
)
SELECT image_id, SUM(r)::BIGINT AS sum_r, SUM(g)::BIGINT AS sum_g,
       SUM(b)::BIGINT AS sum_b
FROM rel GROUP BY image_id
"""


def sql_hillshade_multi(n: int = 64) -> str:
    """Multidirectional hillshade interior mean: the full USGS
    OF 92-422 weighted formula (four GREATEST(0,·)-clamped azimuth
    shades, sin²-aspect weights, flat→sin(alt)) replayed per interior
    pixel; expression order mirrors stages/raster_ops.py::
    hillshade_multidirectional_float."""
    v = "((a * ({x}) + b * ({y})) % 256)"

    def vv(dx, dy):
        return v.format(x=f"gx + {dx}", y=f"gy + {dy}")

    dzdx = (f"(({vv(1,-1)} + 2 * {vv(1,0)} + {vv(1,1)}) "
            f"- ({vv(-1,-1)} + 2 * {vv(-1,0)} + {vv(-1,1)})) / 8.0")
    dzdy = (f"(({vv(-1,1)} + 2 * {vv(0,1)} + {vv(1,1)}) "
            f"- ({vv(-1,-1)} + 2 * {vv(0,-1)} + {vv(1,-1)})) / 8.0")
    return f"""
WITH {sql_images_cte(n, png_only=True)},
gxs AS (SELECT g AS gx FROM generate_series(1, 510) t(g)),
gys AS (SELECT g AS gy FROM generate_series(1, 510) t(g)),
grad AS (
  SELECT image_id, {dzdx} AS p, {dzdy} AS q
  FROM imgs JOIN gxs ON gx < w - 1 JOIN gys ON gy < h - 1),
terms AS (
  SELECT image_id, p, q, p * p + q * q AS s,
         sin(pi() / 4) AS sa, cos(pi() / 4) AS ca, sqrt(0.5) AS r
  FROM grad),
sh AS (
  SELECT image_id,
         CASE WHEN s = 0 THEN sa ELSE
           ((0.5 * s - p * q) * GREATEST(0, sa + ca * r * (p - q))
            + p * p           * GREATEST(0, sa + ca * p)
            + (0.5 * s + p * q) * GREATEST(0, sa + ca * r * (p + q))
            + q * q           * GREATEST(0, sa + ca * q))
           / (2.0 * s) / sqrt(1.0 + s)
         END AS shade
  FROM terms)
SELECT image_id, ROUND(AVG(shade), 4) AS mean_shade
FROM sh GROUP BY image_id
"""


def sql_contour_polygons(n: int = 32) -> str:
    """Contour polygon bands: the summed polygonize area per level
    band must equal the band's pixel count (discrete boundaries), which
    is a plain classified count over the closed-form pixels, cropped to
    the same 160×160 window as the query."""
    return sql_pixels_cte(n) + """
, cls AS (
  SELECT image_id,
         CASE WHEN v0 < 64 THEN 0 WHEN v0 < 128 THEN 1
              WHEN v0 < 192 THEN 2 ELSE 3 END AS band
  FROM px WHERE gx < 160 AND gy < 160
)
SELECT image_id, band::BIGINT AS band, COUNT(*)::BIGINT AS area_px
FROM cls GROUP BY image_id, band
"""


def sql_rasterize_all_touched(m: int = 30, zoom: int = 6) -> str:
    """ALL_TOUCHED count for axis-aligned boxes on the global z{zoom}
    lattice: in grid units g = (v + OS)/res a cell k is touched iff
    [k, k+1] ∩ [g0, g1] ≠ ∅ (closed), i.e. k ∈ [ceil(g0 − 1),
    floor(g1)] — ceil(g0 − 1) collapses to g0 − 1 exactly on a
    gridline (both neighbors burn) and floor(g0) otherwise."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    res = 2 * OS / ((1 << zoom) * 256)
    bx, by = G.sql_point_xy("(j * 5 + 2)")
    return f"""
WITH boxes AS (
  SELECT j AS fid, {bx} AS bcx, {by} AS bcy,
         4000.0 * (1 + (j * 11) % 3) AS s
  FROM (SELECT g AS j FROM generate_series(0, {m - 1}) t(g))),
gu AS (
  SELECT fid,
         (bcx - s + {OS!r}) / {res!r} AS gx0,
         (bcx + s + {OS!r}) / {res!r} AS gx1,
         (bcy - s + {OS!r}) / {res!r} AS gy0,
         (bcy + s + {OS!r}) / {res!r} AS gy1
  FROM boxes)
SELECT fid,
       ((CAST(floor(gx1) AS BIGINT) - CAST(ceil(gx0 - 1) AS BIGINT) + 1)
      * (CAST(floor(gy1) AS BIGINT) - CAST(ceil(gy0 - 1) AS BIGINT) + 1))
       AS total_px
FROM gu
"""


def sql_cutline_blend(n: int = 48) -> str:
    """Cutline blend density recomputed closed-form: for the
    pixel-aligned inset rectangle [l, w−r) × [t, h−b) the EDT distance
    of interior pixel (c, y) to the nearest outside pixel is
    min(c−l, w−r−1−c, y−t, h−b−1−y) + 1, density = LEAST(1, d/3).
    Empty rectangles (tiny images) contribute 0."""
    return f"""
WITH {sql_images_cte(n)},
f AS (SELECT image_id, LEAST(w, 256) AS w, LEAST(h, 256) AS h,
             2 + (i % 2) AS t, 3 + (i % 3) AS l, 2 AS b, 2 AS r
      FROM imgs),
cs AS (SELECT g AS c FROM generate_series(0, 255) t(g)),
ys AS (SELECT g AS y FROM generate_series(0, 255) t(g)),
d AS (
  SELECT image_id,
         LEAST(1.0,
           (LEAST(c - l, w - r - 1 - c, y - t, h - b - 1 - y) + 1) / 3.0)
           AS dens
  FROM f JOIN cs ON c >= l AND c < w - r
         JOIN ys ON y >= t AND y < h - b
)
SELECT f.image_id,
       ROUND(COALESCE(SUM(dens), 0.0), 4) AS density_sum,
       COALESCE(SUM(CASE WHEN dens >= 1.0 THEN 1 END), 0)::BIGINT AS n_full
FROM f LEFT JOIN d ON f.image_id = d.image_id
GROUP BY f.image_id
"""


def sql_vector_reproject(m: int = 40) -> str:
    """Reprojected envelopes of the box layer, 3857→4326: mercator
    inverse is per-axis monotone, so the envelope transforms
    cornerwise.  lat/lon expressions mirror
    core/mercator.py::meters_to_latlon (lat = (my/OS)·180 first, then
    the 180/π·(2·atan(exp(·π/180)) − π/2) unwrap) so both sides
    compute identical doubles."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    bx, by = G.sql_point_xy("(j * 5 + 2)")

    def LON(x):
        return f"(({x}) / {OS!r}) * 180.0"

    def LAT(y):
        return (f"180.0 / pi() * (2.0 * atan(exp((({y}) / {OS!r}) * 180.0"
                f" * pi() / 180.0)) - pi() / 2.0)")

    return f"""
WITH boxes AS (
  SELECT j AS fid, {bx} AS bcx, {by} AS bcy,
         4000.0 * (1 + (j * 11) % 3) AS s
  FROM (SELECT g AS j FROM generate_series(0, {m - 1}) t(g)))
SELECT fid,
       ROUND({LON('bcx - s')}, 4) AS lon0,
       ROUND({LAT('bcy - s')}, 4) AS lat0,
       ROUND({LON('bcx + s')}, 4) AS lon1,
       ROUND({LAT('bcy + s')}, 4) AS lat1
FROM boxes
"""


def sql_tile_assignment_geodetic(zoom: int = 6) -> str:
    """Geodetic (Plate Carrée) tile counts per event: lon/lat from the
    mercator point via the same unwrap as core/mercator.py::
    meters_to_latlon, then GlobalGeodetic's ceil(p/256)−1 tile rule
    with res = 180/256/2^z (tmscompatible)."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    xs, ys = G.sql_point_xy("event_id")
    res = 180.0 / 256.0 / (1 << zoom)
    lon = f"(({xs}) / {OS!r}) * 180.0"
    lat = (f"180.0 / pi() * (2.0 * atan(exp(((({ys}) / {OS!r}) * 180.0)"
           f" * pi() / 180.0)) - pi() / 2.0)")
    return f"""
WITH px AS (
  SELECT (180.0 + {lon}) / {res!r} AS ppx,
         (90.0 + {lat}) / {res!r} AS ppy
  FROM events)
SELECT (CAST(ceil(ppx / 256.0) AS BIGINT) - 1) AS tile_x,
       (CAST(ceil(ppy / 256.0) AS BIGINT) - 1) AS tile_y,
       COUNT(*) AS n
FROM px GROUP BY 1, 2
"""


def sql_raster_profile_tiles(n: int = 128) -> str:
    """Raster-profile grids recomputed closed-form: nativezoom is the
    bit-length of ceil(dim/256)−1 (== ceil(log2(dim/256))), expressed
    as a threshold ladder (dims ≤ 4096 in the corpus); tsize(z) =
    2^(nz−z)·256, count = ceil(w/tsize)·ceil(h/tsize)."""
    def nzed(dim):
        cd = f"(({dim} + 255) // 256)"
        return (f"(CASE WHEN {cd} <= 1 THEN 0 WHEN {cd} <= 2 THEN 1 "
                f"WHEN {cd} <= 4 THEN 2 WHEN {cd} <= 8 THEN 3 "
                f"WHEN {cd} <= 16 THEN 4 ELSE 5 END)")
    return f"""
WITH {sql_images_cte(n)},
nz AS (SELECT image_id, w, h,
              GREATEST({nzed('w')}, {nzed('h')}) AS nz
       FROM imgs),
zs AS (SELECT g AS zoom FROM generate_series(0, 16) t(g))
SELECT image_id, zoom,
       ((1 << (nz - zoom)) * 256)::BIGINT AS tsize,
       (((w + (1 << (nz - zoom)) * 256 - 1) // ((1 << (nz - zoom)) * 256))
        * ((h + (1 << (nz - zoom)) * 256 - 1) // ((1 << (nz - zoom)) * 256)))
         ::BIGINT AS n_tiles
FROM nz JOIN zs ON zoom <= nz
"""


def sql_viewshed_plane(m: int = 16, N: int = 64) -> str:
    """Plane-terrain viewshed census: window bounds replicate
    core/viewshed.py::viewshed_window for the default unit gt (gt5 > 0
    → the start row gets the reference's extra −1), clamped to the
    raster; every window cell with r² ≤ R² is visible, the rest are
    out-of-range."""
    return f"""
WITH cfg AS (
  SELECT k,
         20 + 3 * (k % 8) AS ox,
         25 + 2 * (k % 8) AS oy,
         7.5 + 0.5 * k AS R
  FROM generate_series(0, {m - 1}) t(k)),
w AS (
  SELECT k, ox, oy, R,
         GREATEST(CAST(FLOOR(ox - R + 1e-8) AS BIGINT), 0) AS xs,
         LEAST(CAST(CEIL(ox + R - 1e-8) AS BIGINT) + 1, {N}) AS xe,
         GREATEST(CAST(FLOOR(oy - R + 1e-8) AS BIGINT) - 1, 0) AS ys,
         LEAST(CAST(CEIL(oy + R - 1e-8) AS BIGINT), {N}) AS ye
  FROM cfg),
xsq AS (SELECT g AS x FROM generate_series(0, {N - 1}) t(g)),
ysq AS (SELECT g AS y FROM generate_series(0, {N - 1}) t(g)),
cells AS (
  SELECT k,
         CASE WHEN (x - ox) * (x - ox) + (y - oy) * (y - oy) <= R * R
              THEN 1 ELSE 0 END AS vis
  FROM w JOIN xsq ON x >= xs AND x < xe
         JOIN ysq ON y >= ys AND y < ye)
SELECT k, SUM(vis)::BIGINT AS n_visible, COUNT(*)::BIGINT AS n_window
FROM cells GROUP BY k
"""


def sql_polygonize_census() -> str:
    """Exact class census of the analytic sin/cos field — the stitched
    polygonize totals must conserve it. numpy and DuckDB share libm
    (sin/cos parity ≤ 1e-15; the class thresholds are nowhere near a
    representable boundary)."""
    return """
WITH gxs AS (SELECT g AS gx FROM generate_series(0, 511) t(g)),
gys AS (SELECT g AS gy FROM generate_series(0, 255) t(g)),
f AS (SELECT sin(gx / 13.0) + cos(gy / 9.0) AS v FROM gxs, gys),
cls AS (SELECT CASE WHEN v < -0.5 THEN 0 WHEN v < 0.5 THEN 1 ELSE 2 END
               AS value
        FROM f)
SELECT value::BIGINT AS value, COUNT(*)::BIGINT AS total_px
FROM cls GROUP BY value
"""


def sql_fillnodata(n: int = 48) -> str:
    """fillnodata census: hole count ((7gx+11gy)%37==0) and the exact
    value sum over non-hole pixels; all_filled asserts completion."""
    return sql_pixels_cte(n) + """
SELECT image_id,
       SUM(CASE WHEN (7 * gx + 11 * gy) % 37 = 0 THEN 1 ELSE 0 END)
         ::BIGINT AS n_holes,
       SUM(CASE WHEN (7 * gx + 11 * gy) % 37 = 0 THEN 0 ELSE v0 END)
         ::BIGINT AS sum_kept,
       TRUE AS all_filled
FROM px GROUP BY image_id
"""


def sql_vector_translate(m: int = 40) -> str:
    """ogr2ogr roundtrip envelopes: category 'b' boxes are j % 3 == 1,
    written positionally (shapefile FID i ↔ source box j = 3i + 1);
    same mercator inverse algebra as sql_vector_reproject."""
    from ..core.mercator import ORIGIN_SHIFT as OS
    bx, by = G.sql_point_xy("(j * 5 + 2)")

    def LON(x):
        return f"(({x}) / {OS!r}) * 180.0"

    def LAT(y):
        return (f"180.0 / pi() * (2.0 * atan(exp((({y}) / {OS!r}) * 180.0"
                f" * pi() / 180.0)) - pi() / 2.0)")

    n_sel = (m + 1) // 3
    return f"""
WITH sel AS (
  SELECT i AS fid, 3 * i + 1 AS j
  FROM generate_series(0, {n_sel - 1}) t(i)),
boxes AS (
  SELECT fid, {bx} AS bcx, {by} AS bcy,
         4000.0 * (1 + (j * 11) % 3) AS s
  FROM sel)
SELECT fid,
       ROUND({LON('bcx - s')}, 4) AS lon0,
       ROUND({LAT('bcy - s')}, 4) AS lat0,
       ROUND({LON('bcx + s')}, 4) AS lon1,
       ROUND({LAT('bcy + s')}, 4) AS lat1
FROM boxes
"""


def sql_caption_passthrough(n: int = 96) -> str:
    """Caption invariant oracle: the exact generator string
    ('caption for img%08d é%d', sources/images.py::caption_of) plus its
    UTF-8 byte length (the é makes it len+1)."""
    return f"""
WITH ids AS (SELECT g AS i FROM generate_series(0, {n - 1}) t(g)),
c AS (SELECT printf('img%08d', i) AS image_id,
             'caption for img' || printf('%08d', i) || ' é' || (i % 7)
               AS caption
      FROM ids)
SELECT image_id, caption,
       octet_length(encode(caption))::BIGINT AS caption_bytes
FROM c
"""


def sql_raster_stack(n: int = 64) -> str:
    """Stacked band means: pairs (i, i+16) share dims by construction
    of the W/H cycles; mean_b0/mean_b1 are plain averages of each
    source's closed-form band-0 pixels."""
    return f"""
WITH {sql_images_cte(n, png_only=True)},
gxs AS (SELECT g AS gx FROM generate_series(0, 511) t(g)),
gys AS (SELECT g AS gy FROM generate_series(0, 511) t(g)),
m AS (
  SELECT i, image_id, ROUND(AVG((a * gx + b * gy) % 256), 4) AS mean_v
  FROM imgs JOIN gxs ON gx < w JOIN gys ON gy < h
  GROUP BY i, image_id),
pairs AS (
  SELECT a.i AS pair_id, a.mean_v AS mean_b0, b.mean_v AS mean_b1
  FROM m a JOIN m b ON b.i = a.i + 16)
SELECT pair_id, mean_b0, mean_b1 FROM pairs
"""


def sql_raster_info(n: int = 64) -> str:
    """gdalinfo surface recomputed: PNG driver, dims from the cycles,
    3 bands, band-0 mean from the pixel formula."""
    return sql_pixels_cte(n) + """
SELECT image_id, 'PNG' AS driver, MIN(w)::BIGINT AS w,
       MIN(h)::BIGINT AS h, 3::BIGINT AS bands,
       ROUND(AVG(v0), 4) AS mean_b0
FROM px GROUP BY image_id
"""


def sql_geoloc_warp(m: int = 8) -> str:
    """geoloc_warp suggested-output geometry for the affine grids:
    X = 100+4k + 0.3125·px + 0.03125·ln, Y = 500−2k + 0.015625·px +
    0.375·ln over [0,256]² → spans 88 × 100; res = dst_diag/src_diag,
    dims = greatest(1, round(span/res)) — mirrors
    stages/warp.py::suggested_warp_output."""
    return f"""
WITH cfg AS (SELECT k FROM generate_series(0, {m - 1}) t(k)),
g AS (SELECT k,
             100.0 + 4.0 * k AS minx,
             600.0 - 2.0 * k AS maxy,
             88.0 AS sx, 100.0 AS sy,
             sqrt(88.0 * 88.0 + 100.0 * 100.0)
               / sqrt(256.0 * 256.0 + 256.0 * 256.0) AS res
      FROM cfg)
SELECT k,
       greatest(1, CAST(ROUND(sx / res) AS BIGINT)) AS dst_w,
       greatest(1, CAST(ROUND(sy / res) AS BIGINT)) AS dst_h,
       ROUND(minx, 4) AS minx,
       ROUND(maxy, 4) AS maxy
FROM g
"""


def sql_rpc_warp(m: int = 8) -> str:
    """rpc_warp suggested-output geometry for linear models: the
    affine inverse lon(px) = 5 + (px − 0.5 − (2048 − 8k))/2048·0.5,
    lat(ln) = 44 + (ln − 0.5 − (2048 + 16k))/2048·0.5 over [0,256]²
    gives equal spans 0.0625 → square output, dims = 256."""
    return f"""
WITH cfg AS (SELECT k FROM generate_series(0, {m - 1}) t(k)),
g AS (SELECT k,
             5.0 + (0.0 - 0.5 - (2048.0 - 8.0 * k)) / 2048.0 * 0.5 AS minx,
             44.0 + (256.0 - 0.5 - (2048.0 + 16.0 * k)) / 2048.0 * 0.5
               AS maxy,
             0.0625 AS sx, 0.0625 AS sy,
             sqrt(2.0 * 0.0625 * 0.0625) / sqrt(2.0 * 256.0 * 256.0) AS res
      FROM cfg)
SELECT k,
       greatest(1, CAST(ROUND(sx / res) AS BIGINT)) AS dst_w,
       greatest(1, CAST(ROUND(sy / res) AS BIGINT)) AS dst_h,
       ROUND(minx, 4) AS minx,
       ROUND(maxy, 4) AS maxy
FROM g
"""


def sql_audio_features_wav(n: int = 48) -> str:
    """Regenerates make_wav_audio_batch's integer PCM closed-form:
    clip i = mono int16, n_i = 800 + (i%5)*400 samples, sample s =
    ((s*(3 + i%17) + i%101) % 4001) - 2000. Stats are integer-exact
    (sum of squares, signbit crossings) so the hash cannot flake on
    float rounding."""
    return f"""
WITH clips AS (SELECT i::BIGINT AS i FROM range(0, {n}) t(i)),
ss AS (SELECT s::BIGINT AS s FROM range(0, 2400) t(s)),
samp AS (
  SELECT i, s, ((s*(3 + i%17) + (i%101)) % 4001) - 2000 AS v
  FROM clips JOIN ss ON s < 800 + (i%5)*400
),
x AS (SELECT i, s, v, LAG(v) OVER (PARTITION BY i ORDER BY s) AS pv
      FROM samp)
SELECT printf('clip%07d', i) AS clip_id,
       COUNT(*)::BIGINT AS n_samples,
       SUM(v*v)::BIGINT AS sum_sq,
       SUM(CASE WHEN pv IS NOT NULL AND (v < 0) != (pv < 0)
                THEN 1 ELSE 0 END)::BIGINT AS crossings
FROM x GROUP BY i
"""


def sql_mosaic_alpha(n_img: int = 96, W: int = 512, nc: int = 4,
                     cap: int = 24) -> str:
    """Alpha-blend mosaic oracle: per destination cell, the ordered
    Porter-Duff composite with per-layer alpha 1/2 over the lossless
    half, emitted scaled by 2^cap (dyadic weights → integer-exact, no
    float rounding anywhere). Sampling mirrors the engine's per-CELL
    affine composition op-for-op (cell origin = D0 + cx*128*DRX, then
    composite_affine's  -(x0*ia) + ia*C0  form), so pixel membership
    and layer order are bit-identical to rs.warp 'near'. Layer values
    are the image ordinals (the metro stack is the lossy half, whose
    decoded pixels are PSNR-gated, not bit-stable) — the composite is
    still fully order-sensitive."""
    from ..core import geotransform as gtr
    MX0, MY0, MW = G.METRO_X0, G.METRO_Y0, G.METRO_W
    dst_gt = gtr.from_bounds(MX0, MY0, MX0 + MW, MY0 + MW, W, W)
    D0, DRX, D3, DRY = (repr(dst_gt[0]), repr(dst_gt[1]),
                        repr(dst_gt[3]), repr(dst_gt[5]))
    cw = W // nc
    return f"""
WITH {sql_images_cte(n_img)},
aff AS (
  SELECT i, a, b, w, h,
         (0.0 - res) * (1.0 / (res * (0.0 - res))) AS ia,
         res * (1.0 / (res * (0.0 - res))) AS ie,
         x0, y1
  FROM imgs),
cxs AS (SELECT g AS cx FROM generate_series(0, {nc - 1}) t(g)),
cys AS (SELECT g AS cy FROM generate_series(0, {nc - 1}) t(g)),
span AS (SELECT g AS d FROM generate_series(0, {cw - 1}) t(g)),
m AS (
  SELECT i, a, b, w, h, cx, cy,
         -(x0 * ia) + ia * ({D0} + cx*{cw}*{DRX}) AS m0, ia * {DRX} AS m1,
         -(y1 * ie) + ie * ({D3} + cy*{cw}*{DRY}) AS m3, ie * {DRY} AS m5
  FROM aff, cxs, cys),
samp AS (
  SELECT m.cy * {nc} + m.cx AS cell, px.d AS lx, py.d AS ly, m.i, m.a, m.b,
         CAST(floor(m.m0 + m.m1 * (px.d + 0.5)) AS BIGINT) AS ix,
         CAST(floor(m.m3 + m.m5 * (py.d + 0.5)) AS BIGINT) AS iy,
         m.w, m.h
  FROM m, span px(d), span py(d)),
valid AS (
  SELECT cell, lx, ly, i, (i % 256)::BIGINT AS v
  FROM samp WHERE ix >= 0 AND ix < w AND iy >= 0 AND iy < h),
ord AS (
  SELECT cell, lx, ly, v,
         ROW_NUMBER() OVER (PARTITION BY cell, lx, ly ORDER BY i DESC) AS rn
  FROM valid)
SELECT cell,
       SUM(CASE WHEN rn <= {cap} THEN v << ({cap} - rn)
                ELSE 0 END)::BIGINT AS comp_sum,
       COUNT(DISTINCT lx * {cw} + ly)::BIGINT AS covered_px
FROM ord GROUP BY cell
"""


def sql_mif_roundtrip(m: int = 25) -> str:
    """MIF/MID roundtrip is lossless (repr() coordinates), so areas
    equal the closed-form shape-class areas and the MID attribute
    column survives byte-for-byte."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_mif,
       CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b' ELSE 'c' END AS category
FROM polys
"""


def sql_gml_roundtrip(m: int = 25) -> str:
    """GML write→read is lossless (repr() coordinates), same
    closed-form area derivation as the MIF roundtrip."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_gml,
       CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b' ELSE 'c' END AS category
FROM polys
"""



def sql_pdfvec_roundtrip(m: int = 25) -> str:
    """PDF vector write→read keeps ~1e-8 relative coordinate
    precision (10-decimal page units), well inside the 3-decimal
    km² area rounding; category rides the UserProperties."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_pdf,
       CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b' ELSE 'c' END AS category
FROM polys
"""

def sql_dxf_roundtrip(m: int = 25) -> str:
    """DXF HATCH write→read is lossless (repr() coordinates; ring
    reassembly by containment), category rides the Layer code."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_dxf,
       CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b' ELSE 'c' END AS category
FROM polys
"""


def sql_raster_neighbors(n: int = 32) -> str:
    """3×3 edge-padded (clamped) focal sum totals: 9-way offset join
    with LEAST/GREATEST clamping, all-integer."""
    return sql_pixels_cte(n) + """
, offs AS (SELECT dx, dy FROM (VALUES (-1),(0),(1)) a(dx),
                               (VALUES (-1),(0),(1)) b(dy))
SELECT image_id,
       SUM((a * LEAST(GREATEST(gx + dx, 0), w - 1)
            + b * LEAST(GREATEST(gy + dy, 0), h - 1)) % 256)::BIGINT
           AS neighbor_sum
FROM px, offs
GROUP BY image_id
"""


def sql_reclassify(n: int = 48) -> str:
    """Replays '[0,63]=1;(63,127]=2;(127,191]=3;DEFAULT=9' as CASE."""
    return sql_pixels_cte(n) + """
SELECT image_id,
       SUM(CASE WHEN v0 <= 63 THEN 1
                WHEN v0 <= 127 THEN 2
                WHEN v0 <= 191 THEN 3
                ELSE 9 END)::BIGINT AS reclass_sum
FROM px GROUP BY image_id
"""


def sql_arrow_roundtrip(m: int = 25) -> str:
    """Arrow IPC roundtrip is bit-lossless → closed-form areas +
    attribute pass-through."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid,
       ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_arrow,
       CASE fid % 3 WHEN 0 THEN 'a' WHEN 1 THEN 'b' ELSE 'c' END AS category
FROM polys
"""


def sql_vrt_composite(n: int = 32) -> str:
    """50%-nearest VRT downsample: at exactly ratio 2 the sampled src
    coordinate is floor((i+0.5)*2) = 2i+1, i.e. the odd coordinates —
    so the half-res sum is SUM(v0) over odd (gx, gy). Every W/H cycle
    value is even, so the ratio is exact."""
    return sql_pixels_cte(n) + """
SELECT image_id, SUM(v0)::BIGINT AS halfres_sum
FROM px WHERE gx % 2 = 1 AND gy % 2 = 1
GROUP BY image_id
"""


def sql_jp2_lossy(n: int = 32) -> str:
    """Lossy JP2 gate: the Ray side computes PSNR/size booleans that
    must all be TRUE; the oracle lists the png-corpus ids with TRUE
    flags closed-form."""
    return "WITH " + sql_images_cte(n, png_only=True) + """
SELECT image_id, TRUE AS psnr_ok, TRUE AS smaller_ok FROM imgs
"""


def sql_omerc_warp() -> str:
    """Hotine Oblique Mercator (EPSG 9815) forward replayed in SQL:
    the per-CRS projection constants (B, A, E0, γ0, λ0, u_c) come from
    the kernel itself (core/srs.py HotineObliqueMercator over the
    Timbalai RSO Borneo parameters — golden-anchored to the EPSG GN7-2
    worked example), inlined at full double precision; the per-point
    EPSG GN7-2 §3.2.6 formula is then evaluated by DuckDB. Outputs
    round to 0.1 mm, absorbing libm 1-ulp differences."""
    from ..core.srs import CRS, params_from_wkt
    from .queries import _RSO_BORNEO_WKT
    import math

    p = CRS(params_from_wkt(_RSO_BORNEO_WKT)).proj
    e, B, A, E0 = p.e, p.B, p.A, p.E0
    cg0, sg0 = math.cos(p.gam0), math.sin(p.gam0)
    cgc, sgc = math.cos(p.gam_c), math.sin(p.gam_c)
    return f"""
WITH pt AS (
  SELECT c_custkey,
         radians(110.0 + (c_custkey % 800) / 100.0) AS lam,
         radians(0.5 + (c_custkey % 650) / 100.0) AS phi
  FROM customer),
s1 AS (
  SELECT c_custkey, lam,
         tan(pi()/4 - phi/2)
           / pow((1.0 - {e!r}*sin(phi)) / (1.0 + {e!r}*sin(phi)),
                 {e / 2.0!r}) AS t
  FROM pt),
s2 AS (
  SELECT c_custkey, lam, {E0!r} / pow(t, {B!r}) AS Q FROM s1),
s3 AS (
  SELECT c_custkey,
         (Q - 1.0/Q) / 2.0 AS S, (Q + 1.0/Q) / 2.0 AS T,
         ((lam - {p.lam0!r} + pi()) % (2*pi())) - pi() AS dlam
  FROM s2),
s4 AS (
  SELECT c_custkey, S, T, dlam, sin({B!r} * dlam) AS V FROM s3),
s5 AS (
  SELECT c_custkey, S, V, dlam,
         (-V * {cg0!r} + S * {sg0!r}) / T AS U
  FROM s4),
uv AS (
  SELECT c_custkey,
         {A!r} * ln((1.0 - U) / (1.0 + U)) / {2.0 * B!r} AS v,
         {A!r} * atan2(S * {cg0!r} + V * {sg0!r},
                       cos({B!r} * dlam)) / {B!r} - {p.uc!r} AS u
  FROM s5)
SELECT c_custkey,
       ROUND(v * {cgc!r} + u * {sgc!r} + {p.fe!r}, 4) AS x,
       ROUND(u * {cgc!r} - v * {sgc!r} + {p.fn!r}, 4) AS y
FROM uv
"""


def sql_mvt_roundtrip(m: int = 40, zoom: int = 9) -> str:
    """Per-z9-tile polygon counts from the closed-form envelopes —
    what queries.q_mvt_roundtrip must reproduce AFTER a real MVT
    protobuf encode+decode roundtrip. Envelope per shape class:
    cx±s (and +1.5s+s east/north for the k=4 multipolygon)."""
    O = 20037508.342789244
    size = 2 * O / (1 << zoom)
    return f"""
WITH {sql_polygons_cte(m)},
env AS (
  SELECT fid, cx - s AS minx, cy - s AS miny,
         CASE WHEN k = 4 THEN cx + 1.5*s + s ELSE cx + s END AS maxx,
         CASE WHEN k = 4 THEN cy + 1.5*s + s ELSE cy + s END AS maxy
  FROM polys),
nums AS (SELECT g FROM generate_series(0, {(1 << zoom) - 1}) t(g)),
tiles AS (
  SELECT fid, nx.g AS tile_x, ny.g AS tile_y
  FROM env, nums nx, nums ny
  WHERE nx.g BETWEEN CAST(FLOOR((minx + {O!r}) / {size!r}) AS BIGINT)
                 AND CAST(FLOOR((maxx + {O!r}) / {size!r}) AS BIGINT)
    AND ny.g BETWEEN CAST(FLOOR(({O!r} - maxy) / {size!r}) AS BIGINT)
                 AND CAST(FLOOR(({O!r} - miny) / {size!r}) AS BIGINT)
)
SELECT tile_x, tile_y, COUNT(*) AS n_features,
       CAST(SUM(fid) AS BIGINT) AS fid_sum
FROM tiles GROUP BY 1, 2
"""


def sql_ntv2_shift() -> str:
    """Bilinear NTv2 grid shift replayed bit-identically: the query's
    11x21 grid stores node shifts that are exact float32 multiples of
    1/16, the geotransform is (-10.5, 1, 0, 50.5, 0, -1), and every
    customer point falls strictly inside the grid — so the SQL can
    recompute node values closed-form and interpolate with the same
    IEEE-double expression tree as codecs/ntv2.py NTv2Grid.shift."""
    def v(band, yy, xx):
        if band == 0:
            return (f"((({yy}) * 31 + ({xx}) * 17) % 41 - 20) * 0.0625"
                    )
        return f"((({yy}) * 13 + ({xx}) * 7) % 29 - 14) * 0.0625"

    def bilerp(band):
        return (f"{v(band, 'y0', 'x0')} * (1 - tx) * (1 - ty)"
                f" + {v(band, 'y0', 'x1')} * tx * (1 - ty)"
                f" + {v(band, 'y1', 'x0')} * (1 - tx) * ty"
                f" + {v(band, 'y1', 'x1')} * tx * ty")

    return f"""
WITH pt AS (
  SELECT c_custkey,
         -9.5 + (c_custkey % 190) / 10.0 AS lon,
         40.5 + (c_custkey % 90) / 10.0 AS lat
  FROM customer),
f AS (
  SELECT c_custkey, lon, lat,
         least(greatest((lon - (-10.5)) / 1.0 - 0.5, 0), 20) AS fx,
         least(greatest((lat - 50.5) / (-1.0) - 0.5, 0), 10) AS fy
  FROM pt),
ix AS (
  SELECT c_custkey, lon, lat, fx, fy,
         CAST(least(greatest(floor(fx), 0), 19) AS BIGINT) AS x0,
         CAST(least(greatest(floor(fy), 0), 9) AS BIGINT) AS y0
  FROM f),
tt AS (
  SELECT c_custkey, lon, lat, x0, y0,
         fx - x0 AS tx, fy - y0 AS ty,
         least(x0 + 1, 20) AS x1, least(y0 + 1, 10) AS y1
  FROM ix)
SELECT c_custkey,
       ROUND(lon + -({bilerp(1)}) / 3600.0, 9) AS lon_shifted,
       ROUND(lat + ({bilerp(0)}) / 3600.0, 9) AS lat_shifted
FROM tt
"""


def sql_gmt_roundtrip(m: int = 30) -> str:
    """GMT ASCII write->read is lossless (repr-exact coordinates), so
    roundtripped areas equal the closed-form shape-class areas."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid, ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_gmt
FROM polys
"""


def sql_sqlite_roundtrip(m: int = 30) -> str:
    """OGR-style SQLite write->read keeps WKB blobs byte-identical, so
    roundtripped areas equal the closed-form shape-class areas."""
    return f"""
WITH {sql_polygons_cte(m)}
SELECT fid, ROUND({sql_polygon_area_expr()} / 1e6, 3) AS area_km2_sqlite
FROM polys
"""
