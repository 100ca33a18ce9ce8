"""Deterministic synthetic image+caption corpus (FIXTURES.md T1).

Schema fixed by BASELINE.json input_hint:
  (image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
   caption:string, phash:int64)

The container has no lancedb, so the "Lance table" materializes as
partitioned Parquet; at query time the corpus is usually *generated
streaming* — ``images_dataset(n)``, a ``ray.data.range(n)`` mapped
through ``gen_images_batch`` — which is how
a 10^12-row corpus would be fed from object storage shards in
production: each block materializes only its own rows.

Pixel pattern for image i: per-band modular gradient
``(a*x + b*y + c*band) mod 256`` with (a, b, c) derived from the
*pattern index* p(i); every 97th row reuses p(i-97) to inject exact/
near-duplicate collisions for dedup tests. Deterministic, seedless,
vectorized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import decode as codec_decode
from ..codecs import encode as codec_encode

W_CYCLE = np.array([64, 128, 256, 512], dtype=np.int32)
H_CYCLE = np.array([64, 96, 256, 512], dtype=np.int32)

IMAGE_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])


def pattern_index(i):
    """Every 97th row repeats row 0's pattern (transitively: 97 → 0,
    194 → 0, …) — one injected exact-duplicate class for dedup tests."""
    i = np.asarray(i, dtype=np.int64)
    return np.where(i % 97 == 0, 0, i)


def pattern_params(i):
    """(a, b, c) gradient coefficients for image i (via pattern index)."""
    p = pattern_index(i)
    a = 1 + (p * 7919) % 13
    b = 1 + (p * 104729) % 17
    c = (p * 1299709) % 97
    return a, b, c


def image_dims(i):
    # dims follow the *pattern* index so every-97th rows are exact
    # pixel duplicates of their source row (dedup collision injection)
    p = pattern_index(i)
    w = W_CYCLE[p % 4].copy()
    h = H_CYCLE[(p // 4) % 4].copy()
    # sparse edge cases: tiny and non-square images
    tiny = p % 251 == 13
    w = np.where(tiny, 1, w).astype(np.int32)
    h = np.where(tiny, 1, h).astype(np.int32)
    return w, h


def image_fmt(i):
    i = np.asarray(i, dtype=np.int64)
    return np.where(i % 2 == 0, "png", "jpeg")


def phash_of(i):
    """Stable int64 hash of the *pattern* (params + dims): collides
    exactly when the decoded pixels collide."""
    a, b, c = pattern_params(i)
    w, h = image_dims(i)
    v = (a.astype(np.int64) * 1000003 + b * 10007 + c * 101
         + w.astype(np.int64) * 31 + h.astype(np.int64))
    return (v * 2654435761 % (2**62)).astype(np.int64)


def caption_of(i: int) -> str:
    return f"caption for img{i:08d} é{i % 7}"


def render_pixels(i: int) -> np.ndarray:
    """(h, w, 3) uint8 deterministic gradient for image i."""
    a, b, c = (int(v) for v in pattern_params(i))
    w, h = (int(v) for v in image_dims(i))
    x = np.arange(w, dtype=np.int64)[None, :, None]
    y = np.arange(h, dtype=np.int64)[:, None, None]
    band = np.arange(3, dtype=np.int64)[None, None, :]
    return ((a * x + b * y + c * band) % 256).astype(np.uint8)


def make_image_row(i: int) -> dict:
    px = render_pixels(i)
    fmt = str(image_fmt(i))
    return {
        "image_id": f"img{i:08d}",
        "bytes": codec_encode(px, fmt),
        "w": np.int32(px.shape[1]),
        "h": np.int32(px.shape[0]),
        "fmt": fmt,
        "caption": caption_of(i),
        "phash": np.int64(phash_of(i)),
    }


def make_image_batch(indices) -> pa.Table:
    rows = [make_image_row(int(i)) for i in np.asarray(indices).ravel()]
    return pa.Table.from_pylist(rows, schema=IMAGE_SCHEMA)


def gen_images_batch(batch: pa.Table) -> pa.Table:
    """map_batches function: block of {"id": int64} → image rows, the
    streaming stand-in for reading the Lance corpus."""
    return make_image_batch(batch["id"].to_numpy())


def images_dataset(n: int, *, parallelism: int = -1, batch_size: int = 64):
    """Streaming synthetic corpus of n images as a ray.data.Dataset.

    Default block count is n/16 (clamped to [8, 512]): block count caps
    the parallelism of every downstream stage INCLUDING the groupby
    reduce side, so coarse blocks would leave most of the cluster idle
    during tile render."""
    import ray.data as rd

    blocks = parallelism if parallelism > 0 else max(8, min(512, n // 16))
    ds = rd.range(n, override_num_blocks=blocks)
    # Ray COALESCES blocks to fill batches, so task count ≈ n/batch_size
    # regardless of block count: cap the batch so at least ~32 tasks
    # exist (small corpora would otherwise collapse to 2 tasks), keep
    # the requested size for large corpora (right-sized tasks)
    bs = max(1, min(batch_size, n // 32)) if n >= 32 else 1
    return ds.map_batches(gen_images_batch, batch_format="pyarrow",
                          batch_size=bs)


def write_images_parquet(n: int, path: str, rows_per_file: int = 4096):
    """Materialize the corpus as partitioned Parquet (resumable layout:
    one file per shard)."""
    import pyarrow.parquet as pq
    import os

    os.makedirs(path, exist_ok=True)
    for start in range(0, n, rows_per_file):
        t = make_image_batch(np.arange(start, min(n, start + rows_per_file)))
        pq.write_table(t, os.path.join(path, f"part-{start:010d}.parquet"))


def decode_row(bytes_: bytes, fmt: str) -> np.ndarray:
    return codec_decode(bytes_, fmt)
