"""Similarity search over embedding columns: brute-force cosine top-k
(broadcast query matrix) and an IVF-style bucketed variant for scale.

The brute-force path is the exactness baseline: the query matrix ships
once via ray.put, each batch does one numpy matmul, and a global
sort/limit (or per-query top-k, exchanged by query id, for many
queries) finishes. The IVF path clusters vectors into nlist buckets
(k-means-lite on a sample) and probes only the nprobe nearest buckets —
the 10^12-scale path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.exchange import bucket_groups, topk_rows


def list_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """Arrow ``list<float>`` column → (n, dim) matrix without the
    Python-list round-trip (``flatten`` honors offsets; embedding
    columns are fixed-dim). ~60x faster than
    ``np.stack(col.to_pylist())`` and the difference is per-batch tax
    at corpus scale."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(a)
    if n == 0:
        return np.zeros((0, 0), dtype)
    return a.flatten().to_numpy(zero_copy_only=False) \
        .reshape(n, -1).astype(dtype, copy=False)


def _unit(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.maximum(n, 1e-300)


def _uniform_sample(ds, n: int, col: str, seed: int = 42) -> np.ndarray:
    """Bounded UNIFORM training sample: `ds.limit(n)` takes the first
    blocks, which biases centroids/codebooks whenever the corpus layout
    is sorted or clustered (it usually is). `random_sample` draws from
    every block; oversample 25% then trim so short draws still return n
    when possible."""
    total = ds.count()
    sel = ds.select_columns([col])
    if total > n:
        frac = min(1.0, 1.25 * n / total)
        sel = sel.random_sample(frac, seed=seed).limit(n)
    rows = sel.take_all()
    return np.stack([np.asarray(r[col]) for r in rows]).astype(np.float64)


def brute_topk(ds, queries: np.ndarray, k: int = 10, *,
               vec_col="embedding", id_col="vec_id"):
    """Exact top-k cosine for each query row (queries: (nq, dim)).

    Per-batch: candidates = per-batch top-k per query (nq×k rows per
    batch); global: top-k merge exchanged by qid. Partial top-k inside
    map_batches keeps the shuffle tiny (combiner pattern)."""
    import ray

    qunit = _unit(np.asarray(queries, dtype=np.float64))
    qref = ray.put(qunit)
    nq = len(qunit)

    def score(t: pa.Table) -> pa.Table:
        q = ray.get(qref)
        mat = _unit(list_to_matrix(t[vec_col]))
        ids = t[id_col].to_numpy()
        cos = q @ mat.T  # (nq, nbatch)
        kk = min(k, cos.shape[1])
        top = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
        qid = np.repeat(np.arange(nq, dtype=np.int64), kk)
        vid = ids[top.ravel()]
        sim = np.take_along_axis(cos, top, axis=1).ravel()
        return pa.table({"qid": pa.array(qid, pa.int64()),
                         id_col: pa.array(vid),
                         "cos_sim": pa.array(sim, pa.float64())})

    def topk_group(t: pa.Table) -> pa.Table:
        return _topk(t, "cos_sim", k, id_col)

    return bucket_groups(ds.map_batches(score, batch_format="pyarrow"),
                         topk_group, key="qid")


def _topk(t: pa.Table, sim: str, k: int, id_col: str,
          dedup: bool = False) -> pa.Table:
    """The k most similar rows of each query, ties by ascending id."""
    return topk_rows(t.select(["qid", id_col, sim]), "qid", sim, k,
                     descending=True, id_col=id_col, dedup=dedup)


def kmeans_lite(sample: np.ndarray, nlist: int, iters: int = 8,
                seed: int = 42) -> np.ndarray:
    """Tiny k-means for IVF centroids (deterministic, numpy-only)."""
    rng = np.random.default_rng(seed)
    cent = sample[rng.choice(len(sample), size=min(nlist, len(sample)),
                             replace=False)].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def ivf_topk(ds, queries: np.ndarray, k: int = 10, *, nlist: int = 16,
             nprobe: int = 4, vec_col="embedding", id_col="vec_id",
             train_sample: int = 2048, batch_size: int | None = None):
    """IVF-bucketed approximate top-k: train centroids on a driver-side
    sample (small), broadcast them, and score each batch AGAINST ONLY
    the queries probing the buckets present in that batch.

    No vector ever crosses a shuffle and no task holds more than one
    batch of vectors (the round-2 version put ~N/nlist full vectors into
    a single ``groupby(bucket)`` group — an OOM at corpus scale). The
    per-batch partials (≤ nq×k candidate rows each) merge with a tiny
    top-k exchanged by qid, same combiner shape as :func:`brute_topk`,
    so the driver only ever sees ≤ nq×k result rows."""
    import ray

    sample = _uniform_sample(ds, train_sample, vec_col)
    cent = kmeans_lite(_unit(sample), nlist)
    qunit = _unit(np.asarray(queries, dtype=np.float64))
    # which buckets each query probes
    qd = ((qunit[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    probes = np.argsort(qd, axis=1)[:, :nprobe]  # (nq, nprobe)
    probe_of_bucket: dict[int, np.ndarray] = {}
    for b in np.unique(probes):
        probe_of_bucket[int(b)] = np.nonzero((probes == b).any(axis=1))[0]
    pref = ray.put((cent, qunit, probe_of_bucket))
    empty = pa.table({"qid": pa.array([], pa.int64()),
                      id_col: pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})

    def score(t: pa.Table) -> pa.Table:
        if batch_size is not None and t.num_rows > batch_size:
            raise AssertionError(
                f"ivf score task saw {t.num_rows} vectors > "
                f"batch_size {batch_size}")
        c, q, pob = ray.get(pref)
        mat = _unit(list_to_matrix(t[vec_col]))
        ids = t[id_col].to_numpy()
        d = ((mat[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        b = d.argmin(axis=1).astype(np.int64)
        qids_out, vids_out, sims_out = [], [], []
        for bucket in np.unique(b):
            qids = pob.get(int(bucket))
            if qids is None:
                continue
            idx = np.nonzero(b == bucket)[0]
            cos = q[qids] @ mat[idx].T          # (nq_probing, n_in_bucket)
            kk = min(k, cos.shape[1])
            top = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
            qids_out.append(np.repeat(qids, kk))
            vids_out.append(ids[idx][top.ravel()])
            sims_out.append(np.take_along_axis(cos, top, axis=1).ravel())
        if not qids_out:
            return empty
        return pa.table({
            "qid": pa.array(np.concatenate(qids_out).astype(np.int64)),
            id_col: pa.array(np.concatenate(vids_out)),
            "cos_sim": pa.array(np.concatenate(sims_out), pa.float64())})

    def topk_group(t: pa.Table) -> pa.Table:
        return _topk(t, "cos_sim", k, id_col)

    kwargs = {"batch_format": "pyarrow"}
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    cands = bucket_groups(ds.map_batches(score, **kwargs), topk_group,
                          key="qid")
    # ≤ nq × k rows after the per-query merge — the result itself
    df = cands.to_pandas()
    if df.empty or "qid" not in df.columns:
        return pd.DataFrame({"qid": pd.Series([], dtype="int64"),
                             id_col: pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    return (df.sort_values(["qid", "cos_sim", id_col],
                           ascending=[True, False, True])
            .reset_index(drop=True))


def pq_train(sample: np.ndarray, m_sub: int = 4, n_centroids: int = 16,
             iters: int = 8, seed: int = 7) -> np.ndarray:
    """Product-quantization codebooks (Jégou, Douze, Schmid, "Product
    Quantization for Nearest Neighbor Search", IEEE TPAMI 2011 — the
    published method): split dims into m_sub blocks, k-means each block
    independently. Returns (m_sub, n_centroids, dsub) float64."""
    sample = _unit(np.asarray(sample, np.float64))
    n, dim = sample.shape
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
    dsub = dim // m_sub
    books = np.empty((m_sub, n_centroids, dsub))
    for m in range(m_sub):
        blk = sample[:, m * dsub:(m + 1) * dsub]
        books[m] = kmeans_lite(blk, n_centroids, iters=iters,
                               seed=seed + m)
    return books


def pq_encode(ds, books: np.ndarray, *, vec_col="embedding",
              id_col="vec_id", code_col="pq_code"):
    """Encode the embedding column ONCE into m_sub uint8 codes per
    vector (a `(id, binary)` Dataset, 16-64× smaller than float32 —
    the persistable 10^12-vector index). Scoring passes consume only
    this table; the floats are touched again only by the exact
    re-rank stage."""
    import ray

    m_sub = books.shape[0]
    dsub = books.shape[2]
    bref = ray.put(books)

    def enc(t: pa.Table) -> pa.Table:
        books_ = ray.get(bref)
        mat = _unit(list_to_matrix(t[vec_col]))
        blocks = mat.reshape(len(mat), m_sub, dsub)
        d2 = ((blocks[:, :, None, :] - books_[None, :, :, :]) ** 2).sum(-1)
        codes = d2.argmin(-1).astype(np.uint8)          # (nb, m_sub)
        return pa.table({id_col: t[id_col],
                         code_col: pa.array(
                             [c.tobytes() for c in codes], pa.binary())})

    return ds.map_batches(enc, batch_format="pyarrow")


def pq_topk(ds, queries: np.ndarray, k: int = 10, *, m_sub: int = 4,
            n_centroids: int = 16, n_train: int = 2048,
            oversample: int = 4, refine: bool = True,
            vec_col="embedding", id_col="vec_id", codes_ds=None):
    """PQ-ADC approximate top-k cosine: vectors compress to m_sub uint8
    codes via :func:`pq_encode` (persisted/materialized once — the
    10^12-vector memory path); each query scores the CODES table
    through per-block lookup tables (asymmetric distance computation),
    per-batch partial top-(k·over), bounded merge exchanged by qid. With
    ``refine`` (the standard ADC+R step) the oversampled candidates
    re-rank by exact cosine in one more streaming pass — candidate ids
    (≤ nq·k·oversample) broadcast, never the vectors; without it the
    merge keeps the k best ADC scores. Pass a
    pre-encoded ``codes_ds`` to reuse a stored index. Recall vs
    brute_topk is pytest-gated (tests/test_functions.py)."""
    import ray

    qunit = _unit(np.asarray(queries, np.float64))
    nq, dim = qunit.shape
    dsub = dim // m_sub

    # driver-side training on a bounded UNIFORM sample (the codebooks
    # are tiny and broadcast; at corpus scale this is a one-time job)
    sample = _uniform_sample(ds, n_train, vec_col, seed=7)
    books = pq_train(sample, m_sub, n_centroids)

    if codes_ds is None:
        # encode once and keep the codes in the object store — at
        # m_sub bytes/vector this is <1% of the float column
        codes_ds = pq_encode(ds, books, vec_col=vec_col,
                             id_col=id_col).materialize()

    # per-query ADC lookup tables: lut[q, m, c] = <q_m, book[m, c]>
    lut = np.einsum("qmd,mcd->qmc",
                    qunit.reshape(nq, m_sub, dsub), books)
    lut_ref = ray.put(lut)
    keep = k * oversample

    def score(t: pa.Table) -> pa.Table:
        lut_ = ray.get(lut_ref)
        codes = np.frombuffer(b"".join(t["pq_code"].to_pylist()),
                              np.uint8).reshape(-1, m_sub)
        ids = t[id_col].to_numpy()
        nb = len(codes)
        # ADC score from codes only: sim[q, v] = Σ_m lut[q, m, code]
        sim = np.zeros((nq, nb))
        for m in range(m_sub):
            sim += lut_[:, m, codes[:, m]]
        kk = min(keep, nb)
        top = np.argpartition(-sim, kk - 1, axis=1)[:, :kk]
        qid = np.repeat(np.arange(nq, dtype=np.int64), kk)
        vid = ids[top.ravel()]
        s = np.take_along_axis(sim, top, axis=1).ravel()
        return pa.table({"qid": pa.array(qid, pa.int64()),
                         id_col: pa.array(vid),
                         "adc_sim": pa.array(s, pa.float64())})

    def approx_topk_group(t: pa.Table) -> pa.Table:
        return _topk(t, "adc_sim", keep if refine else k, id_col)

    approx = bucket_groups(
        codes_ds.map_batches(score, batch_format="pyarrow"),
        approx_topk_group, key="qid")
    if not refine:
        return approx

    # exact re-rank (ADC+R): candidate list is bounded by nq·keep, so
    # pulling the (qid, id) pairs to the driver and broadcasting the
    # id→qids map is safe at any corpus size
    import ray
    cand = approx.to_pandas()
    by_vec: dict = {}
    for qid, vid in zip(cand["qid"].to_numpy(), cand[id_col].to_numpy()):
        by_vec.setdefault(vid, []).append(int(qid))
    cref = ray.put((by_vec, qunit))

    def exact(t: pa.Table) -> pa.Table:
        by_vec_, q_ = ray.get(cref)
        ids = t[id_col].to_numpy()
        hit = np.array([i in by_vec_ for i in ids], bool)
        if not hit.any():
            return pa.table({"qid": pa.array([], pa.int64()),
                             id_col: pa.array([], t[id_col].type),
                             "cos_sim": pa.array([], pa.float64())})
        import pyarrow.compute as pc
        mat = _unit(list_to_matrix(pc.take(
            t[vec_col], pa.array(np.flatnonzero(hit)))))
        qids, vids, sims = [], [], []
        for row, i in enumerate(np.flatnonzero(hit)):
            for qid in by_vec_[ids[i]]:
                qids.append(qid)
                vids.append(ids[i])
                sims.append(float(q_[qid] @ mat[row]))
        return pa.table({"qid": pa.array(qids, pa.int64()),
                         id_col: pa.array(vids),
                         "cos_sim": pa.array(sims, pa.float64())})

    def topk_exact_group(t: pa.Table) -> pa.Table:
        # deterministic tie-break on id (matches the SQL oracle's
        # ORDER BY c DESC, vec_id)
        return _topk(t, "cos_sim", k, id_col, dedup=True)

    return bucket_groups(ds.map_batches(exact, batch_format="pyarrow"),
                         topk_exact_group, key="qid")
