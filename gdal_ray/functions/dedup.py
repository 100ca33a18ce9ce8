"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Each is a Ray Data composition: vectorized signature computation in
``map_batches`` → the group exchange (stages/exchange.py) on a
signature key → per-bucket Arrow resolution, which walks the fine keys
of its bucket. Shuffle keys are small integers (signatures), never the
payload — the pattern that survives 10^12 rows: the wide exchange moves
hashes, and only confirmed-candidate pairs ever touch full text again.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import bucket_groups, key_slices

_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via a byte LUT (numpy<2 has no
    bitwise_count)."""
    return _POP8[x.view(np.uint8).reshape(x.shape + (8,))].sum(axis=-1)


def _collided_pairs(ds_rows, fine_key: str, id_col: str, value: pa.Field,
                    pair_fn):
    """Exchange on `fine_key`, drop singleton fine keys vectorized, then
    per fine key `pair_fn(sub) → (i, j, v)`: the row pairs of `sub` that
    match and their `value`. Emits (id_a, id_b, value) with id_a < id_b.

    Cross-key pair dedup is the CALLER's job, done locally inside
    pair_fn via the canonical-key rule (emit a pair only in its lowest
    matching block/band, decidable from the two signatures alone) — a
    global groupby((id_a,id_b)) re-shuffle on the pair table is both an
    extra all-to-all and, with hundreds of thousands of two-key groups,
    slower than the whole rest of the pipeline."""
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), value])

    def collided_pairs_group(t: pa.Table) -> pa.Table:
        # vectorized singleton elimination: most fine keys are unique
        _, inv, n = np.unique(t[fine_key].to_numpy(), return_inverse=True,
                              return_counts=True)
        t = t.filter(pa.array(n[inv] > 1))
        out = [schema.empty_table()]
        for sub in key_slices(t, t[fine_key].to_numpy()):
            i, j, v = pair_fn(sub)
            ids = sub[id_col].to_numpy()
            out.append(pa.table([np.minimum(ids[i], ids[j]),
                                 np.maximum(ids[i], ids[j]), v],
                                schema=schema))
        return pa.concat_tables(out)

    return bucket_groups(ds_rows, collided_pairs_group, key=fine_key)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def sha1_64(s: bytes) -> int:
    return int.from_bytes(hashlib.sha1(s).digest()[:8], "big") >> 1


def exact_dedup(ds, key_col: str = "text", id_col: str = "doc_id"):
    """Keep the smallest id per identical key: hash-partition on a 64-bit
    content hash (groupby ships 8 bytes + id, not the text)."""

    def sig(t: pa.Table) -> pa.Table:
        hs = np.array([sha1_64(str(v).encode())
                       for v in t[key_col].to_pylist()], dtype=np.int64)
        return pa.table({"h": pa.array(hs, pa.int64()), id_col: t[id_col]})

    def first_per_hash_group(t: pa.Table) -> pa.Table:
        # min-per-hash of a bucket (all rows of a hash share it) as one
        # Arrow hash aggregate — no per-hash Ray group overhead
        g = t.group_by("h").aggregate([(id_col, "min")])
        return pa.table({id_col: g[f"{id_col}_min"]})

    return bucket_groups(ds.map_batches(sig, batch_format="pyarrow"),
                         first_per_hash_group, key="h")


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


class MinHasher:
    """Stateful signature stage (actor-pool friendly): permutation
    parameters are built once in __init__, signatures vectorized per
    batch. k-shingles → n_perm minhashes → n_bands LSH band keys."""

    def __init__(self, n_perm: int = 64, shingle_k: int = 5, n_bands: int = 16,
                 text_col: str = "text", id_col: str = "doc_id"):
        assert n_perm % n_bands == 0
        rng = np.random.default_rng(42)
        self.a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.n_perm, self.k, self.n_bands = n_perm, shingle_k, n_bands
        self.rows_per_band = n_perm // n_bands
        self.text_col, self.id_col = text_col, id_col

    def signature(self, text: str) -> np.ndarray:
        data = text.encode("utf-8")
        if len(data) < self.k:
            shingles = np.array([sha1_64(data)], dtype=np.uint64)
        else:
            arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
            # rolling polynomial hash of k-byte shingles (vectorized)
            h = np.zeros(len(arr) - self.k + 1, dtype=np.uint64)
            for i in range(self.k):
                h = h * np.uint64(257) + arr[i:len(arr) - self.k + 1 + i]
            shingles = np.unique(h)
        # (n_perm, n_shingles) affine hash, min over shingles
        vals = (self.a[:, None] * shingles[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def _shingles(self, text: str) -> np.ndarray:
        data = text.encode("utf-8")
        if len(data) < self.k:
            return np.array([sha1_64(data)], dtype=np.uint64)
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        h = np.zeros(len(arr) - self.k + 1, dtype=np.uint64)
        for i in range(self.k):
            h = h * np.uint64(257) + arr[i:len(arr) - self.k + 1 + i]
        return np.unique(h)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """batch → one row per (doc, band): (band_key, doc_id, sig_bytes).

        Signatures for the WHOLE batch run as one (n_perm, Σ shingles)
        affine hash + segmented min (np.minimum.reduceat) — no per-doc
        matrix calls (the round-1 per-doc loop was the hot spot)."""
        ids = batch[self.id_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        if not texts:
            return pa.table({"band_key": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64()),
                             "sig": pa.array([], pa.binary()),
                             "band": pa.array([], pa.int32())})
        shingle_lists = [self._shingles(str(t)) for t in texts]
        lens = np.array([len(s) for s in shingle_lists], np.int64)
        cat = np.concatenate(shingle_lists)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        vals = (self.a[:, None] * cat[None, :] + self.b[:, None]) \
            % np.uint64(_MERSENNE)
        sigs = np.minimum.reduceat(vals, starts, axis=1)   # (n_perm, ndocs)
        sigs = sigs.T                                       # (ndocs, n_perm)
        out_key, out_id, out_sig = [], [], []
        for i in range(len(ids)):
            sig = sigs[i]
            sig_b = sig.astype("<u8").tobytes()
            for band in range(self.n_bands):
                seg = sig[band * self.rows_per_band:(band + 1) * self.rows_per_band]
                key = sha1_64(bytes([band]) + seg.astype("<u8").tobytes())
                out_key.append(key)
                out_id.append(ids[i])
                out_sig.append(sig_b)
        bands = np.tile(np.arange(self.n_bands, dtype=np.int32), len(ids))
        return pa.table({"band_key": pa.array(out_key, pa.int64()),
                         self.id_col: pa.array(out_id),
                         "sig": pa.array(out_sig, pa.binary()),
                         "band": pa.array(bands, pa.int32())})


def minhash_candidates(ds, *, n_perm=64, shingle_k=5, n_bands=16,
                       text_col="text", id_col="doc_id", jaccard_threshold=0.7):
    """MinHash LSH near-dup candidate pairs with signature-estimated
    Jaccard ≥ threshold. Pipeline: signatures+bands (map_batches on an
    actor pool) → groupby(band_key) pairs → estimate jaccard from full
    signatures → global pair dedup."""
    hasher = MinHasher(n_perm, shingle_k, n_bands, text_col, id_col)
    rpb = hasher.rows_per_band

    def pairs(sub: pa.Table):
        band = sub["band"][0].as_py()
        sigs = np.frombuffer(b"".join(sub["sig"].to_pylist()),
                             dtype="<u8").reshape(sub.num_rows, -1)
        # pairwise signature-agreement fraction, fully vectorized
        eq = sigs[:, None, :] == sigs[None, :, :]
        est = eq.mean(axis=2)
        hit = np.triu(est >= jaccard_threshold, k=1)
        # canonical-band dedup: emit a pair only in the lowest band whose
        # segments agree — decidable from the signatures, no re-shuffle
        for lower in range(band):
            hit &= ~eq[:, :, lower * rpb:(lower + 1) * rpb].all(axis=2)
        ii, jj = np.nonzero(hit)
        return ii, jj, est[ii, jj]

    rows = ds.map_batches(hasher, batch_format="pyarrow", concurrency=4)
    return _collided_pairs(rows, "band_key", id_col,
                           pa.field("est_jaccard", pa.float64()), pairs)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_SIMHASH_B = 1099511628211


def simhash(text: str, k: int = 4) -> int:
    """64-bit SimHash over k-CODEPOINT shingles (weighted bit voting).

    The shingle hash is a plain degree-(k-1) polynomial in the unicode
    codepoints mod 2^64 — deliberately simple so an independent SQL
    oracle can recompute the identical signature with HUGEINT modular
    arithmetic (see pipelines/oracles.py sql_simhash_pairs)."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    if len(cp) < k:
        return sha1_64(text.encode()) & 0xFFFFFFFFFFFFFFFF
    h = np.zeros(len(cp) - k + 1, dtype=np.uint64)
    for i in range(k):
        h = h * np.uint64(_SIMHASH_B) + cp[i:len(cp) - k + 1 + i]
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1))
    votes = bits.sum(axis=0).astype(np.int64) * 2 - np.int64(len(h))
    return int((votes > 0).astype(np.uint64) @ (np.uint64(1) << np.arange(64, dtype=np.uint64)))


def simhash_near_dups(ds, *, text_col="text", id_col="doc_id", max_hamming=3):
    """Near-dup candidates with Hamming distance ≤ max_hamming.

    Pigeonhole with (max_hamming + 1) bit blocks: if d(a, b) ≤ k then
    at least one of k+1 disjoint blocks matches exactly — FULL recall
    for the stated radius (a fixed 4-block split would only guarantee
    d ≤ 3). Block widths divide the 64 bits as evenly as possible."""
    nb = max(2, int(max_hamming) + 1)
    base_w = 64 // nb
    rem = 64 % nb
    widths = np.array([base_w + 1] * rem + [base_w] * (nb - rem), np.uint64)
    offs = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.uint64)
    masks = ((np.uint64(1) << widths) - np.uint64(1))

    def sig(t: pa.Table) -> pa.Table:
        n = t.num_rows
        hs = np.array([simhash(str(x)) for x in t[text_col].to_pylist()],
                      dtype=np.uint64)
        ids = t[id_col].to_numpy()
        blk = np.repeat(np.arange(nb, dtype=np.uint64), n)
        hrep = np.tile(hs, nb)
        part = (hrep >> np.repeat(offs, n)) & np.repeat(masks, n)
        # widths ≤ 33 bits for nb ≥ 2 → (blk << 58) | part is collision
        # free in an int64 key
        keys = ((blk << np.uint64(58)) | part).view(np.int64)
        return pa.table({"block_key": pa.array(keys, pa.int64()),
                         id_col: pa.array(np.tile(ids, nb)),
                         "simhash": pa.array(hrep.view(np.int64), pa.int64())})

    def pairs(sub: pa.Table):
        blk = int(np.uint64(sub["block_key"][0].as_py()) >> np.uint64(58))
        ids = sub[id_col].to_numpy()
        hs = sub["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        x = hs[:, None] ^ hs[None, :]
        d = popcount64(x).astype(np.int64)
        hit = np.triu(d <= max_hamming, k=1) & (ids[:, None] != ids[None, :])
        # canonical-block dedup: a pair matches in every block where its
        # XOR bits are zero; emit only in the LOWEST such block, so each
        # pair appears exactly once globally with no extra shuffle
        for lower in range(blk):
            hit &= (x >> offs[lower]) & masks[lower] != 0
        ii, jj = np.nonzero(hit)
        return ii, jj, d[ii, jj]

    rows = ds.map_batches(sig, batch_format="pyarrow")
    return _collided_pairs(rows, "block_key", id_col,
                           pa.field("hamming", pa.int64()), pairs)


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact, for candidate verification)
# ---------------------------------------------------------------------------

def ngram_set(text: str, k: int = 5) -> np.ndarray:
    data = text.encode("utf-8")
    if len(data) < k:
        return np.array([sha1_64(data)], dtype=np.uint64)
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    h = np.zeros(len(arr) - k + 1, dtype=np.uint64)
    for i in range(k):
        h = h * np.uint64(257) + arr[i:len(arr) - k + 1 + i]
    return np.unique(h)


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def chargram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact Jaccard over DISTINCT character k-grams (no hashing) —
    bit-identical to a SQL oracle computing
    COUNT(DISTINCT substr(text, g, k)) set arithmetic."""
    if len(text_a) < k or len(text_b) < k:
        return 1.0 if text_a == text_b else 0.0
    sa = {text_a[i:i + k] for i in range(len(text_a) - k + 1)}
    sb = {text_b[i:i + k] for i in range(len(text_b) - k + 1)}
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def verify_pairs_chargram(ds_pairs, docs_by_id: dict, k: int = 5,
                          threshold: float = 0.5):
    """Exact char-k-gram Jaccard verification of candidate pairs against
    a broadcast doc lookup. Emits (id_a, id_b, jaccard) for pairs at or
    above threshold. Broadcast is fine only while the doc side fits in
    a worker heap; the 100 TB path co-shuffles texts by pair key."""
    import ray

    ref = ray.put(docs_by_id)

    def verify(t: pa.Table) -> pa.Table:
        docs = ray.get(ref)
        keep, jac = [], []
        for ia, ib in zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()):
            j = chargram_jaccard(docs[ia], docs[ib], k)
            keep.append(j >= threshold)
            jac.append(j)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "jaccard": pa.array(jac, pa.float64())})
        return out.filter(pa.array(keep))

    return ds_pairs.map_batches(verify, batch_format="pyarrow")


def verify_pairs_jaccard(ds_pairs, docs_by_id: dict, k: int = 5,
                         threshold: float = 0.7):
    """Exact-Jaccard verification of candidate pairs against a broadcast
    doc lookup (small side shipped once via ray.put)."""
    import ray

    ref = ray.put(docs_by_id)

    def verify(t: pa.Table) -> pa.Table:
        docs = ray.get(ref)
        keep, jac = [], []
        for ia, ib in zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()):
            j = jaccard(ngram_set(docs[ia], k), ngram_set(docs[ib], k))
            keep.append(j >= threshold)
            jac.append(j)
        out = t.append_column("jaccard", pa.array(jac, pa.float64()))
        return out.filter(pa.array(keep))

    return ds_pairs.map_batches(verify, batch_format="pyarrow")


def verify_pairs_coshuffle(ds_pairs, ds_docs, *, text_col: str = "text",
                           id_col: str = "doc_id", k: int = 5,
                           threshold: float = 0.5,
                           scorer: str = "chargram"):
    """Exact-Jaccard verification of candidate pairs WITHOUT broadcasting
    the corpus — the 100 TB path (reference semantics identical to the
    broadcast variants above).

    Two bounded exchanges, texts only ever inside the cluster:

    1. **co-shuffle by doc id** — each candidate pair flat-maps to two
       request rows ``(doc_id, id_a, id_b)``; doc texts map to
       ``(doc_id, text)`` rows; the union is salt-bucketed on doc id and
       each group attaches the text to the requests naming it. Exchange
       volume ≈ 1× corpus + 2 rows/pair.
    2. **co-shuffle by pair** — attached rows re-bucket on a hash of
       ``(id_a, id_b)``; each fine pair now holds exactly its two texts
       → exact Jaccard, filter at ``threshold``. Exchange volume ≈ one
       text per pair side.

    No task ever holds more than its bucket's partition; the driver only
    sees the verified-pair result. ``scorer``: ``"chargram"`` = exact
    distinct char-k-grams (SQL-oracle-identical), ``"ngram"`` = hashed
    byte k-grams (matches :func:`verify_pairs_jaccard`)."""
    if scorer == "chargram":
        def score(a: str, b: str) -> float:
            return chargram_jaccard(a, b, k)
    else:
        def score(a: str, b: str) -> float:
            return jaccard(ngram_set(a, k), ngram_set(b, k))

    def requests(t: pa.Table) -> pa.Table:
        ia = t["id_a"].to_numpy().astype(np.int64)
        ib = t["id_b"].to_numpy().astype(np.int64)
        did = np.concatenate([ia, ib])
        ia2 = np.concatenate([ia, ia])
        ib2 = np.concatenate([ib, ib])
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "id_a": pa.array(ia2, pa.int64()),
            "id_b": pa.array(ib2, pa.int64()),
            "text": pa.array([None] * len(did), pa.large_string()),
            "kind": pa.array(np.ones(len(did), np.int8), pa.int8())})

    def doc_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table({
            "doc_id": t[id_col].combine_chunks().cast(pa.int64()),
            "id_a": z, "id_b": z,
            "text": t[text_col].combine_chunks().cast(pa.large_string()),
            "kind": pa.array(np.zeros(n, np.int8), pa.int8())})

    def attach_group(t: pa.Table) -> pa.Table:
        docs = t.filter(pc.and_(pc.equal(t["kind"], 0),
                                pc.is_valid(t["text"])))
        reqs = t.filter(pc.equal(t["kind"], 1))
        at = pc.index_in(reqs["doc_id"],
                         value_set=docs["doc_id"].combine_chunks())
        reqs = reqs.filter(pc.is_valid(at))
        ia, ib = reqs["id_a"].to_numpy(), reqs["id_b"].to_numpy()
        return pa.table({
            "id_a": reqs["id_a"], "id_b": reqs["id_b"],
            # the exchange key of the pair's two texts
            "pair": pa.array((ia * np.int64(0x9E3779B1)) ^ ib, pa.int64()),
            "is_a": pc.equal(reqs["doc_id"], reqs["id_a"]),
            "side_text": docs["text"].take(at.drop_null())})

    def score_group(t: pa.Table) -> pa.Table:
        sides: dict = {}
        for ia, ib, is_a, text in zip(*(t[c].to_pylist() for c in (
                "id_a", "id_b", "is_a", "side_text"))):
            sides.setdefault((ia, ib), {}).setdefault(is_a, text)
        out = {"id_a": [], "id_b": [], "jaccard": []}
        for (ia, ib), s in sides.items():
            if len(s) < 2:
                continue            # a side's doc was missing from ds_docs
            j = score(s[True], s[False])
            if j >= threshold:
                for c, v in zip(out, (ia, ib, j)):
                    out[c].append(v)
        return pa.table({"id_a": pa.array(out["id_a"], pa.int64()),
                         "id_b": pa.array(out["id_b"], pa.int64()),
                         "jaccard": pa.array(out["jaccard"], pa.float64())})

    mixed = ds_docs.map_batches(doc_rows, batch_format="pyarrow").union(
        ds_pairs.map_batches(requests, batch_format="pyarrow"))
    attached = bucket_groups(mixed, attach_group, key="doc_id")
    return bucket_groups(attached, score_group, key="pair")


# broadcast is cheaper while the whole corpus fits comfortably in a
# worker heap; above this many docs the co-shuffle path takes over
_BROADCAST_DOC_LIMIT = 200_000


def verify_pairs(ds_pairs, ds_docs, *, text_col: str = "text",
                 id_col: str = "doc_id", k: int = 5, threshold: float = 0.5,
                 scorer: str = "chargram",
                 broadcast_limit: int = _BROADCAST_DOC_LIMIT):
    """Dispatch exact pair verification: broadcast the doc lookup when
    the doc side is small (one ``ray.put``, zero extra shuffles), else
    the :func:`verify_pairs_coshuffle` scale path."""
    n_docs = ds_docs.count()
    if n_docs <= broadcast_limit:
        ddf = ds_docs.select_columns([id_col, text_col]).to_pandas()
        docs = dict(zip(ddf[id_col], ddf[text_col]))
        fn = verify_pairs_chargram if scorer == "chargram" \
            else verify_pairs_jaccard
        return fn(ds_pairs, docs, k=k, threshold=threshold)
    return verify_pairs_coshuffle(ds_pairs, ds_docs, text_col=text_col,
                                  id_col=id_col, k=k, threshold=threshold,
                                  scorer=scorer)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _hyperplanes(dim: int, total_bits: int) -> np.ndarray:
    """The random-hyperplane matrix, drawn once per worker process."""
    return np.random.default_rng(7).standard_normal((dim, total_bits))


def embedding_near_dups(ds, *, vec_col="embedding", id_col="vec_id",
                        threshold=0.95, n_tables=8, bits_per_table=8):
    """Near-dup pairs by cosine ≥ threshold via MULTI-TABLE
    random-hyperplane LSH + exact verification in-bucket.

    A single b-bit key finds a cos=θ pair only with probability
    (1 − acos(θ)/π)^b (~8% at θ=0.9, b=16); n_tables independent keys
    raise recall to 1 − (1 − p)^T (~0.97 at T=8, b=8 for θ=0.9).
    Cross-table pair dedup is LOCAL (canonical-table rule: emit only in
    the lowest table whose keys agree, decidable from the stored bit
    signatures) — no re-shuffle."""
    total_bits = n_tables * bits_per_table

    def signatures(t: pa.Table) -> pa.Table:
        from .ann import list_to_matrix
        mat = list_to_matrix(t[vec_col])
        return _sig_table(t, mat, _hyperplanes(mat.shape[1], total_bits))

    def _sig_table(t: pa.Table, mat: np.ndarray, planes: np.ndarray) -> pa.Table:
        bits = (mat @ planes) > 0
        full = (bits.astype(np.uint64)
                @ (np.uint64(1) << np.arange(total_bits, dtype=np.uint64)))
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        unit = mat / np.maximum(norm, 1e-300)
        n = mat.shape[0]
        tb = np.repeat(np.arange(n_tables, dtype=np.uint64), n)
        frep = np.tile(full, n_tables)
        part = (frep >> (tb * np.uint64(bits_per_table))) \
            & np.uint64((1 << bits_per_table) - 1)
        keys = ((tb << np.uint64(58)) | part).view(np.int64)
        ids_rep = pa.concat_arrays([t[id_col].combine_chunks()] * n_tables)
        return pa.table({"plane_key": pa.array(keys, pa.int64()),
                         id_col: ids_rep,
                         "bits": pa.array(frep.view(np.int64), pa.int64()),
                         "unit": pa.array(np.tile(unit, (n_tables, 1)).tolist(),
                                          pa.list_(pa.float64()))})

    mask = np.uint64((1 << bits_per_table) - 1)

    def pairs(g: pa.Table):
        from .ann import list_to_matrix
        table = int(np.uint64(g["plane_key"][0].as_py()) >> np.uint64(58))
        ids = g[id_col].to_numpy()
        mat = list_to_matrix(g["unit"])
        bits = g["bits"].to_numpy().astype(np.int64).view(np.uint64)
        cos = mat @ mat.T
        hit = np.triu(cos >= threshold, k=1) & (ids[:, None] != ids[None, :])
        # canonical-table dedup: emit only in the lowest table whose
        # key slices agree for the pair
        x = bits[:, None] ^ bits[None, :]
        for lower in range(table):
            hit &= (x >> np.uint64(lower * bits_per_table)) & mask != 0
        ii, jj = np.nonzero(hit)
        return ii, jj, cos[ii, jj]

    rows = ds.map_batches(signatures, batch_format="pyarrow")
    return _collided_pairs(rows, "plane_key", id_col,
                           pa.field("cos_sim", pa.float64()), pairs)
