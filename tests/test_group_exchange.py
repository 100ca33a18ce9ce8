"""The group exchange (`stages/exchange.py`). Its kernels are checked
against pandas references; the battery queries whose groups run on it
are pinned to digests of their sorted frames (`test_seams.frame_digest`:
row count, dtypes and sorted CSV), recorded when each still ran its own
bucketing recipe or pandas groups, so every row, value and dtype is
kept. The dedup operators are checked on a planted near-duplicate
corpus against brute-force numpy/Python references."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from gdal_ray.pipelines import queries
from gdal_ray.stages.exchange import key_slices, topk_rows
from test_functions import SF
from test_seams import frame_digest

PINNED = {
    "count_distinct": (
        200, "25453de2548d95f9ce905da42f55c37d503ee1c2e4e07a607fadc51199c2c53b"),
    "distinct": (
        5, "dd25c259d8e4907ba127aff0f60e0fde5f834c56f4ab88ea4b01009db217d25b"),
    "exact_dedup": (
        500, "706cacba041c85e31673f3ee52406f7e831674b5257c8362230acefde8938ba5"),
    "idw_grid": (
        4, "7ac40196150d927e84481db481bc91bdd3d95339791e7da22f95954a066bd9e5"),
    "image_knn": (
        30, "c0cbc6adf656bbfa3842d4348cd78db19d3290866ef32ad032dbc67c4d3cd665"),
    "image_phash_dedup": (
        198, "ba6a248075a08410ebe666fb80b9e2b66ff049e59cf0b239807a72918fd84a47"),
    "ivf_ann": (
        20, "03f4e0fe5067fe90fe96949633a9d2495074d319c8794dc0da9299ae413fae61"),
    "kml_superoverlay": (
        213, "aa2119b33ce266144086667c381aa3c2bff26a3f653b57b6a498410b786dc8d5"),
    "minhash_near_dups": (
        28, "8668c62360550b7661383061749b184c00422e06e7cacc9993d3475300e9714f"),
    "mosaic_alpha": (
        15, "789b3844fa48845ed63e9de6e0a5a9429fd01563f1b744232c13f383c6471857"),
    "mvt_roundtrip": (
        78, "f1eea04cfc065304f17c761367f2c309908ffc8b66c72b62d0e983ae0ba709af"),
    "pq_ann": (
        20, "03f4e0fe5067fe90fe96949633a9d2495074d319c8794dc0da9299ae413fae61"),
    "running_sum": (
        6000, "150b8924422ff4a2658565b521089fa59c785e3fbc435864e33141059c13af3c"),
    "sessionize": (
        15, "8cd648007932ca7198a0940e31c8055d10ffdd72baddca93ce31ce85014bcdd9"),
    "ann_cosine": (
        10, "83fd8df000e2e2a1fbd1db7d5d3ba0ca10cfeecfe24fc4ea6804d9c0fe6aea2e"),
}


def _frame(res):
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("descending", [False, True])
def test_topk_rows_matches_pandas(descending, dedup):
    rng = np.random.default_rng(2)
    t = pa.table({"q": rng.integers(0, 6, 300), "id": rng.integers(0, 40, 300),
                  "s": rng.integers(0, 5, 300).astype(np.float64)})
    df = t.to_pandas().sort_values(["q", "s", "id"],
                                   ascending=[True, not descending, True])
    if dedup:
        df = df.drop_duplicates(["q", "id"])
        df = df.sort_values(["q", "s", "id"],
                            ascending=[True, not descending, True])
    want = df.groupby("q").head(3).reset_index(drop=True)
    got = topk_rows(t, "q", "s", 3, descending=descending, id_col="id",
                    dedup=dedup).to_pandas()
    pd.testing.assert_frame_equal(got, want)


def test_key_slices():
    t = pa.table({"k": [3, 1, 3, 2, 1], "i": [0, 1, 2, 3, 4]})
    got = [s.to_pydict() for s in key_slices(t, t["k"].to_numpy())]
    assert got == [{"k": [1, 1], "i": [1, 4]}, {"k": [2], "i": [3]},
                   {"k": [3, 3], "i": [0, 2]}]
    assert list(key_slices(t.slice(0, 0), np.empty(0, np.int64))) == []


def test_sql_distinct_dataset_any_column_name(ray_session):
    """DISTINCT's exchange carries the row as one struct column, so a
    selected column may be named like the exchange's own columns."""
    import ray.data as rd
    from gdal_ray.functions.sql import execute_sql
    t = rd.from_arrow(pa.table({"bucket": [1, 2, 1, 2, 3] * 4,
                                "row": ["a", "b", "a", "b", "c"] * 4})) \
        .repartition(3)
    out = execute_sql("SELECT DISTINCT bucket, row FROM t", {"t": t},
                      as_dataset=True).to_pandas()
    assert sorted(zip(out["bucket"], out["row"])) == [(1, "a"), (2, "b"),
                                                      (3, "c")]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_grouped_query_pinned(ray_session, name):
    df = _frame(queries.QUERIES[name](SF))
    rows, digest = PINNED[name]
    assert len(df) == rows
    assert frame_digest(df) == digest


# ---------------------------------------------------------------------------
# planted near-duplicate corpus
# ---------------------------------------------------------------------------

_WORDS = ("river stone basin ridge valley delta harbor summit meadow "
          "canyon glacier plateau lagoon marsh tundra steppe fjord atoll "
          "prairie savanna mesa butte cove inlet").split()


def _docs():
    """60 base texts, 12 near-duplicates (one word swapped or appended),
    6 exact duplicates under new ids and 2 short texts."""
    rng = np.random.default_rng(11)
    texts = [" ".join(rng.choice(_WORDS, 40)) for _ in range(60)]
    for i in range(12):
        words = texts[i].split()
        if i % 2:
            words[int(rng.integers(len(words)))] = "volcano"
        else:
            words.append("volcano")
        texts.append(" ".join(words))
    texts += [texts[20 + i] for i in range(6)] + ["bay", "bay"]
    ids = np.arange(1000, 1000 + 2 * len(texts), 2)
    rng.shuffle(ids)
    return ids.astype(np.int64), texts


def _embeddings():
    """40 random 16-d vectors, 8 planted near copies and one exact copy."""
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((40, 16))
    near = vecs[:8] + 0.01 * rng.standard_normal((8, 16))
    vecs = np.vstack([vecs, near, vecs[9:10]])
    ids = np.arange(len(vecs), dtype=np.int64) * 3 + 7
    return ids, vecs


def _blocks(table: pa.Table, n: int = 4):
    import ray.data as rd
    step = -(-table.num_rows // n)
    return rd.from_arrow([table.slice(i, step)
                          for i in range(0, table.num_rows, step)])


def _doc_ds():
    ids, texts = _docs()
    return _blocks(pa.table({"doc_id": ids, "text": texts}))


def _pairs(df, value: str, nd: int = 9) -> dict:
    return {(int(a), int(b)): round(float(v), nd)
            for a, b, v in zip(df["id_a"], df["id_b"], df[value])}


def test_exact_dedup_planted(ray_session):
    from gdal_ray.functions.dedup import exact_dedup
    ids, texts = _docs()
    first: dict[str, int] = {}
    for i, t in zip(ids.tolist(), texts):
        first[t] = min(first.get(t, i), i)
    got = exact_dedup(_doc_ds()).to_pandas()
    assert list(got.columns) == ["doc_id"]
    assert sorted(got["doc_id"].tolist()) == sorted(first.values())
    assert len(got) < len(ids)


def test_minhash_candidates_planted(ray_session):
    from gdal_ray.functions.dedup import MinHasher, minhash_candidates
    ids, texts = _docs()
    h = MinHasher()
    sigs = np.stack([h.signature(t) for t in texts])
    bands = sigs.reshape(len(texts), h.n_bands, h.rows_per_band)
    want = {}
    for a, b in itertools.combinations(range(len(texts)), 2):
        est = float((sigs[a] == sigs[b]).mean())
        if est >= 0.5 and (bands[a] == bands[b]).all(axis=1).any():
            key = (int(min(ids[a], ids[b])), int(max(ids[a], ids[b])))
            want[key] = round(est, 9)
    got = minhash_candidates(_doc_ds(), jaccard_threshold=0.5).to_pandas()
    assert _pairs(got, "est_jaccard") == want
    assert len(want) >= 18          # every planted pair and copy


def test_simhash_near_dups_planted(ray_session):
    from gdal_ray.functions.dedup import popcount64, simhash, simhash_near_dups
    ids, texts = _docs()
    hs = np.array([simhash(t) for t in texts], dtype=np.uint64)
    d = popcount64(hs[:, None] ^ hs[None, :])
    want = {(int(min(ids[a], ids[b])), int(max(ids[a], ids[b]))): int(d[a, b])
            for a, b in itertools.combinations(range(len(texts)), 2)
            if d[a, b] <= 6}
    got = simhash_near_dups(_doc_ds(), max_hamming=6).to_pandas()
    assert _pairs(got, "hamming") == want
    assert len(want) >= 7


def test_embedding_near_dups_planted(ray_session):
    from gdal_ray.functions.dedup import _hyperplanes, embedding_near_dups
    ids, vecs = _embeddings()
    thr, n_tables, bits = 0.95, 8, 8
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = unit @ unit.T
    sig = (vecs @ _hyperplanes(vecs.shape[1], n_tables * bits)) > 0
    tables = sig.reshape(len(vecs), n_tables, bits)
    want = {}
    for a, b in itertools.combinations(range(len(vecs)), 2):
        if cos[a, b] >= thr and (tables[a] == tables[b]).all(axis=1).any():
            want[(int(ids[a]), int(ids[b]))] = round(float(cos[a, b]), 9)
    got = embedding_near_dups(
        _blocks(pa.table({"vec_id": ids,
                          "embedding": pa.array(vecs.tolist(),
                                                pa.list_(pa.float64()))})),
        threshold=thr, n_tables=n_tables, bits_per_table=bits).to_pandas()
    assert _pairs(got, "cos_sim") == want
    planted = {(int(ids[i]), int(ids[40 + i])) for i in range(8)}
    assert planted | {(int(ids[9]), int(ids[48]))} <= set(want)


def test_verify_pairs_coshuffle_planted(ray_session):
    from gdal_ray.functions.dedup import (chargram_jaccard,
                                          verify_pairs_coshuffle)
    ids, texts = _docs()
    by_id = dict(zip(ids.tolist(), texts))
    rng = np.random.default_rng(3)
    cand = [(int(ids[i]), int(ids[60 + i])) for i in range(12)]
    cand += [tuple(sorted(map(int, rng.choice(ids, 2, replace=False))))
             for _ in range(30)]
    cand.append((int(ids[0]), 10 ** 6))          # no doc with that id
    cand = sorted(set(cand))
    want = {}
    for a, b in cand:
        if a in by_id and b in by_id:
            j = chargram_jaccard(by_id[a], by_id[b], 5)
            if j >= 0.5:
                want[(a, b)] = round(j, 9)
    pairs = _blocks(pa.table({"id_a": [a for a, _ in cand],
                              "id_b": [b for _, b in cand]}), 3)
    got = verify_pairs_coshuffle(pairs, _doc_ds(), k=5,
                                 threshold=0.5).to_pandas()
    assert _pairs(got, "jaccard") == want
    assert len(want) >= 12
