"""OGR SQL dialect vs DuckDB running the identical statements on the
identical data — the exact-oracle pattern at unit scale."""

import duckdb
import pyarrow as pa
import numpy as np
import pandas as pd
import pytest

from gdal_ray.functions.sql import (_parquet_source, execute_sql,
                                    parse_select)


@pytest.fixture(scope="module")
def data(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(42)
    n = 5000
    df = pd.DataFrame({
        "k": rng.integers(0, 7, n),
        "cat": rng.choice(["a", "b", "c"], n),
        "v": np.round(rng.normal(100, 25, n), 3),
        "w": rng.integers(1, 50, n),
        "name": [f"item{i:05d}" for i in range(n)],
    })
    return rd.from_pandas(df).repartition(8), df


@pytest.fixture(scope="module")
def data_pq(data, tmp_path_factory):
    """The same table as ``data``, written as four Parquet files and
    read back with read_parquet, so statements run with the reads
    narrowed to the columns and rows they need."""
    import pyarrow.parquet as pq
    import ray.data as rd
    _, df = data
    root = tmp_path_factory.mktemp("sql_pq")
    t = pa.Table.from_pandas(df, preserve_index=False)
    for i in range(4):
        pq.write_table(t.slice(i * 1250, 1250), root / f"part{i}.parquet")
    ds = rd.read_parquet(str(root))
    assert _parquet_source(ds) is not None      # the reads get narrowed
    return ds, df


STATEMENTS = [
    "SELECT name, v FROM t WHERE v > 120 AND w < 10",
    "SELECT name, v * w AS total FROM t WHERE cat = 'a' ORDER BY total DESC, name LIMIT 15",
    "SELECT DISTINCT cat FROM t",
    "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx "
    "FROM t GROUP BY k ORDER BY k",
    "SELECT cat, AVG(v) AS av FROM t WHERE w BETWEEN 5 AND 20 "
    "GROUP BY cat ORDER BY cat",
    "SELECT COUNT(*) AS n FROM t",
    "SELECT SUM(v * w) AS dot FROM t WHERE k IN (1, 3, 5)",
    "SELECT name FROM t WHERE name LIKE 'item0000_' ORDER BY name",
    "SELECT k, MAX(v) - MIN(v) AS spread FROM t GROUP BY k ORDER BY k",
    "SELECT name, v FROM t WHERE NOT (v >= 60 AND v <= 140) "
    "ORDER BY v LIMIT 25",
    "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k LIMIT 2 OFFSET 1",
    "SELECT COUNT(*) AS n, SUM(w) AS sw FROM t LIMIT 1 OFFSET 1",
    # two aggregates whose arguments share a default name ("expr")
    "SELECT SUM(CASE WHEN v > 100 THEN 1 ELSE 0 END) AS a, "
    "SUM(CASE WHEN v > 120 THEN 1 ELSE 0 END) AS b FROM t",
]


# over a=[1, 2, 3, 4, NULL], s=['x', NULL, 'y', 'x', 'z']
NULL_STATEMENTS = [
    "SELECT a, s FROM t WHERE s NOT IN ('x')",
    "SELECT a, s FROM t WHERE s NOT LIKE '%x'",
    "SELECT a, s FROM t WHERE a NOT BETWEEN 2 AND 3",
    "SELECT a, s FROM t WHERE s NOT IN (SELECT s FROM t WHERE a > 1)",
    "SELECT a, s FROM t WHERE NOT (s IN (SELECT s FROM t WHERE a > 2))",
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM t WHERE s = 'x')",
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM t WHERE s <> 'y')",
    "SELECT s FROM t WHERE a IN (SELECT a FROM t WHERE s IS NULL "
    "OR s = 'x')",
]


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def assert_matches_duckdb(ds, df, sql, **tol):
    got = canon(execute_sql(sql, {"t": ds}))
    con = duckdb.connect()
    con.register("t", df)
    want = canon(con.execute(sql).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, **tol)


class TestVsDuckdb:
    @pytest.mark.parametrize("sql", STATEMENTS,
                             ids=[s[:40] for s in STATEMENTS])
    def test_matches(self, data, sql):
        assert_matches_duckdb(*data, sql)

    @pytest.mark.parametrize("sql", STATEMENTS,
                             ids=[s[:40] for s in STATEMENTS])
    def test_matches_parquet(self, data_pq, sql):
        assert_matches_duckdb(*data_pq, sql)

    @pytest.mark.parametrize("sql", NULL_STATEMENTS,
                             ids=[s[22:62] for s in NULL_STATEMENTS])
    def test_null_inputs_three_valued(self, ray_session, tmp_path, sql):
        """NULL IN / LIKE / BETWEEN are NULL: WHERE drops the row with
        or without NOT, over memory and over a (pushed-down) Parquet
        read."""
        import pyarrow.parquet as pq
        import ray.data as rd
        t = pa.table({"a": pa.array([1, 2, 3, 4, None], pa.int64()),
                      "s": pa.array(["x", None, "y", "x", "z"])})
        pq.write_table(t, tmp_path / "t.parquet")
        for ds in (rd.from_arrow(t), rd.read_parquet(str(tmp_path))):
            assert_matches_duckdb(ds, t.to_pandas(), sql)


class TestErrors:
    def test_unknown_table(self, data):
        with pytest.raises(ValueError, match="unknown table"):
            execute_sql("SELECT k FROM missing", {"t": data[0]})

    def test_unknown_column(self, data):
        with pytest.raises(Exception):
            execute_sql("SELECT nope FROM t", {"t": data[0]})

    def test_parse_errors(self):
        for bad in ("SELECT FROM t", "SELECT a FROM", "SELECT a t",
                    "SELECT a FROM t WHERE", "FROM t SELECT a"):
            with pytest.raises(ValueError):
                parse_select(bad)


class TestZeroRowAggregates:
    def test_global_agg_empty_returns_one_row(self, data):
        ds, df = data
        sql = ("SELECT COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, "
               "AVG(v) AS av FROM t WHERE v > 1000000")
        got = execute_sql(sql, {"t": ds})
        con = duckdb.connect(); con.register("t", df)
        want = con.execute(sql).df()
        assert len(got) == 1 == len(want)
        assert got["n"].iloc[0] == 0 == want["n"].iloc[0]
        assert pd.isna(got["sv"].iloc[0]) and pd.isna(want["sv"].iloc[0])
        assert pd.isna(got["mn"].iloc[0]) and pd.isna(got["av"].iloc[0])

    def test_grouped_agg_empty_returns_zero_rows(self, data):
        ds, df = data
        sql = "SELECT k, COUNT(*) AS n FROM t WHERE v > 1000000 GROUP BY k"
        got = execute_sql(sql, {"t": ds})
        assert len(got) == 0


# ---------------------------------------------------------------------------
# property-based fuzz: random statements vs DuckDB
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

_num_col = st.sampled_from(["v", "w", "k"])
_cmp_op = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])


@st.composite
def _where(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(_num_col)
        op = draw(_cmp_op)
        lit = round(draw(st.floats(-10, 200)), 2)
        clauses.append(f"{c} {op} {lit}")
    joiner = draw(st.sampled_from([" AND ", " OR "]))
    return joiner.join(clauses)


_scalar_items = st.lists(st.sampled_from(
    ["k", "cat", "v", "w", "name", "v * w", "v + k", "w - k"]),
    min_size=1, max_size=4, unique=True)
_group = st.lists(st.sampled_from(["k", "cat"]), min_size=0, max_size=2,
                  unique=True)
_aggs = st.lists(st.sampled_from(
    ["COUNT(*)", "SUM(w)", "MIN(v)", "MAX(v)", "AVG(v)", "SUM(v * w)",
     "COUNT(w)"]), min_size=1, max_size=4, unique=True)


def _scalar_sql(where, items):
    sel = ", ".join(f"{it} AS c{i}" for i, it in enumerate(items))
    return f"SELECT {sel} FROM t WHERE {where}"


def _aggregate_sql(where, group, aggs):
    sel_items = group + [f"{a} AS a{i}" for i, a in enumerate(aggs)]
    sql = f"SELECT {', '.join(sel_items)} FROM t WHERE {where}"
    if group:
        sql += f" GROUP BY {', '.join(group)}"
    return sql


class TestFuzzVsDuckdb:
    @settings(max_examples=40, deadline=None)
    @given(_where(), _scalar_items)
    def test_scalar_queries(self, data, where, items):
        assert_matches_duckdb(*data, _scalar_sql(where, items))

    @settings(max_examples=40, deadline=None)
    @given(_where(), _group, _aggs)
    def test_aggregate_queries(self, data, where, group, aggs):
        assert_matches_duckdb(*data, _aggregate_sql(where, group, aggs),
                              atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(_where(), _scalar_items)
    def test_scalar_queries_parquet(self, data_pq, where, items):
        assert_matches_duckdb(*data_pq, _scalar_sql(where, items))

    @settings(max_examples=40, deadline=None)
    @given(_where(), _group, _aggs)
    def test_aggregate_queries_parquet(self, data_pq, where, group, aggs):
        assert_matches_duckdb(*data_pq, _aggregate_sql(where, group, aggs),
                              atol=1e-6)


class TestCountDistinctHaving:
    CASES = [
        "SELECT k, COUNT(DISTINCT cat) AS nc FROM t GROUP BY k ORDER BY k",
        "SELECT COUNT(DISTINCT k) AS nk FROM t WHERE v > 100",
        "SELECT cat, COUNT(*) AS n, COUNT(DISTINCT k) AS nk FROM t "
        "GROUP BY cat HAVING COUNT(*) > 1500 ORDER BY cat",
        "SELECT k, SUM(w) AS sw FROM t GROUP BY k "
        "HAVING SUM(w) > 17000 AND COUNT(*) > 600 ORDER BY k",
        "SELECT COUNT(DISTINCT cat) AS nc FROM t WHERE v > 1000000",
    ]

    @pytest.mark.parametrize("sql", CASES, ids=[c[:45] for c in CASES])
    def test_matches_duckdb(self, data, sql):
        assert_matches_duckdb(*data, sql)


class TestJoinStddevOffset:
    """Round-2 dialect extensions: LEFT/INNER JOIN (ogr_gensql.cpp:
    1521-1542), STDDEV_POP/STDDEV_SAMP (ogr_swq.h:67-75), OFFSET."""

    def _tabs(self):
        import ray.data as rd
        import pandas as pd
        orders = pd.DataFrame({"ok": [1, 2, 3, 4], "ck": [10, 10, 20, 99],
                               "amt": [5.0, 7.0, 11.0, 1.0]})
        cust = pd.DataFrame({"ck": [10, 20], "seg": ["A", "B"]})
        return {"orders": rd.from_pandas(orders),
                "customer": rd.from_pandas(cust)}

    def test_left_join_keeps_unmatched(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT ok, seg FROM orders LEFT JOIN customer "
            "ON orders.ck = customer.ck ORDER BY ok", self._tabs())
        assert len(out) == 4
        assert out["seg"].isna().sum() == 1     # ck=99 unmatched

    def test_inner_join_drops_unmatched(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT ok FROM orders JOIN customer ON orders.ck = customer.ck",
            self._tabs())
        assert sorted(out["ok"]) == [1, 2, 3]

    def test_join_grouped_agg(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT seg, SUM(amt) AS s FROM orders JOIN customer "
            "ON orders.ck = customer.ck GROUP BY seg ORDER BY seg",
            self._tabs())
        assert out["s"].tolist() == [12.0, 11.0]

    def test_stddev(self, ray_session):
        import numpy as np
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT STDDEV_POP(amt) AS sp, STDDEV_SAMP(amt) AS ss "
            "FROM orders", self._tabs())
        vals = np.array([5.0, 7.0, 11.0, 1.0])
        assert abs(out["sp"][0] - vals.std()) < 1e-9
        assert abs(out["ss"][0] - vals.std(ddof=1)) < 1e-9

    def test_offset(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT ok FROM orders ORDER BY ok LIMIT 2 OFFSET 1",
            self._tabs())
        assert out["ok"].tolist() == [2, 3]

    def test_stddev_single_row_samp_null(self, ray_session):
        import pandas as pd
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT STDDEV_SAMP(amt) AS ss FROM orders WHERE ok = 1",
            self._tabs())
        assert pd.isna(out["ss"][0])


class TestExtensionHooks:
    """§2.12 user-extension surface: registered SQL scalar functions
    (swq_custom_func_registrar analog) + built-ins."""

    def test_builtin_scalars(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from gdal_ray.functions.sql import execute_sql
        t = {"t": rd.from_pandas(pd.DataFrame(
            {"a": [1.234, -5.678], "s": ["x", "Yy"]}))}
        out = execute_sql(
            "SELECT ROUND(a, 1) AS r, ABS(a) AS ab, UPPER(s) AS u, "
            "LENGTH(s) AS n FROM t", t)
        assert out["r"].tolist() == [1.2, -5.7]
        assert out["u"].tolist() == ["X", "YY"]
        assert out["n"].tolist() == [1, 2]

    def test_round_of_aggregate(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from gdal_ray.functions.sql import execute_sql
        t = {"t": rd.from_pandas(pd.DataFrame({"a": [1.111, 2.222]}))}
        out = execute_sql("SELECT ROUND(SUM(a), 2) AS s FROM t", t)
        assert out["s"][0] == 3.33

    def test_custom_function_reaches_workers(self, ray_session):
        import ray.data as rd
        import pandas as pd
        from gdal_ray.functions.sql import execute_sql, register_sql_function
        from gdal_ray.functions.sql import unregister_sql_function
        register_sql_function("TRIPLE_IT", lambda v: v * 3)
        try:
            t = {"t": rd.from_pandas(pd.DataFrame({"a": [2.0, 4.0]}))}
            out = execute_sql("SELECT TRIPLE_IT(a) AS d FROM t "
                              "WHERE TRIPLE_IT(a) > 7", t)
            assert out["d"].tolist() == [12.0]
        finally:
            unregister_sql_function("TRIPLE_IT")

    def test_unregister_restores_registry(self):
        import pytest
        from gdal_ray.functions.sql import (_SQL_FUNCS,
                                            register_sql_function,
                                            unregister_sql_function)
        builtin = _SQL_FUNCS["ROUND"]
        register_sql_function("halve_it", lambda v: v / 2)
        register_sql_function("ROUND", lambda v, nd=0: v)
        unregister_sql_function("HALVE_IT")
        unregister_sql_function("round")
        assert "HALVE_IT" not in _SQL_FUNCS
        assert _SQL_FUNCS["ROUND"] is builtin
        with pytest.raises(ValueError):      # a column, then "(": no call
            parse_select("SELECT HALVE_IT(a) AS h FROM t")
        for name in ("HALVE_IT", "ROUND"):
            with pytest.raises(KeyError):
                unregister_sql_function(name)

    def test_pixel_function_registration(self):
        import numpy as np
        from gdal_ray.stages.raster_ops import (PIXEL_FUNCTIONS,
                                                pixel_function,
                                                register_pixel_function,
                                                unregister_pixel_function)
        register_pixel_function("half_sum",
                                lambda bands: np.sum(bands, axis=0) / 2.0)
        px = np.stack([np.full((4, 4), 10), np.full((4, 4), 30)],
                      axis=2).astype(np.uint8)
        try:
            out = pixel_function(px, "half_sum")
        finally:
            unregister_pixel_function("half_sum")
        assert float(out[0, 0]) == 20.0
        assert "half_sum" not in PIXEL_FUNCTIONS
        import pytest
        with pytest.raises(TypeError):
            register_pixel_function("bad", 42)
        # replacing a built-in and undoing it brings the built-in back
        builtin = PIXEL_FUNCTIONS["sum"]
        register_pixel_function("sum", lambda bands: bands[0])
        unregister_pixel_function("sum")
        assert PIXEL_FUNCTIONS["sum"] is builtin
        with pytest.raises(KeyError):
            unregister_pixel_function("sum")


class TestSqliteDialect:
    """SQLITE dialect (ogrsqliteexecutesql.cpp analog): full SQLite
    expressiveness over materialized layers."""

    def test_subquery_and_case_matches_pandas(self, data):
        from gdal_ray.functions.sql import execute_sql_sqlite
        ds, df = data
        sql = ("SELECT cat, COUNT(*) AS n, "
               "CAST(SUM(CASE WHEN v > 100 THEN 1 ELSE 0 END) AS BIGINT)"
               " AS hi FROM t WHERE k IN (SELECT DISTINCT k FROM t WHERE"
               " w > 45) GROUP BY cat ORDER BY cat")
        out = execute_sql_sqlite(sql, {"t": ds})
        keep = df[df.k.isin(df[df.w > 45].k.unique())]
        want = (keep.groupby("cat")
                .agg(n=("v", "size"), hi=("v", lambda s: (s > 100).sum()))
                .reset_index().sort_values("cat").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            out.astype({"n": "int64", "hi": "int64"}),
            want.astype({"n": "int64", "hi": "int64"}))

    def test_window_function(self, data):
        """Window functions — beyond both the native dialect AND the
        oracle intersection; sqlite executes them directly."""
        from gdal_ray.functions.sql import execute_sql_sqlite
        ds, df = data
        sql = ("SELECT name, v, RANK() OVER (PARTITION BY cat ORDER BY"
               " v DESC) AS r FROM t WHERE w = 1 ORDER BY name")
        out = execute_sql_sqlite(sql, {"t": ds})
        sub = df[df.w == 1].copy()
        sub["r"] = sub.groupby("cat")["v"].rank(
            method="min", ascending=False).astype(int)
        want = sub.sort_values("name")[["name", "v", "r"]] \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(out.astype({"r": "int64"}), want)

    def test_unreferenced_layers_not_loaded(self, data):
        from gdal_ray.functions.sql import execute_sql_sqlite

        class Boom:
            def iter_batches(self, **kw):
                raise AssertionError("unreferenced layer was materialized")

        ds, df = data
        out = execute_sql_sqlite("SELECT COUNT(*) AS n FROM t",
                                 {"t": ds, "other": Boom()})
        assert out["n"][0] == len(df)


def test_concat_substr_functions(ray_session):
    """SWQ_CONCAT / SWQ_SUBSTR (1-based, ogr/ogr_swq.h:63-64)."""
    import pyarrow as pa
    import ray.data as rd
    from gdal_ray.functions.sql import execute_sql

    t = rd.from_arrow(pa.table({"name": ["alpha", "bx", "gamma"],
                                "k": [1, 2, 3]}))
    out = execute_sql(
        "SELECT k, CONCAT(SUBSTR(name, 1, 2), '-', k) AS tag FROM t "
        "ORDER BY k", {"t": t})
    assert list(out["tag"]) == ["al-1", "bx-2", "ga-3"]
    # SUBSTR without length reads to the end; start beyond end -> ''
    out = execute_sql("SELECT k, SUBSTR(name, 3) AS s FROM t ORDER BY k",
                      {"t": t})
    assert list(out["s"]) == ["pha", "", "mma"]


def test_order_by_unselected_column(ray_session):
    """ogr_gensql.cpp sorts on layer fields even when unselected."""
    import pyarrow as pa
    import ray.data as rd
    from gdal_ray.functions.sql import execute_sql

    t = rd.from_arrow(pa.table({"name": ["c", "a", "b"], "k": [3, 1, 2]}))
    out = execute_sql("SELECT name FROM t ORDER BY k DESC", {"t": t})
    assert list(out.columns) == ["name"]
    assert list(out["name"]) == ["c", "b", "a"]


def test_unlimited_scan_streams_as_dataset(ray_session):
    """`SELECT *` over a many-block layer with as_dataset=True returns
    the lazy mapped Dataset: rows stream block-by-block, nothing is
    pulled to the driver (the 100 TB scan path)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data import Dataset
    from gdal_ray.functions.sql import execute_sql

    n = 50_000
    t = rd.from_arrow(pa.table({"k": np.arange(n, dtype=np.int64),
                                "v": np.arange(n, dtype=np.float64) * 0.5})) \
        .repartition(16)
    out = execute_sql("SELECT k, v * 2 AS v2 FROM t WHERE k >= 10", {"t": t},
                      as_dataset=True)
    assert isinstance(out, Dataset)
    total, vsum = 0, 0.0
    for b in out.iter_batches(batch_format="pyarrow"):
        total += b.num_rows
        vsum += float(np.sum(b["v2"].to_numpy()))
    assert total == n - 10
    assert vsum == float(np.arange(10, n).sum())
    # reduced shapes still come back as (wrapped) bounded results
    agg = execute_sql("SELECT SUM(k) AS s FROM t", {"t": t}, as_dataset=True)
    assert isinstance(agg, Dataset)
    assert agg.to_pandas()["s"].iloc[0] == float(np.arange(n).sum())


def test_join_broadcast_size_guard(ray_session, monkeypatch):
    """A JOIN side above JOIN_BROADCAST_LIMIT refuses to broadcast
    instead of OOMing every worker."""
    import pyarrow as pa
    import pytest
    import ray.data as rd
    from gdal_ray.functions import sql as sqlmod

    t = rd.from_arrow(pa.table({"k": [1, 2, 3], "v": [10, 20, 30]}))
    j = rd.from_arrow(pa.table({"k": [1, 2, 3], "name": ["a", "b", "c"]}))
    monkeypatch.setattr(sqlmod, "JOIN_BROADCAST_LIMIT", 2)
    with pytest.raises(ValueError, match="too large to broadcast"):
        sqlmod.execute_sql(
            "SELECT t.k, name FROM t JOIN j ON t.k = j.k",
            {"t": t, "j": j})
    monkeypatch.setattr(sqlmod, "JOIN_BROADCAST_LIMIT", 1000)
    out = sqlmod.execute_sql(
        "SELECT t.k, name FROM t JOIN j ON t.k = j.k ORDER BY k",
        {"t": t, "j": j})
    assert list(out["name"]) == ["a", "b", "c"]


class TestSubqueries:
    """IN (SELECT ...) + postfix NOT — beyond OGR SQL (swq has no
    subqueries; the SQLite dialect does)."""

    def _tables(self):
        import pandas as pd
        import ray.data as rd
        orders = rd.from_pandas(pd.DataFrame(
            {"o_id": range(20), "cust": [i % 5 for i in range(20)],
             "amt": [i * 10.0 for i in range(20)]}))
        cust = rd.from_pandas(pd.DataFrame(
            {"c_id": range(5),
             "tier": ["gold", "silver", "gold", "bronze", "gold"]}))
        return {"orders": orders, "cust": cust}

    def test_in_subquery(self, ray_session):
        r = execute_sql(
            "SELECT o_id FROM orders WHERE cust IN "
            "(SELECT c_id FROM cust WHERE tier = 'gold') ORDER BY o_id",
            self._tables())
        assert r["o_id"].tolist() == [i for i in range(20)
                                      if i % 5 in (0, 2, 4)]

    def test_not_in_subquery(self, ray_session):
        r = execute_sql(
            "SELECT o_id FROM orders WHERE cust NOT IN "
            "(SELECT c_id FROM cust WHERE tier = 'gold') ORDER BY o_id",
            self._tables())
        assert r["o_id"].tolist() == [i for i in range(20)
                                      if i % 5 in (1, 3)]

    def test_postfix_not_between_like(self, ray_session):
        r = execute_sql(
            "SELECT o_id FROM orders WHERE amt NOT BETWEEN 50 AND 150 "
            "AND cust NOT IN (1, 3) ORDER BY o_id", self._tables())
        assert r["o_id"].tolist() == [
            i for i in range(20)
            if not (50 <= i * 10 <= 150) and i % 5 not in (1, 3)]
        r2 = execute_sql(
            "SELECT tier FROM cust WHERE tier NOT LIKE 'g%' ORDER BY tier",
            self._tables())
        assert r2["tier"].tolist() == ["bronze", "silver"]

    def test_subquery_feeds_aggregate(self, ray_session):
        r = execute_sql(
            "SELECT COUNT(*) AS n, SUM(amt) AS s FROM orders WHERE cust "
            "IN (SELECT c_id FROM cust WHERE tier <> 'gold')",
            self._tables())
        assert r["n"].iloc[0] == 8 and r["s"].iloc[0] == 760.0

    def test_multi_column_subquery_rejected(self, ray_session):
        import pytest as _pytest
        with _pytest.raises(ValueError, match="exactly one"):
            execute_sql("SELECT o_id FROM orders WHERE cust IN "
                        "(SELECT c_id, tier FROM cust)", self._tables())


class TestCaseExpression:
    """CASE WHEN — searched + simple forms, in scans, aggregates, and
    as a computed GROUP BY key (beyond swq; SQLite dialect parity)."""

    def _orders(self):
        import pandas as pd
        import ray.data as rd
        return {"orders": rd.from_pandas(pd.DataFrame(
            {"o_id": range(20),
             "status": ["F" if i % 3 == 0 else "O" for i in range(20)],
             "amt": [i * 10.0 for i in range(20)]}))}

    def test_searched_case_scan(self, ray_session):
        r = execute_sql(
            "SELECT o_id, CASE WHEN amt > 150 THEN 'big' WHEN amt > 50 "
            "THEN 'mid' ELSE 'small' END AS bucket FROM orders "
            "ORDER BY o_id", self._orders())
        assert r["bucket"].tolist()[:8] == ["small"] * 6 + ["mid"] * 2
        assert r["bucket"].tolist()[-1] == "big"

    def test_simple_case(self, ray_session):
        r = execute_sql(
            "SELECT o_id, CASE status WHEN 'F' THEN 1 ELSE 0 END AS "
            "is_f FROM orders ORDER BY o_id LIMIT 6", self._orders())
        assert r["is_f"].tolist() == [1, 0, 0, 1, 0, 0]

    def test_case_inside_aggregate(self, ray_session):
        r = execute_sql(
            "SELECT status, SUM(CASE WHEN amt > 100 THEN 1 ELSE 0 END) "
            "AS n_big FROM orders GROUP BY status ORDER BY status",
            self._orders())
        assert r["n_big"].tolist() == [3, 6]

    def test_computed_group_by_key(self, ray_session):
        r = execute_sql(
            "SELECT CASE WHEN amt > 100 THEN 'hi' ELSE 'lo' END AS b, "
            "COUNT(*) AS n, SUM(amt) AS total FROM orders GROUP BY b "
            "ORDER BY b", self._orders())
        assert r["n"].tolist() == [9, 11]
        assert r["total"].tolist() == [1350.0, 550.0]

    def test_no_else_gives_null(self, ray_session):
        r = execute_sql(
            "SELECT o_id, CASE WHEN amt > 150 THEN 1 END AS flag "
            "FROM orders ORDER BY o_id", self._orders())
        import numpy as _np
        assert _np.isnan(r["flag"].iloc[0]) and r["flag"].iloc[-1] == 1.0

    def test_malformed_case(self, ray_session):
        import pytest as _pytest
        with _pytest.raises(ValueError, match="THEN|END|WHEN"):
            execute_sql("SELECT CASE WHEN amt > 1 1 END FROM orders",
                        self._orders())


class TestCast:
    def test_cast_forms(self, ray_session):
        import pandas as pd
        import ray.data as rd
        t = {"t": rd.from_pandas(pd.DataFrame(
            {"a": [1.6, 2.4, -3.5], "b": ["7", "8", "9"]}))}
        r = execute_sql(
            "SELECT CAST(a AS INTEGER) AS ai, CAST(b AS DOUBLE) AS bd, "
            "CAST(a AS VARCHAR) AS astr FROM t", t)
        assert r["ai"].tolist() == [2, 2, -4]    # banker's round like numpy
        assert r["bd"].tolist() == [7.0, 8.0, 9.0]
        assert r["astr"].tolist() == ["1.6", "2.4", "-3.5"]

    def test_cast_in_aggregate(self, ray_session):
        import pandas as pd
        import ray.data as rd
        t = {"t": rd.from_pandas(pd.DataFrame({"b": ["7", "8", "9"]}))}
        r = execute_sql("SELECT SUM(CAST(b AS DOUBLE)) AS s FROM t", t)
        assert r["s"].iloc[0] == 24.0


class TestArrowFastPath:
    """Every stage evaluates on pyarrow batches (_eval_arrow): check it
    against hand-written expected values, null corners included, and
    that one expression has one result type whatever else the SELECT
    holds."""

    def _table(self):
        return pa.table({
            "a": pa.array([1, 2, 3, None, 5], pa.int64()),
            "s": pa.array(["ax", "bx", None, "cx", "zebra"]),
            "f": pa.array([0.5, -1.5, 2.5, 3.5, None])})

    def test_parity_with_pandas_eval(self):
        from gdal_ray.functions.sql import _eval_arrow
        t = self._table()
        cases = [
            (("bin", "+", ("col", "a"), ("lit", 2)), [3, 4, 5, None, 7]),
            (("bin", "/", ("col", "a"), ("lit", 2)),
             [0.5, 1.0, 1.5, None, 2.5]),
            # a NULL condition takes the ELSE branch
            (("case", None,
              [((("bin", ">", ("col", "f"), ("lit", 0))), ("lit", "pos"))],
              ("lit", "neg")), ["pos", "neg", "pos", "pos", "neg"]),
            # NULL LIKE / IN / BETWEEN are NULL, as in DuckDB
            (("like", ("col", "s"), ("lit", "%x")),
             [True, True, None, True, False]),
            (("in_set", ("col", "a"), [1, 5]),
             [True, False, False, None, True]),
            (("between", ("col", "f"), ("lit", 0), ("lit", 3)),
             [True, False, True, False, None]),
            # no match against a list holding NULL is NULL too
            (("not", ("in_set", ("col", "a"), [1, None])),
             [False, None, None, None, None]),
            # round half to even, as numpy does
            (("cast", ("col", "f"), "INTEGER"), [0, -2, 2, 4, None]),
            (("isnull", ("col", "s")), [False, False, True, False, False]),
            (("not", ("isnull", ("col", "s"))),
             [True, True, False, True, True]),
        ]
        for e, want in cases:
            got = _eval_arrow(e, t)
            assert got.to_pylist() == want, (e[0], got.to_pylist())

    def test_type_corner_raises_value_error(self, ray_session):
        """Statements DuckDB rejects at bind time (a string compared
        with a number, mixed CASE branch types, SUM of strings) raise a
        ValueError that names the expression."""
        import re
        import ray.data as rd
        ds = rd.from_arrow(self._table())
        for sql, text in [
                ("SELECT a FROM t WHERE s = 5", "(s = 5)"),
                ("SELECT CASE WHEN f > 0 THEN 'p' ELSE 0 END AS c FROM t",
                 "CASE WHEN (f > 0) THEN 'p' ELSE 0 END"),
                ("SELECT SUM(s) AS x FROM t", "SUM(s)"),
                ("SELECT a, s = 5 AS e FROM t GROUP BY a, s", "(s = 5)")]:
            with pytest.raises(ValueError, match=re.escape(text)):
                execute_sql(sql, {"t": ds})

    def test_cast_dtype_independent_of_udf(self, ray_session):
        """CAST(a AS INTEGER) has one result type: adding a UDF item
        to the same SELECT does not change it."""
        import ray.data as rd
        from gdal_ray.functions.sql import (register_sql_function,
                                            unregister_sql_function)
        register_sql_function("PLUS_ONE", lambda v: v + 1)
        try:
            ds = rd.from_arrow(pa.table({"a": [1.4, 2.6, 3.5],
                                         "k": [1, 2, 3]}))
            plain = execute_sql("SELECT CAST(a AS INTEGER) AS ai, k FROM t "
                                "ORDER BY k", {"t": ds})
            udf = execute_sql("SELECT CAST(a AS INTEGER) AS ai, k, "
                              "PLUS_ONE(k) AS k1 FROM t ORDER BY k",
                              {"t": ds})
        finally:
            unregister_sql_function("PLUS_ONE")
        assert plain["ai"].dtype == udf["ai"].dtype == np.int64
        assert udf["ai"].tolist() == [1, 3, 4]
        assert udf["k1"].tolist() == [2, 3, 4]

    def test_scan_results_unchanged(self, ray_session):
        import ray.data as rd
        from gdal_ray.functions.sql import execute_sql
        df = pd.DataFrame({"a": np.arange(100),
                           "s": ["even", "odd"] * 50,
                           "f": np.linspace(-1, 1, 100)})
        ds = rd.from_pandas(df).repartition(4)
        q = ("SELECT a, f * 2 AS f2, CASE WHEN f > 0 THEN 'p' ELSE 'n' "
             "END AS sgn FROM t WHERE s LIKE 'ev%' AND f BETWEEN -0.5 "
             "AND 0.5 ORDER BY a LIMIT 10")
        res = execute_sql(q, {"t": ds})
        assert list(res.columns) == ["a", "f2", "sgn"]
        assert len(res) == 10
        assert (res["a"] % 2 == 0).all()
        assert ((res["f2"].abs() <= 1.0 + 1e-9)).all()
        assert set(res["sgn"]) <= {"p", "n"}


class TestPushdown:
    """A bare Parquet read is issued again with only the columns a
    statement names and the rows its pushable filters keep; every other
    source is left alone, and results never change."""

    @staticmethod
    def _write(tmp_path, name, table):
        import pyarrow.parquet as pq
        import ray.data as rd
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(table, path)
        return rd.read_parquet(path), rd.from_arrow(table)

    @staticmethod
    def _read_of(ds):
        """The columns and filter the narrowed Dataset's Read carries
        (Ray Data's private plan, as _parquet_source reads it)."""
        src = ds._logical_plan.dag._datasource
        return src._data_columns, src._to_batches_kwargs.get("filter")

    def _same(self, sql, pq_tables, mem_tables):
        got = canon(execute_sql(sql, pq_tables))
        want = canon(execute_sql(sql, mem_tables))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_column_walk_covers_every_node_kind(self):
        from gdal_ray.functions.sql import _names, _referenced
        col = ("col", "a")
        nodes = {
            "case": (("case", ("col", "op"),
                      [(("bin", ">", ("col", "cond"), ("lit", 1)),
                        ("col", "then"))], ("col", "else")),
                     {"op", "cond", "then", "else"}),
            "func": (("func", "ROUND", [col, ("lit", 2)]), {"a"}),
            "cast": (("cast", col, "INTEGER"), {"a"}),
            "in_sub": (("in_sub", col, {"items": [(("col", "z"), None)]}),
                       {"a"}),
            "in_set": (("in_set", col, ["col", "b"]), {"a"}),
            "qcol": (("qcol", "t", "b"), {"b"}),
            "agg": (("agg", "SUM", ("bin", "*", col, ("col", "w"))),
                    {"a", "w"}),
            "count_star": (("agg", "COUNT", "*"), set()),
            "between": (("between", col, ("col", "lo"), ("lit", 3)),
                        {"a", "lo"}),
            "like": (("like", ("col", "s"), ("lit", "%x")), {"s"}),
            "isnull": (("not", ("isnull", col)), {"a"}),
            "in": (("in", col, [("lit", "col"), ("col", "c")]), {"a", "c"}),
        }
        for kind, (node, want) in nodes.items():
            assert _names(node, set()) == want, kind
        q = parse_select(
            "SELECT CASE WHEN p > 1 THEN 'x' ELSE 'y' END AS bucket, "
            "COUNT(*) AS n, SUM(v_x) AS s FROM t JOIN j ON t.k = j.jk "
            "WHERE w BETWEEN 1 AND 2 GROUP BY bucket HAVING MAX(h) > 1 "
            "ORDER BY n")
        assert _referenced(q) == {"p", "bucket", "n", "v_x", "v", "k",
                                  "jk", "w", "h"}

    def test_plan_carries_pruned_columns_and_filter(self, ray_session,
                                                    tmp_path):
        from gdal_ray.functions.sql import _narrow, _parquet_source
        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"],
                      "c": [0.5, 1.5, 2.5]})
        ds, _ = self._write(tmp_path, "t", t)
        src = _parquet_source(ds)
        assert src["schema"] == t.schema
        assert src["file_cols"] == {"a", "b", "c"}
        q = parse_select("SELECT b FROM t WHERE a > 1 AND c < 2.0")
        narrowed = _narrow(ds, {"b", "zz"}, q["where"])
        cols, filt = self._read_of(narrowed)
        assert cols == ["b"]
        assert str(filt) == "((a > 1) and (c < 2))"
        assert narrowed.take_all() == [{"b": "y"}]
        # a statement that names no column still reads one
        assert self._read_of(_narrow(ds, set()))[0] == ["a"]
        # every column named and nothing pushable: the read is kept
        assert _narrow(ds, {"a", "b", "c"}) is ds

    def test_caller_columns_never_widened(self, ray_session, tmp_path):
        import ray.data as rd
        from gdal_ray.functions.sql import _narrow
        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"],
                      "c": [0.5, 1.5, 2.5]})
        self._write(tmp_path, "t", t)
        ds = rd.read_parquet(str(tmp_path / "t.parquet"), columns=["c", "a"])
        assert self._read_of(_narrow(ds, {"a", "b"}))[0] == ["a"]
        assert _narrow(ds, {"a", "b", "c"}) is ds
        with pytest.raises(ValueError, match="unknown column 'b'"):
            execute_sql("SELECT b FROM t WHERE a > 1", {"t": ds})
        out = execute_sql("SELECT a FROM t WHERE c > 1.0 ORDER BY a",
                          {"t": ds})
        assert out["a"].tolist() == [2, 3]

    def test_other_sources_untouched(self, ray_session, tmp_path):
        from gdal_ray.functions.sql import _narrow, _parquet_source
        t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        pq_ds, mem = self._write(tmp_path, "t", t)
        where = parse_select("SELECT a FROM t WHERE a > 1")["where"]
        mapped = pq_ds.map_batches(lambda b: b, batch_format="pyarrow")
        for ds in (mem, mapped, pq_ds.materialize()):
            assert _parquet_source(ds) is None
            assert _narrow(ds, {"a"}, where) is ds

    def test_suffix_clash_keeps_both_sides(self, ray_session, tmp_path):
        t = pa.table({"k": [1, 2, 3, 4], "v": [10.0, 20.0, 30.0, 40.0],
                      "u": ["p", "q", "r", "s"]})
        j = pa.table({"jk": [1, 2, 3], "v": [0.5, 0.25, 0.125],
                      "u": ["a", "b", "c"]})
        (tp, tm), (jp, jm) = (self._write(tmp_path, "t", t),
                              self._write(tmp_path, "j", j))
        pq_tabs, mem_tabs = {"t": tp, "j": jp}, {"t": tm, "j": jm}
        for sql in ["SELECT k, v_x, v_y FROM t JOIN j ON t.k = j.jk "
                    "ORDER BY k",
                    "SELECT k, v_y FROM t LEFT JOIN j ON t.k = j.jk "
                    "WHERE v_x > 15 ORDER BY k",
                    "SELECT SUM(v_x * v_y) AS s FROM t JOIN j "
                    "ON t.k = j.jk WHERE k < 4"]:
            self._same(sql, pq_tabs, mem_tabs)
        # an unsuffixed name both sides hold stays unknown, as before:
        # it is not pushed, so no filtered-out read hides the error
        for tabs in (pq_tabs, mem_tabs):
            with pytest.raises(ValueError, match="unknown column 'v'"):
                execute_sql("SELECT k FROM t JOIN j ON t.k = j.jk "
                            "WHERE v > 1000", tabs)

    def test_inner_join_keys_filter_the_probe_read(self, ray_session,
                                                   tmp_path):
        from gdal_ray.functions.sql import _join_spec, _narrow
        t = pa.table({"k": [1, 2, 3, 4, None], "x": [1, 2, 3, 4, 5]})
        j = pa.table({"jk": [2, 4, 4], "seg": ["a", "b", "c"]})
        (tp, tm), (jp, jm) = (self._write(tmp_path, "t", t),
                              self._write(tmp_path, "j", j))
        for how in ("JOIN", "LEFT JOIN"):
            sql = (f"SELECT x, seg FROM t {how} j ON t.k = j.jk "
                   "ORDER BY x, seg")
            self._same(sql, {"t": tp, "j": jp}, {"t": tm, "j": jm})
            q = parse_select(sql)
            joins = _join_spec(q, {"j": jm})
            filt = self._read_of(_narrow(tp, {"k", "x"}, None, joins))[1]
            assert (filt is None) == (how == "LEFT JOIN")

    def test_group_by_alias_and_unselected_order(self, ray_session,
                                                 tmp_path, data):
        _, df = data
        ds, _ = self._write(tmp_path, "t",
                            pa.Table.from_pandas(df, preserve_index=False))
        for sql in [
                "SELECT CASE WHEN v > 100 THEN 'hi' ELSE 'lo' END AS "
                "bucket, COUNT(*) AS n, SUM(w) AS sw FROM t WHERE k > 2 "
                "GROUP BY bucket ORDER BY bucket",
                "SELECT name FROM t WHERE w < 5 ORDER BY v DESC, name "
                "LIMIT 7",
                "SELECT name FROM t WHERE k IN (2, 3) AND w < 4 "
                "ORDER BY v"]:
            assert_matches_duckdb(ds, df, sql)
        out = execute_sql("SELECT name FROM t WHERE w < 5 ORDER BY v "
                          "DESC LIMIT 3", {"t": ds})
        assert list(out.columns) == ["name"]

    def test_empty_in_subquery_set(self, ray_session, tmp_path, data):
        _, df = data
        ds, _ = self._write(tmp_path, "t",
                            pa.Table.from_pandas(df, preserve_index=False))
        for sql in [
                "SELECT COUNT(*) AS n, SUM(v) AS sv FROM t WHERE k IN "
                "(SELECT k FROM t WHERE v > 1000000)",
                "SELECT k, COUNT(*) AS n FROM t WHERE k IN "
                "(SELECT k FROM t WHERE v > 1000000) GROUP BY k"]:
            assert_matches_duckdb(ds, df, sql)
        out = execute_sql("SELECT name, v FROM t WHERE k IN (SELECT k "
                          "FROM t WHERE v > 1000000) AND w > 1", {"t": ds})
        assert len(out) == 0 and list(out.columns) == ["name", "v"]

    def test_not_in_over_nulls_unchanged(self, ray_session, tmp_path):
        """NOT is never pushed: NOT IN reads a NULL input as the
        evaluator does, with or without the pushed IN beside it."""
        t = pa.table({"a": pa.array([1, 2, 3, 4, None, 6], pa.int64()),
                      "s": ["x", None, "y", "x", "z", None]})
        pq_ds, mem = self._write(tmp_path, "t", t)
        for sql in ["SELECT a, s FROM t WHERE s NOT IN ('x')",
                    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM t "
                    "WHERE s = 'x') AND a IN (1, 2, 3, 6)",
                    "SELECT s FROM t WHERE a IN (SELECT a FROM t WHERE "
                    "s IS NULL) AND s NOT IN ('y')"]:
            self._same(sql, {"t": pq_ds}, {"t": mem})

    def test_ill_typed_conjunct_still_raises(self, ray_session, tmp_path):
        t = pa.table({"a": [1, 2, 3], "s": ["x", "y", "z"]})
        pq_ds, mem = self._write(tmp_path, "t", t)
        for ds in (pq_ds, mem):
            with pytest.raises(ValueError, match=r"\(s = 5\)"):
                execute_sql("SELECT a FROM t WHERE s = 5 AND a > 1",
                            {"t": ds})
            with pytest.raises(ValueError, match="IN"):
                execute_sql("SELECT a FROM t WHERE a IN (1, 'x')",
                            {"t": ds})

    def test_hive_partition_columns(self, ray_session, tmp_path):
        """A partition column is read from the paths, never filtered in
        the files."""
        import pyarrow.parquet as pq
        import ray.data as rd
        t = pa.table({"cat": ["a", "b", "a", "c", "b"],
                      "v": [1.0, 2.0, 3.0, 4.0, 5.0], "w": [1, 2, 3, 4, 5]})
        pq.write_to_dataset(t, str(tmp_path / "h"), partition_cols=["cat"])
        ds = rd.read_parquet(str(tmp_path / "h"))
        assert _parquet_source(ds)["file_cols"] == {"v", "w"}
        for sql in ["SELECT cat, SUM(v) AS s FROM t WHERE cat IN ('a', "
                    "'b') AND w > 1 GROUP BY cat ORDER BY cat",
                    "SELECT v FROM t WHERE cat = 'a' ORDER BY v",
                    "SELECT COUNT(*) AS n FROM t WHERE v > 1.5"]:
            self._same(sql, {"t": ds}, {"t": rd.from_arrow(t)})
