"""OGR SQL dialect — a single-table SELECT engine over Ray Datasets.

Reference semantics: the OGR SQL engine (`ogr/ogr_swq.h` grammar,
`ogr/ogrsf_frmts/generic/ogr_gensql.cpp` execution): SELECT list with
arithmetic and AVG/MIN/MAX/COUNT/SUM aggregates (ogr_swq.h:67-75),
DISTINCT (SWQM_DISTINCT_LIST :320), WHERE with AND/OR/NOT/IN/BETWEEN/
LIKE (swq_op_registrar.cpp), ORDER BY multi-key (:400-407), LIMIT
(:479-483). OGR's dialect has *global-only* aggregates; we add GROUP BY
(free on Ray) as the natural superset.

Compilation is Ray-Data-first, and every stage runs on pyarrow
batches through one expression evaluator (`_eval_arrow`):
  * JOIN → the secondary table broadcasts once; each batch hash-joins
    it (`pa.Table.join`);
  * WHERE / projections → vectorized pyarrow.compute inside map_batches;
  * aggregates → per-batch `pa.Table.group_by` PARTIALS (sum/count/
    min/max/distinct per group) combined by one more group_by
    driver-side — grouped results are assumed small, the scan is the
    big side and it streams; HAVING and the select items then evaluate
    on the combined table;
  * DISTINCT → per-batch dedup partial + driver-side final;
  * ORDER BY + LIMIT → per-batch partial top-k; ORDER BY alone sorts
    the (already reduced) result driver-side.
Scalar functions, built-in or registered, receive numpy arrays (or
plain scalars for literal arguments) and return an array or a scalar.

The DuckDB correctness oracle runs the *same SQL string* — the dialect
is intersection-compatible by construction.
"""

from __future__ import annotations

import copy
import functools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<num>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+|\d+)
    | (?P<str>'(?:[^']|'')*')
    | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|/|\+|-|\.)
    )""", re.VERBOSE)

_KEYWORDS = {"SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY",
             "ORDER", "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN",
             "BETWEEN", "LIKE", "ASC", "DESC", "IS", "NULL", "HAVING",
             "JOIN", "LEFT", "INNER", "ON"}
_AGGS = {"MIN", "MAX", "SUM", "AVG", "COUNT", "STDDEV_POP", "STDDEV_SAMP"}

# scalar function registry — built-ins + the user-extension hook
# (swq_custom_func_registrar, ogr/ogr_swq.h:126,418)
_SQL_FUNCS = {
    "ROUND": lambda v, nd=0: np.round(np.asarray(v, dtype=np.float64),
                                      int(nd)),
    "ABS": lambda v: np.abs(v),
    "SQRT": lambda v: np.sqrt(np.asarray(v, dtype=np.float64)),
    "FLOOR": lambda v: np.floor(np.asarray(v, dtype=np.float64)),
    "CEIL": lambda v: np.ceil(np.asarray(v, dtype=np.float64)),
    "UPPER": lambda v: pd.Series(np.asarray(v, dtype=object)).astype(str)
        .str.upper().to_numpy(),
    "LOWER": lambda v: pd.Series(np.asarray(v, dtype=object)).astype(str)
        .str.lower().to_numpy(),
    "LENGTH": lambda v: pd.Series(np.asarray(v, dtype=object)).astype(str)
        .str.len().to_numpy(),
    "COALESCE": lambda *vs: np.where(
        pd.isna(np.asarray(vs[0], dtype=object)),
        vs[1] if len(vs) > 1 else None, vs[0]),
    # SWQ_CONCAT / SWQ_SUBSTR (ogr/ogr_swq.h:63-64); SUBSTR is 1-based
    # like the reference (and DuckDB)
    "CONCAT": lambda *vs: _str_concat(*vs),
    "SUBSTR": lambda v, start, n=None: _substr(v, start, n),
}


def _str_concat(*vs):
    out = pd.Series(np.asarray(vs[0], dtype=object)).astype(str)
    for v in vs[1:]:
        if np.ndim(v) == 0:
            out = out + str(v)
        else:
            out = out + pd.Series(np.asarray(v, dtype=object)).astype(str)
    return out.to_numpy()


def _substr(v, start, n=None):
    s = pd.Series(np.asarray(v, dtype=object)).astype(str)
    b = int(start) - 1
    out = s.str.slice(b, None if n is None else b + int(n))
    return out.to_numpy()


_BUILTIN_FUNCS = dict(_SQL_FUNCS)


def register_sql_function(name: str, fn) -> None:
    """Register a scalar SQL function usable in any expression of the
    dialect. It is called with one numpy array per column argument (a
    plain Python scalar for a literal one) and returns an array of the
    batch's length or a scalar; NaN in its result reads as NULL.
    ``unregister_sql_function`` undoes it."""
    if not callable(fn):
        raise TypeError("sql function must be callable")
    _SQL_FUNCS[name.upper()] = fn


def unregister_sql_function(name: str) -> None:
    """Undo ``register_sql_function``: the name is unknown again, or a
    built-in it replaced is back. KeyError when nothing is registered
    under the name."""
    key = name.upper()
    if key not in _SQL_FUNCS or _SQL_FUNCS[key] is _BUILTIN_FUNCS.get(key):
        raise KeyError(f"no registered sql function {name!r}")
    if key in _BUILTIN_FUNCS:
        _SQL_FUNCS[key] = _BUILTIN_FUNCS[key]
    else:
        del _SQL_FUNCS[key]


def tokenize(sql: str):
    out, i = [], 0
    while i < len(sql):
        m = _TOKEN_RE.match(sql, i)
        if not m:
            if sql[i:].strip() == "":
                break
            raise ValueError(f"SQL tokenize error at {i}: {sql[i:i+12]!r}")
        i = m.end()
        if m.group("num") is not None:
            v = m.group("num")
            out.append(("num", float(v) if ("." in v or "e" in v.lower())
                        else int(v)))
        elif m.group("str") is not None:
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.group("id") is not None:
            w = m.group("id")
            out.append(("kw", w.upper()) if w.upper() in _KEYWORDS
                       or w.upper() in _AGGS else ("id", w))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", ""))
    return out


class _P:
    def __init__(self, toks):
        self.t = toks
        self.i = 0

    def peek(self):
        return self.t[self.i]

    def next(self):
        tok = self.t[self.i]
        self.i += 1
        return tok

    def accept(self, kind, val=None):
        k, v = self.t[self.i]
        if k == kind and (val is None or v == val):
            self.i += 1
            return v
        return None

    def expect(self, kind, val=None):
        got = self.accept(kind, val)
        if got is None:
            raise ValueError(f"SQL parse error near {self.t[self.i]}: "
                             f"expected {val or kind}")
        return got


# AST: ("col", name) ("lit", v) ("bin", op, l, r) ("agg", fn, expr|"*")
# ("not", e) ("in", e, [lits]) ("between", e, lo, hi) ("like", e, pat)

def _parse_or(p):
    l = _parse_and(p)
    while p.accept("kw", "OR"):
        l = ("bin", "OR", l, _parse_and(p))
    return l


def _parse_and(p):
    l = _parse_not(p)
    while p.accept("kw", "AND"):
        l = ("bin", "AND", l, _parse_not(p))
    return l


def _parse_not(p):
    if p.accept("kw", "NOT"):
        return ("not", _parse_not(p))
    return _parse_cmp(p)


def _parse_cmp(p):
    l = _parse_add(p)
    k, v = p.peek()
    if k == "op" and v in ("=", "<>", "!=", "<", "<=", ">", ">="):
        p.next()
        return ("bin", v, l, _parse_add(p))
    negate = False
    if p.peek() == ("kw", "NOT"):
        # postfix negation: x NOT IN (...) / NOT LIKE / NOT BETWEEN
        nk, nv = p.t[p.i + 1] if p.i + 1 < len(p.t) else (None, None)
        if nk == "kw" and nv in ("IN", "BETWEEN", "LIKE"):
            p.next()
            negate = True

    def _maybe_not(node):
        return ("not", node) if negate else node

    if p.accept("kw", "IN"):
        p.expect("op", "(")
        if p.peek() == ("kw", "SELECT"):
            # IN (SELECT ...) subquery — beyond the reference's OGR SQL
            # (its dialect has no subqueries; the SQLite dialect does);
            # resolved to a broadcast value set at execution
            sub = _parse_select_body(p)
            p.expect("op", ")")
            return _maybe_not(("in_sub", l, sub))
        lits = [_parse_add(p)]
        while p.accept("op", ","):
            lits.append(_parse_add(p))
        p.expect("op", ")")
        return _maybe_not(("in", l, lits))
    if p.accept("kw", "BETWEEN"):
        lo = _parse_add(p)
        p.expect("kw", "AND")
        return _maybe_not(("between", l, lo, _parse_add(p)))
    if p.accept("kw", "LIKE"):
        return _maybe_not(("like", l, _parse_add(p)))
    if p.accept("kw", "IS"):
        neg = p.accept("kw", "NOT") is not None
        p.expect("kw", "NULL")
        node = ("isnull", l)
        return ("not", node) if neg else node
    return l


def _parse_add(p):
    l = _parse_mul(p)
    while True:
        k, v = p.peek()
        if k == "op" and v in ("+", "-"):
            p.next()
            l = ("bin", v, l, _parse_mul(p))
        else:
            return l


def _parse_mul(p):
    l = _parse_atom(p)
    while True:
        k, v = p.peek()
        if k == "op" and v in ("*", "/"):
            p.next()
            l = ("bin", v, l, _parse_atom(p))
        else:
            return l


def _parse_atom(p):
    k, v = p.peek()
    if k == "num" or k == "str":
        p.next()
        return ("lit", v)
    if k == "op" and v == "-":
        p.next()
        return ("bin", "*", ("lit", -1), _parse_atom(p))
    if k == "op" and v == "(":
        p.next()
        e = _parse_or(p)
        p.expect("op", ")")
        return e
    if k == "kw" and v in _AGGS:
        p.next()
        p.expect("op", "(")
        if v == "COUNT" and p.accept("op", "*"):
            p.expect("op", ")")
            return ("agg", "COUNT", "*")
        if v == "COUNT" and p.accept("kw", "DISTINCT"):
            inner = _parse_add(p)
            p.expect("op", ")")
            return ("agg", "COUNTD", inner)
        inner = _parse_add(p)
        p.expect("op", ")")
        return ("agg", v, inner)
    if k == "id" and v.upper() == "CAST":
        nk, nv = p.t[p.i + 1] if p.i + 1 < len(p.t) else ("end", "")
        if nk == "op" and nv == "(":
            p.next()
            p.next()
            inner = _parse_add(p)
            p.expect("kw", "AS")
            ty = p.expect("id").upper()
            p.expect("op", ")")
            return ("cast", inner, ty)
    if k == "id" and v.upper() == "CASE":
        # CASE [operand] WHEN a THEN b ... [ELSE e] END — both the
        # searched and the simple form (swq has neither; DuckDB and the
        # SQLite dialect do, and the oracle strings run in both)
        p.next()

        def _kw(word):
            kk, vv = p.peek()
            if kk == "id" and vv.upper() == word:
                p.next()
                return True
            return False

        operand = None
        if not (p.peek()[0] == "id" and p.peek()[1].upper() == "WHEN"):
            operand = _parse_add(p)
        whens = []
        while _kw("WHEN"):
            cond = _parse_or(p)
            if not _kw("THEN"):
                raise ValueError("CASE missing THEN")
            whens.append((cond, _parse_add(p)))
        els = _parse_add(p) if _kw("ELSE") else None
        if not _kw("END"):
            raise ValueError("CASE missing END")
        if not whens:
            raise ValueError("CASE with no WHEN branches")
        return ("case", operand, whens, els)
    if k == "id":
        nk, nv = p.t[p.i + 1] if p.i + 1 < len(p.t) else ("end", "")
        if nk == "op" and nv == "(" and v.upper() in _SQL_FUNCS:
            p.next()
            p.next()
            args = [_parse_add(p)]
            while p.accept("op", ","):
                args.append(_parse_add(p))
            p.expect("op", ")")
            return ("func", v.upper(), args)
        p.next()
        if p.accept("op", "."):
            # qualified reference tbl.col: the qualifier attributes JOIN
            # keys to their table; outside ON clauses it resolves to the
            # bare column (the merged frame keeps original names)
            col = p.expect("id")
            return ("qcol", v, col)
        return ("col", v)
    raise ValueError(f"SQL parse error at token {p.peek()}")


def parse_select(sql: str) -> dict:
    p = _P(tokenize(sql))
    q = _parse_select_body(p)
    p.expect("end")
    return q


def _parse_select_body(p: "_P") -> dict:
    """SELECT statement from an open token stream (also entered
    recursively for IN (SELECT ...) subqueries, which stop at the
    closing parenthesis)."""
    p.expect("kw", "SELECT")
    distinct = p.accept("kw", "DISTINCT") is not None
    items = []
    while True:
        # full predicate level: select items may be boolean expressions
        # (comparisons, IN / IN (SELECT ...), LIKE, BETWEEN)
        e = _parse_or(p)
        alias = None
        if p.accept("kw", "AS"):
            alias = p.expect("id")
        items.append((e, alias))
        if not p.accept("op", ","):
            break
    p.expect("kw", "FROM")
    table = p.expect("id")
    joins = []
    while True:
        if p.accept("kw", "LEFT"):
            p.expect("kw", "JOIN")
            how = "left"
        elif p.accept("kw", "INNER"):
            p.expect("kw", "JOIN")
            how = "inner"
        elif p.accept("kw", "JOIN"):
            how = "inner"
        else:
            break
        jt = p.expect("id")
        p.expect("kw", "ON")
        on = _parse_or(p)
        joins.append((jt, how, on))
    where = group = having = None
    order, limit = [], None
    if p.accept("kw", "WHERE"):
        where = _parse_or(p)
    if p.accept("kw", "GROUP"):
        p.expect("kw", "BY")
        group = [p.expect("id")]
        while p.accept("op", ","):
            group.append(p.expect("id"))
    if p.accept("kw", "HAVING"):
        having = _parse_or(p)
    if p.accept("kw", "ORDER"):
        p.expect("kw", "BY")
        while True:
            col = p.expect("id")
            desc = False
            if p.accept("kw", "DESC"):
                desc = True
            else:
                p.accept("kw", "ASC")
            order.append((col, desc))
            if not p.accept("op", ","):
                break
    offset = 0
    if p.accept("kw", "LIMIT"):
        limit = int(p.expect("num"))
        if p.accept("kw", "OFFSET"):
            offset = int(p.expect("num"))
    return {"distinct": distinct, "items": items, "table": table,
            "joins": joins, "where": where, "group": group,
            "having": having, "order": order, "limit": limit,
            "offset": offset}


# ---------------------------------------------------------------------------
# expression evaluation over a pyarrow table (vectorized)
# ---------------------------------------------------------------------------

def _is_array(v) -> bool:
    return isinstance(v, (pa.Array, pa.ChunkedArray))


def _column(v, n: int):
    """An evaluated value as an n-row Arrow column (scalars broadcast)."""
    if _is_array(v):
        return v
    return pa.repeat(v if isinstance(v, pa.Scalar) else pa.scalar(v), n)


def _aw_bool(v):
    if _is_array(v):
        return v if pa.types.is_boolean(v.type) else pc.cast(v, pa.bool_())
    return pa.scalar(bool(v))


def _f64(v):
    return pc.cast(v, pa.float64()) if _is_array(v) else float(v)


_CMP = {"=": pc.equal, "<>": pc.not_equal, "!=": pc.not_equal,
        "<": pc.less, "<=": pc.less_equal,
        ">": pc.greater, ">=": pc.greater_equal}
_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply}


def _eval_arrow(e, t: pa.Table, funcs: dict | None = None):
    """Evaluate an expression on a pyarrow table → Array, or a Python
    scalar when it reads no column. ``funcs`` is the scalar function
    registry (default: this process's). An Arrow type error, such as a
    string compared with a number, raises ValueError naming the
    expression."""
    try:
        v = _eval_node(e, t, _SQL_FUNCS if funcs is None else funcs)
    except pa.ArrowException as exc:
        raise ValueError(f"cannot evaluate {_sql_text(e)}: {exc}") \
            from None
    return v.as_py() if isinstance(v, pa.Scalar) else v


def _eval_node(e, t: pa.Table, funcs: dict):
    def ev(x):
        return _eval_arrow(x, t, funcs)

    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind in ("col", "qcol"):
        if e[-1] not in t.column_names:
            raise ValueError(f"unknown column {'.'.join(e[1:])!r}")
        return t[e[-1]]
    if kind == "func":
        # built-ins and UDFs take numpy arrays (or scalars for literals);
        # NaN in the result reads back as NULL, as pandas treats it
        args = [a.to_numpy(zero_copy_only=False) if _is_array(a) else a
                for a in map(ev, e[2])]
        out = funcs[e[1]](*args)
        if np.ndim(out) == 0:
            return out.item() if isinstance(out, (np.generic, np.ndarray)) \
                else out
        return pa.array(out, from_pandas=True)
    if kind == "isnull":
        return pc.is_null(ev(e[1]), nan_is_null=True)
    if kind == "not":
        return pc.invert(_aw_bool(ev(e[1])))
    # IN, BETWEEN and LIKE are three-valued, as in SQL: a NULL input
    # gives NULL, which WHERE drops and NOT leaves NULL
    if kind in ("in", "in_set"):
        v = ev(e[1])
        vals = pa.array(list(e[2] if kind == "in_set"
                             else [ev(x) for x in e[2]]))
        if _is_array(v) and pa.types.is_null(v.type):
            v = v.cast(vals.type)        # an all-NULL (say, empty) batch
        hit = pc.is_in(v, value_set=vals, skip_nulls=True)
        if vals.null_count:              # no match against a NULL: NULL
            hit = pc.or_kleene(hit, pa.scalar(None, pa.bool_()))
        return pc.if_else(pc.is_null(v), pa.scalar(None, pa.bool_()), hit)
    if kind == "between":
        v = ev(e[1])
        return pc.and_kleene(pc.greater_equal(v, ev(e[2])),
                             pc.less_equal(v, ev(e[3])))
    if kind == "like":
        v = pc.cast(ev(e[1]), pa.string())
        return pc.match_like(v, str(ev(e[2])))
    if kind == "cast":
        v, ty = ev(e[1]), e[2]
        v = v if _is_array(v) else pa.scalar(v)
        if ty in ("BIGINT", "INTEGER", "INT", "SMALLINT"):
            return pc.cast(pc.round(pc.cast(v, pa.float64())), pa.int64())
        if ty in ("DOUBLE", "FLOAT", "REAL", "NUMERIC", "DECIMAL"):
            return pc.cast(v, pa.float64())
        if ty in ("VARCHAR", "TEXT", "STRING", "CHAR"):
            return pc.cast(v, pa.string())
        raise ValueError(f"unsupported CAST type {ty}")
    if kind == "case":
        operand, whens, els = e[1], e[2], e[3]
        res = ev(els) if els is not None else None
        for w, v in reversed(whens):
            cn = ("bin", "=", operand, w) if operand is not None else w
            # a NULL condition is "not true": the ELSE applies
            cond = pc.fill_null(_aw_bool(ev(cn)), False)
            val = ev(v)
            if res is None:
                ty = val.type if _is_array(val) else pa.scalar(val).type
                res = pa.scalar(None, ty)
            res = pc.if_else(cond, val, res)
        return res
    if kind == "in_sub":
        raise ValueError("IN (SELECT ...) reached the evaluator "
                         "unresolved — execute via execute_sql()")
    if kind == "bin":
        op, l, r = e[1], ev(e[2]), ev(e[3])
        if op == "AND":
            return pc.and_kleene(_aw_bool(l), _aw_bool(r))
        if op == "OR":
            return pc.or_kleene(_aw_bool(l), _aw_bool(r))
        if op in _CMP:
            return _CMP[op](l, r)
        if op == "/":                    # true division
            return pc.divide(_f64(l), _f64(r))
        return _ARITH[op](l, r)
    raise ValueError(f"bad expression node {e}")


def _expr_name(e) -> str:
    if e[0] == "col":
        return e[1]
    if e[0] == "qcol":
        return e[2]
    if e[0] == "func":
        return f"{e[1].lower()}({', '.join(_expr_name(x) for x in e[2])})"
    if e[0] == "lit":
        return str(e[1])
    if e[0] == "agg":
        inner = "*" if e[2] == "*" else _expr_name(e[2])
        return f"{e[1].lower()}({inner})"
    if e[0] == "bin":
        return f"({_expr_name(e[2])} {e[1]} {_expr_name(e[3])})"
    return "expr"


def _sql_text(e) -> str:
    """An expression as SQL text, for error messages."""
    if not isinstance(e, tuple):
        return f"'{e}'" if isinstance(e, str) else str(e)
    k, a = e[0], [_sql_text(x) if isinstance(x, tuple) else x
                  for x in e[1:]]
    if k == "lit":
        return _sql_text(e[1])
    if k in ("col", "qcol"):
        return ".".join(e[1:])
    if k in ("func", "agg"):
        args = e[2] if k == "func" else [e[2]]
        return f"{e[1]}({', '.join(map(_sql_text, args))})"
    if k == "case":
        return ("CASE " + (f"{a[0]} " if e[1] is not None else "")
                + " ".join(f"WHEN {_sql_text(w)} THEN {_sql_text(v)}"
                           for w, v in e[2])
                + (f" ELSE {a[2]}" if e[3] is not None else "") + " END")
    return {"bin": lambda: f"({a[1]} {e[1]} {a[2]})",
            "not": lambda: f"NOT {a[0]}",
            "isnull": lambda: f"{a[0]} IS NULL",
            "in": lambda: f"{a[0]} IN ({', '.join(map(_sql_text, e[2]))})",
            "in_set": lambda: f"{a[0]} IN (<subquery>)",
            "between": lambda: f"{a[0]} BETWEEN {a[1]} AND {a[2]}",
            "like": lambda: f"{a[0]} LIKE {a[1]}",
            "cast": lambda: f"CAST({a[0]} AS {e[2]})"}.get(
                k, lambda: k)()


def _collect_aggs(e, found: list):
    if not isinstance(e, tuple):
        return
    if e[0] == "agg":
        found.append(e)
        return
    for part in e[1:]:
        if isinstance(part, tuple):
            _collect_aggs(part, found)
        elif isinstance(part, list):
            for q in part:
                _collect_aggs(q, found)


def _rewrite(node, fn):
    """Copy of an AST with each node for which ``fn`` returns a
    replacement swapped for it (``fn`` returns None to descend)."""
    if isinstance(node, list):
        return [_rewrite(x, fn) for x in node]
    if not isinstance(node, tuple):
        return node
    new = fn(node)
    if new is not None:
        return new
    return tuple(_rewrite(x, fn) for x in node)


# A broadcast join side must fit in every worker's heap. OGR's own JOIN
# is a secondary-layer lookup (small side by construction); above this
# row count we refuse rather than silently OOM the cluster — co-shuffle
# both sides by the key instead (stages/join.py patterns).
JOIN_BROADCAST_LIMIT = 5_000_000


def _collect(ds) -> pa.Table | None:
    """Run a bounded Dataset and return its Arrow blocks as one driver
    table (None when it has no blocks). An error raised in a map
    function surfaces as itself (a ValueError stays one), not wrapped
    in Ray Data's UserCodeException."""
    ctx = ds.context
    wrapped, ctx.raise_original_map_exception = \
        ctx.raise_original_map_exception, True
    try:
        blocks = list(ds.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
    finally:
        ctx.raise_original_map_exception = wrapped
    return pa.concat_tables(blocks, promote_options="permissive") \
        if blocks else None


def _join_spec(q, tables):
    """Materialize secondary join tables (OGR JOIN semantics: the
    secondary layer is the lookup side, ogr_gensql.cpp:1521-1542 probes
    it per primary feature — here it broadcasts once and each batch
    does a vectorized hash join). Returns [(table, how, left_key,
    right_key)]."""
    specs = []
    for jt, how, on in q.get("joins") or []:
        if jt not in tables:
            raise ValueError(f"unknown join table {jt!r}")
        n_join = tables[jt].count()
        if n_join > JOIN_BROADCAST_LIMIT:
            raise ValueError(
                f"JOIN table {jt!r} has {n_join} rows — too large to "
                f"broadcast (limit {JOIN_BROADCAST_LIMIT}). Co-shuffle "
                "both sides by the join key instead (gdal_ray.stages."
                "join), or raise gdal_ray.functions.sql.JOIN_BROADCAST_LIMIT.")
        right = _collect(tables[jt])
        names = right.column_names if right is not None else []
        if not (isinstance(on, tuple) and on[0] == "bin" and on[1] == "="
                and on[2][0] in ("col", "qcol") and on[3][0] in ("col", "qcol")):
            raise ValueError("JOIN ON must be column = column")

        def side(node):
            # (column, qualifier-or-None)
            return (node[2], node[1]) if node[0] == "qcol" else (node[1], None)

        (a, qa), (b, qb) = side(on[2]), side(on[3])
        if qa == jt or (qb is not None and qb != jt):
            lk, rk = b, a
        elif qb == jt or (qa is not None and qa != jt):
            lk, rk = a, b
        elif b in names and a not in names:
            lk, rk = a, b
        elif a in names and b not in names:
            lk, rk = b, a
        else:
            raise ValueError(f"cannot attribute JOIN keys {a}/{b} — "
                             "qualify them (table.column)")
        if right is None or rk not in names:
            raise ValueError(f"JOIN table {jt!r} has no column {rk!r}")
        specs.append((right, how, lk, rk))
    return specs


def _rows(t: pa.Table, joins, where, funcs) -> pa.Table:
    """One primary batch joined with the broadcast tables and filtered
    by WHERE. A join keeps the primary row order, and its column names
    follow pandas ``merge``: a key both sides name alike appears once,
    other clashing names get _x/_y."""
    for right, how, lk, rk in joins:
        right = right.set_column(right.schema.get_field_index(rk), rk,
                                 right[rk].cast(t[lk].type))
        t = t.append_column("__row", pa.array(np.arange(t.num_rows)))
        t = t.join(right, keys=lk, right_keys=rk,
                   join_type="left outer" if how == "left" else "inner",
                   left_suffix="_x", right_suffix="_y",
                   coalesce_keys=lk == rk)
        t = t.sort_by("__row").drop_columns(["__row"])
    if where is not None:
        # a NULL predicate drops the row
        t = t.filter(_column(_aw_bool(_eval_arrow(where, t, funcs)),
                             t.num_rows))
    return t


def _distinct(t: pa.Table) -> pa.Table:
    """Unique rows, in order of first appearance."""
    return t.group_by(t.column_names, use_threads=False).aggregate([])


def _sort(t: pa.Table, order) -> pa.Table:
    """ORDER BY; a key that is not an output column sorts by its
    hidden ``__ob_`` twin."""
    keys = [c if c in t.column_names else f"__ob_{c}" for c, _ in order]
    for k, (c, _) in zip(keys, order):
        if k not in t.column_names:
            raise ValueError(f"unknown ORDER BY column {c!r}")
    return t.sort_by([(k, "descending" if d else "ascending")
                      for k, (_, d) in zip(keys, order)])


# ---------------------------------------------------------------------------
# read pushdown: a Parquet table is read with only the columns a statement
# names and, for the primary table, only the rows its filters can keep
# (the layer attribute filter pushed to the source, OGRLayer::
# SetAttributeFilter, ogr/ogrsf_frmts/generic/ogrlayer.cpp:752)
# ---------------------------------------------------------------------------

def _names(node, out: set) -> set:
    """Add every column name an AST reads to ``out`` (a qualified name
    by its bare column)."""
    if isinstance(node, tuple) and node[:1] in (("col",), ("qcol",)):
        out.add(node[-1])
    elif isinstance(node, (tuple, list)):
        # every part: CASE's (condition, value) pairs start with a node,
        # not a tag, and an in_set's values or a literal add no name
        for part in node:
            _names(part, out)
    return out


def _referenced(q: dict) -> set:
    """The column names a resolved statement reads, from any table."""
    out = _names([[e for e, _ in q["items"]], q["where"], q["having"],
                  [on for _, _, on in q["joins"]]], set())
    out.update(q["group"] or [])
    out.update(c for c, _ in q["order"])
    # a join suffix (v_x, v_y) reads v on every side that has it, so a
    # clash stays a clash and the suffixes stay what they were
    for n in list(out):
        while n.endswith(("_x", "_y")):
            n = n[:-2]
            out.add(n)
    return out


def _conjuncts(e) -> list:
    if e is None:
        return []
    if e[0] == "bin" and e[1] == "AND":
        return _conjuncts(e[2]) + _conjuncts(e[3])
    return [e]


def _literal(e):
    """A literal operand's value (-n parses as -1 * n), else None."""
    if e[0] == "lit":
        return e[1]
    if (e[0] == "bin" and e[1] == "*" and e[2] == ("lit", -1)
            and e[3][0] == "lit" and isinstance(e[3][1], (int, float))):
        return -e[3][1]
    return None


def _conjunct_filter(c, cols: set):
    """A WHERE conjunct over one of ``cols`` as an Arrow dataset filter
    built from the evaluator's own kernels and literal types, or None
    when it is not a comparison, BETWEEN or IN of that column against
    literals (or a resolved IN-subquery's value set)."""
    def field(x):
        return pc.field(x[-1]) if x[0] in ("col", "qcol") \
            and x[-1] in cols else None

    def lit(x):
        v = _literal(x)
        return None if v is None else pc.scalar(pa.scalar(v))

    kind = c[0]
    if kind == "bin" and c[1] in _CMP:
        # one side the column, the other a literal, in either order
        fl, fr = field(c[2]), field(c[3])
        args = [fl, lit(c[3])] if fr is None else [lit(c[2]), fr]
        if (fl is None) == (fr is None) or any(a is None for a in args):
            return None
        return _CMP[c[1]](*args)
    f = field(c[1])
    if f is None:
        return None
    if kind == "between":
        lo, hi = lit(c[2]), lit(c[3])
        if lo is None or hi is None:
            return None
        return pc.and_kleene(pc.greater_equal(f, lo), pc.less_equal(f, hi))
    if kind == "in":
        vals = [_literal(x) for x in c[2]]
        return None if None in vals else pc.is_in(f, value_set=pa.array(vals))
    if kind == "in_set":
        return pc.is_in(f, value_set=pa.array(list(c[2])))
    return None


def _key_filter(keys, column: str, ty: pa.DataType):
    """A build side's join keys as a value-set filter on ``column``."""
    return pc.is_in(pc.field(column),
                    value_set=pc.unique(keys.cast(ty)).drop_null())


def _pushdown(where, joins, schema: pa.Schema, file_cols: set):
    """The row filter a primary read can apply ahead of the statement:
    the top-level AND conjuncts of WHERE that ``_conjunct_filter``
    accepts, over a primary column no join table also names, and each
    broadcast INNER JOIN's build keys on the probe column. It only
    pre-filters (the full WHERE still runs, so NULLs behave as before);
    a filter the evaluator or Arrow rejects for its types is left out,
    and the WHERE reports the error. None when nothing qualifies."""
    joined = [set(right.column_names) for right, *_ in joins]
    cols = file_cols - set().union(*joined)
    candidates = [(c, functools.partial(_conjunct_filter, c, cols))
                  for c in _conjuncts(where)]
    for i, (right, how, lk, rk) in enumerate(joins):
        # a LEFT JOIN keeps unmatched rows; float keys stay out, as
        # nothing pins hash-join and value-set equality on NaN and
        # signed zeros to agree
        if (how == "inner" and lk in file_cols
                and not any(lk in n for j, n in enumerate(joined) if j != i)
                and not pa.types.is_floating(schema.field(lk).type)):
            candidates.append((None, functools.partial(
                _key_filter, right[rk], lk, schema.field(lk).type)))
    empty = schema.empty_table()
    keep = []
    for c, make in candidates:
        try:
            expr = make()
            if expr is None:
                continue
            if c is not None:
                _eval_arrow(c, empty)
            empty.filter(expr)
        except (ValueError, pa.ArrowException):
            continue
        keep.append(expr)
    return functools.reduce(pc.and_kleene, keep) if keep else None


def _parquet_source(ds) -> dict | None:
    """A bare Parquet read (``ray.data.read_parquet`` with nothing
    applied after it) as ``{"schema", "file_cols", "read"}``: the schema
    it yields, the names of that schema stored in the files (not parsed
    from partition paths), and ``read(columns, pred)``, which issues it
    again reading only ``columns`` (names of that schema) and the rows
    the Arrow expression ``pred`` keeps (ANDed with any filter it had).
    The new read reuses the file list, footers and sampled sizes the
    old one fetched, so it costs no I/O before it runs. None for every
    other Dataset. This is the one place that touches Ray Data's private
    plan (``ray.data._internal``); tests/test_sql.py::TestPushdown pins
    it."""
    try:
        from ray.data._internal.datasource.parquet_datasource import \
            ParquetDatasource
        from ray.data._internal.logical.operators.read_operator import Read
        from ray.data.datasource.partitioning import PathPartitionParser
    except ImportError:
        return None
    op = getattr(getattr(ds, "_logical_plan", None), "dag", None)
    if not (isinstance(op, Read)
            and isinstance(op._datasource, ParquetDatasource)):
        return None
    src = op._datasource
    if (src._block_udf is not None or src._include_paths
            or src._read_schema is not None or not src._pq_paths):
        return None
    schema = src._inferred_schema
    parts = PathPartitionParser(src._partitioning)(src._pq_paths[0]) \
        if src._partitioning is not None else {}
    file_cols = set(schema.names) - set(parts)

    def read(columns: list, pred=None):
        import ray.data as rd
        new = copy.copy(src)
        new._data_columns = [c for c in columns if c in file_cols]
        new._partition_columns = [c for c in columns if c not in file_cols]
        new._inferred_schema = pa.schema([schema.field(c) for c in columns],
                                         schema.metadata)
        old = src._to_batches_kwargs.get("filter")
        if pred is not None and old is not None:
            pred = old & pred
        new._to_batches_kwargs = dict(src._to_batches_kwargs,
                                      filter=old if pred is None else pred)
        return rd.read_datasource(
            new, ray_remote_args=dict(op._ray_remote_args),
            concurrency=op._concurrency,
            override_num_blocks=op._parallelism
            if op._parallelism > 0 else None)

    return {"schema": schema, "file_cols": file_cols, "read": read}


def _narrow(ds, need: set, where=None, joins=()):
    """``ds`` read again with only the columns in ``need`` (never more
    than it read) and, given the statement's WHERE and broadcast joins,
    only the rows ``_pushdown`` lets through. Any Dataset other than a
    bare Parquet read comes back as it is."""
    src = _parquet_source(ds)
    if src is None:
        return ds
    schema = src["schema"]
    # a statement that names no column (COUNT(*)) still reads one
    cols = [n for n in schema.names if n in need] or schema.names[:1]
    pred = _pushdown(where, joins, schema, src["file_cols"])
    if cols == schema.names and pred is None:
        return ds
    return src["read"](cols, pred)


def execute_sql(sql: str, tables: dict, as_dataset: bool = False):
    """Run a SELECT against {'name': ray Dataset}; returns a pandas
    DataFrame (results are the reduced side).

    ``as_dataset=True`` returns a ``ray.data.Dataset`` instead. For a
    plain scan with no DISTINCT/ORDER BY/LIMIT the result is the lazy
    mapped Dataset itself — NOTHING is materialized on the driver, the
    scan streams block-by-block no matter how large the layer is (the
    100 TB `SELECT *` path). Reduced results (aggregates, top-k, offset
    slices) are bounded by construction and come back wrapped.

    A table given as a bare ``ray.data.read_parquet`` Dataset is read
    again with only the columns the statement names (SELECT, WHERE,
    GROUP BY, HAVING, ORDER BY, JOIN ON) and, for the FROM table, a row
    filter made of what the read can decide alone: the top-level AND
    conjuncts of WHERE that compare a column with literals (=, <>, <,
    <=, >, >=, BETWEEN, IN (...)), the value set of a resolved IN
    (SELECT ...), and the keys of a broadcast INNER JOIN. Never pushed:
    OR, NOT, LIKE, IS NULL, functions, CASE, a column a join table also
    names, LEFT JOIN keys, HAVING; a read's own ``columns=`` is never
    widened, and every other source is read as it is. The filter only
    pre-filters: the full WHERE still runs on what is read, so the
    result is the same with or without it."""
    return _execute_ast(parse_select(sql), tables, as_dataset)


def _resolve_subqueries(node, tables):
    """Replace ("in_sub", e, subselect) nodes with ("in_set", e, values):
    the subquery runs first (uncorrelated, like the SQLite dialect's
    materialized sub-selects) and its single output column broadcasts
    as a membership set, bounded by JOIN_BROADCAST_LIMIT."""
    def resolve(n):
        if n[0] != "in_sub":
            return None
        sub = _execute_ast(n[2], tables, False)
        if len(sub.columns) != 1:
            raise ValueError("IN (SELECT ...) must select exactly one "
                             f"column, got {list(sub.columns)}")
        if len(sub) > JOIN_BROADCAST_LIMIT:
            raise ValueError(
                f"IN subquery returned {len(sub)} rows — too large to "
                f"broadcast (limit {JOIN_BROADCAST_LIMIT})")
        col = sub.iloc[:, 0]
        # one NULL stands for every NULL the subquery returned
        vals = col.dropna().unique().tolist() + [None] * bool(
            col.isna().any())
        return ("in_set", _resolve_subqueries(n[1], tables), vals)
    return _rewrite(node, resolve)


def _execute_ast(q: dict, tables: dict, as_dataset: bool = False):
    if q["table"] not in tables:
        raise ValueError(f"unknown table {q['table']!r}")
    q = dict(q)
    # subqueries resolve first: their value sets may narrow the reads
    q["items"] = [(_resolve_subqueries(e, tables), a)
                  for e, a in q["items"]]
    for key in ("where", "having"):
        if q.get(key) is not None:
            q[key] = _resolve_subqueries(q[key], tables)
    need = _referenced(q)
    joins = _join_spec(q, {jt: _narrow(tables[jt], need)
                           for jt, _, _ in q["joins"] if jt in tables})
    ds = _narrow(tables[q["table"]], need, q["where"], joins)
    # custom scalar functions registered on the driver must reach the
    # workers: ship a snapshot of the registry in the closures
    fsnap = dict(_SQL_FUNCS)
    names = [a or _expr_name(e) for e, a in q["items"]]

    aggs: list = []
    for e, _ in q["items"]:
        _collect_aggs(e, aggs)
    if q.get("having") is not None:
        _collect_aggs(q["having"], aggs)
    if aggs or q["group"]:
        res = _run_aggregate(q, ds, joins, fsnap, names, aggs)
        return _wrap_ds(res) if as_dataset else res

    where, order = q["where"], q["order"]
    keep = q["limit"] + q["offset"] if q["limit"] is not None else None

    # plain scan: join + filter + project per batch, optional partial
    # top-k (every globally surviving row survives its batch partial)
    def scan(t: pa.Table) -> pa.Table:
        t = _rows(t, joins, where, fsnap)
        cols = {name: _column(_eval_arrow(e, t, fsnap), t.num_rows)
                for name, (e, _) in zip(names, q["items"])}
        # ORDER BY may reference source columns that are not selected
        # (ogr_gensql.cpp sorts on the layer's fields): carry them as
        # hidden keys, dropped after the final sort. DISTINCT forbids
        # hidden keys (they would change row identity).
        if order and not q["distinct"]:
            for c, _ in order:
                if c not in cols and c in t.column_names:
                    cols[f"__ob_{c}"] = t[c]
        out = pa.table(cols)
        if q["distinct"]:
            out = _distinct(out)
        if keep is not None:
            out = (_sort(out, order) if order else out).slice(0, keep)
        return out

    mapped = ds.map_batches(scan, batch_format="pyarrow")
    if as_dataset and q["limit"] is None and not q["offset"]:
        # identity-sized outputs stay distributed: plain scans stream,
        # DISTINCT runs the exact-dedup shuffle (content-hash salted
        # buckets), un-LIMITed ORDER BY is a Ray range-partition sort.
        # Only top-k / aggregates / OFFSET slices come to the driver.
        out_ds = mapped
        if q["distinct"]:
            out_ds = _distinct_ds(out_ds)
        if order:
            keys = [c if c in names else f"__ob_{c}" for c, _ in order]
            out_ds = out_ds.sort(keys, descending=[d for _, d in order])
            if any(k.startswith("__ob_") for k in keys):
                out_ds = out_ds.map_batches(
                    lambda t: t.drop_columns(
                        [c for c in t.column_names
                         if c.startswith("__ob_")]),
                    batch_format="pyarrow")
        return out_ds
    res = _collect(mapped)
    if res is None or res.num_rows == 0:
        # typed empty result (Ray may drop all-empty block schemas)
        res = pd.DataFrame(columns=names)
        return _wrap_ds(res) if as_dataset else res
    if q["distinct"]:
        res = _distinct(res)
    if order:
        res = _sort(res, order)
    res = res.drop_columns([c for c in res.column_names
                            if c.startswith("__ob_")])
    res = res.slice(q["offset"], q["limit"]).to_pandas()
    return _wrap_ds(res) if as_dataset else res


def _wrap_ds(df: pd.DataFrame):
    import ray.data as rd
    return rd.from_pandas(df)


def distinct_group(t: pa.Table) -> pa.Table:
    """One salted bucket of SELECT DISTINCT's exchange, deduplicated."""
    return _distinct(t.drop_columns(["__bucket"]))


def _distinct_ds(ds):
    """SELECT DISTINCT as a shuffle, not a driver frame: hash every row
    (all columns, each cast to its text form, so a value hashes alike in
    every block), salt-bucket the hash so identical rows co-locate, and
    dedup each bucket on Arrow. The full result never lands on one
    machine."""
    def bucketize(t: pa.Table) -> pa.Table:
        h = np.zeros(t.num_rows, np.uint64)
        for col in t.columns:
            text = pc.fill_null(pc.cast(col, pa.string()), "\x00")
            h = h * np.uint64(31) + pd.util.hash_array(
                text.to_numpy(zero_copy_only=False))
        b = ((h * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)) \
            % np.uint64(128)
        return t.append_column("__bucket",
                               pa.array(b.astype(np.int64), pa.int64()))

    return ds.map_batches(bucketize, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(distinct_group,
                                        batch_format="pyarrow")


# the Arrow hash aggregates each SQL aggregate needs per batch ("sq" is
# the sum of squares), and how each partial combines across batches
_PARTIALS = {"SUM": ("sum",), "AVG": ("sum", "count"),
             "STDDEV_POP": ("sum", "count", "sq"),
             "STDDEV_SAMP": ("sum", "count", "sq"),
             "MIN": ("min",), "MAX": ("max",), "COUNT": ("count",),
             "COUNTD": ("distinct",)}
_COMBINE = {"sum": "sum", "count": "sum", "count_all": "sum",
            "min": "min", "max": "max", "distinct": "count_distinct"}


def _partial_name(spec) -> str:
    # the output name Arrow gives a (column, aggregate) pair
    return spec[1] if spec[0] == [] else f"{spec[0]}_{spec[1]}"


def _combine(parts: pa.Table, keys: list, specs: list) -> pa.Table:
    """Combine the per-batch partials: sums and counts add, MIN/MAX
    reduce, and COUNT DISTINCT counts the union of the per-batch value
    lists, exploded beside the other partials so one group_by does it
    all (group order: first appearance)."""
    parts = parts.combine_chunks()
    lists = [_partial_name(s) for s in specs if s[1] == "distinct"]
    pieces = [parts.drop_columns(lists)]
    for c in lists:
        rows = pc.list_parent_indices(parts[c])
        pieces.append(parts.select(keys).take(rows)
                      .append_column(c, pc.list_flatten(parts[c])))
    how = [(_partial_name(s), _COMBINE[s[1]]) for s in specs]
    out = pa.concat_tables(pieces, promote_options="default") \
        .group_by(keys, use_threads=False).aggregate(how)
    return pa.table({**{k: out[k] for k in keys},
                     **{c: out[f"{c}_{fn}"] for c, fn in how}})


def _run_aggregate(q, ds, joins, fsnap, names, aggs) -> pd.DataFrame:
    """GROUP BY / aggregates: an Arrow group_by partial per batch, the
    partials combined by one more group_by on the driver (grouped
    results are assumed small; the scan is the big side and it
    streams), then HAVING and the select items evaluated on the
    combined table with each aggregate read as a column."""
    where, group = q["where"], q["group"] or []
    keys = group or ["__g"]          # a global aggregate: one constant group
    # GROUP BY may name a computed select alias (GROUP BY bucket where
    # bucket = CASE ... END) — resolve those through the select list
    alias_map = dict(zip(names, (e for e, _ in q["items"])))
    args: dict = {}        # input column -> (argument, reads bool as 0/1)

    def arg(fn, inner) -> str:
        # one input column per distinct argument; MIN/MAX read it as
        # is, the others read a boolean as 0/1 (SUM of a predicate
        # counts its rows)
        numeric = fn not in ("MIN", "MAX")
        for c, a in args.items():
            if a == (inner, numeric):
                return c
        c = f"__a{len(args)}"
        args[c] = (inner, numeric)
        return c

    specs: list = []                 # unique (input column, partial)
    for _, fn, inner in aggs:
        if inner == "*":
            need = [([], "count_all")]
        else:
            c = arg(fn, inner)
            need = [(c + "q", "sum") if p == "sq" else (c, p)
                    for p in _PARTIALS[fn]]
        specs += [s for s in need if s not in specs]

    def partial(t: pa.Table) -> pa.Table:
        t = _rows(t, joins, where, fsnap)
        n = t.num_rows
        work = {} if group else {"__g": pa.repeat(pa.scalar(0, pa.int8()),
                                                  n)}
        for k in group:
            if k in t.column_names:
                work[k] = t[k]
            elif k in alias_map:
                work[k] = _column(_eval_arrow(alias_map[k], t, fsnap), n)
            else:
                raise ValueError(f"unknown GROUP BY column {k!r}")
        for c, (inner, numeric) in args.items():
            v = _column(_eval_arrow(inner, t, fsnap), n)
            if numeric and pa.types.is_boolean(v.type):
                v = v.cast(pa.int64())
            work[c] = v
            if (c + "q", "sum") in specs:
                f = pc.cast(v, pa.float64())
                work[c + "q"] = pc.multiply(f, f)
        try:
            return pa.table(work).group_by(keys, use_threads=False) \
                .aggregate(specs)
        except pa.ArrowException as exc:
            raise ValueError("cannot aggregate " + ", ".join(
                map(_sql_text, aggs)) + f": {exc}") from None

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    if parts is not None and parts.num_rows:
        final = _combine(parts, keys, specs)
    elif group:
        # grouped aggregate over zero rows: zero groups, typed empty
        return pd.DataFrame(columns=names)
    else:
        # SQL semantics: a global aggregate over zero rows yields ONE
        # row (COUNT()=0, SUM/MIN/MAX/AVG=NULL)
        final = pa.table({
            _partial_name(s): pa.array([0]) if s[1] in (
                "count", "count_all", "distinct")
            else pa.nulls(1, pa.float64()) for s in specs})

    def agg_value(fn, inner):
        if inner == "*":
            return final["count_all"]
        c = arg(fn, inner)
        if fn in ("SUM", "MIN", "MAX", "COUNT"):
            return final[f"{c}_{fn.lower()}"]
        if fn == "COUNTD":
            return final[f"{c}_distinct"]
        n, s = _f64(final[f"{c}_count"]), _f64(final[f"{c}_sum"])
        if fn == "AVG":
            return pc.divide(s, n)
        # ogr_swq.h:67-75 STDDEV_POP/STDDEV_SAMP; NULL when the sample
        # variant has < 2 rows (SQL semantics)
        dof = n if fn == "STDDEV_POP" else pc.subtract(n, 1.0)
        dof = pc.if_else(pc.greater(dof, 0.0), dof,
                         pa.scalar(None, pa.float64()))
        var = pc.divide(pc.subtract(final[f"{c}q_sum"],
                                    pc.divide(pc.multiply(s, s), n)), dof)
        return pc.sqrt(pc.max_element_wise(var, 0.0, skip_nulls=False))

    cols = {}                        # repr(aggregate) -> its column
    for a in aggs:
        if repr(a) not in cols:
            cols[repr(a)] = f"__agg{len(cols)}"
            final = final.append_column(cols[repr(a)], agg_value(*a[1:]))

    def as_column(node):
        return ("col", cols[repr(node)]) if node[0] == "agg" else None

    if q.get("having") is not None:
        final = final.filter(_column(_aw_bool(_eval_arrow(
            _rewrite(q["having"], as_column), final)), final.num_rows))
    out = {}
    for name, (e, _) in zip(names, q["items"]):
        # a computed group key already holds its evaluated value in the
        # combined table — don't re-evaluate the expression
        if name in group and name in final.column_names:
            out[name] = final[name]
        else:
            out[name] = _column(_eval_arrow(_rewrite(e, as_column), final),
                                final.num_rows)
    out = pa.table(out)
    if q["order"]:
        out = _sort(out, q["order"])
    return out.slice(q["offset"], q["limit"]).to_pandas()


# ---------------------------------------------------------------------------
# SQLITE dialect
# ---------------------------------------------------------------------------

def execute_sql_sqlite(sql: str, tables: dict,
                       batch_size: int = 8192) -> pd.DataFrame:
    """The SQLITE dialect (ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql
    .cpp): copy each referenced layer into a temporary SQLite database
    and run the statement there — full SQLite expressiveness
    (subqueries, CASE, window functions) in exchange for materializing
    the inputs, which is EXACTLY the reference's tradeoff (it loads
    each layer into sqlite the same way).

    Scale contract: inputs must be bounded (a filtered layer, a lookup
    table) — the Ray side streams blocks into the db so driver memory
    holds one batch + the db, never a full-table driver list. For unbounded
    scans use the native dialect (execute_sql), which compiles to
    map_batches partials.
    """
    import sqlite3

    con = sqlite3.connect(":memory:")
    try:
        for name, ds in tables.items():
            if not re.search(rf"\b{re.escape(name)}\b", sql):
                continue                      # prune unreferenced layers
            first = True
            for b in ds.iter_batches(batch_format="pandas",
                                     batch_size=batch_size):
                if first:
                    cols = ", ".join(f'"{c}"' for c in b.columns)
                    con.execute(f'CREATE TABLE "{name}" ({cols})')
                    ins = (f'INSERT INTO "{name}" VALUES '
                           f'({", ".join("?" * len(b.columns))})')
                    first = False
                con.executemany(ins, b.itertuples(index=False, name=None))
        cur = con.execute(sql)
        names = [d[0] for d in cur.description]
        return pd.DataFrame(cur.fetchall(), columns=names)
    finally:
        con.close()
