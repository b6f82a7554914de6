"""The query registries agree: every query has its DuckDB twin, every
``q_*`` function is registered, and every benchmarked name exists."""

import ast
import inspect
import os

from gdal_boots_ray.pipelines import queries
from gdal_boots_ray.pipelines.queries import QUERIES

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py")


def test_every_query_has_a_twin():
    assert set(QUERIES) == set(queries.ORACLE_SQL)


def test_every_query_function_is_registered():
    # a registered value is the function itself or a lambda calling it
    reached = set()
    for fn in QUERIES.values():
        reached.add(fn.__name__)
        reached.update(fn.__code__.co_names)
    defined = {
        name
        for name, fn in inspect.getmembers(queries, inspect.isfunction)
        if name.startswith("q_") and fn.__module__ == queries.__name__
    }
    assert defined - reached == set()


def _bench_query_names():
    with open(BENCH) as f:
        tree = ast.parse(f.read())
    (assign,) = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "query_names" for t in n.targets)
    ]
    tuples = [n for n in ast.walk(assign.value) if isinstance(n, ast.Tuple)]
    return [e.value for t in tuples for e in t.elts if isinstance(e, ast.Constant)]


def test_bench_names_are_queries():
    names = _bench_query_names()
    assert names
    assert [n for n in names if n not in QUERIES] == []
