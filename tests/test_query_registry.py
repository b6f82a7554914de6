"""The query registries agree: every query has its DuckDB twin in the
module that defines its ``q_*`` function, every ``q_*`` function is
registered, the driver's window is pinned, and every benchmarked name
exists."""

import ast
import importlib
import inspect
import os
import pkgutil
import sys

from gdal_boots_ray.pipelines import queries
from gdal_boots_ray.pipelines.queries import ORACLE_SQL, QUERIES

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py")

MODULES = [
    importlib.import_module(f"{queries.__name__}.{info.name}") for info in pkgutil.iter_modules(queries.__path__)
]

# the driver's correctness gate checks only the first 50 entries of
# QUERIES; moving or deleting one of these changes what it covers
DRIVER_WINDOW = [
    "bigram_pmi", "cms_sketch", "composite_median", "doc_chunks", "doc_fingerprints",
    "embedding_neardup_planted", "flow_d8", "hist_match", "inverted_index", "text_normalize",
    "tile_bounds_6933", "tile_morphology", "zonal_majority", "line_dedup", "recode_stats_zstd",
    "recode_stats_lerc", "recode_stats_webp", "pii_scrub", "tile_augment", "bpe_pairs", "tile_tpi",
    "tile_bounds_54009", "tile_viewshed", "dsir_weights", "ccnet_buckets", "tile_dist_aeqd",
    "global_equalize", "zonal_median", "point_poly_distance", "event_funnel", "tile_bounds_54030",
    "embedding_cov", "poly_geodesic", "tile_temporal_interp", "poly_buffer", "grid_interp",
    "point_values", "dedup_exact", "revenue_by_segment", "knn", "hilbert_partitions",
    "token_quantiles", "simhash_neardup", "top_orders_per_nation", "token_quantiles_by_lang",
    "approx_distinct", "minhash_neardup", "cohort_retention", "tile_glcm", "tile_spatial_autocorr",
]  # fmt: skip


def _q_functions():
    """Every ``q_*`` function by name, from the module that defines it."""
    return {
        name: fn
        for mod in MODULES
        for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if name.startswith("q_") and fn.__module__ == mod.__name__
    }


def _called_q_function(entry):
    """The ``q_*`` function a registry entry is or calls (a lambda
    that binds extra arguments)."""
    if entry.__name__.startswith("q_"):
        return entry
    (name,) = [n for n in entry.__code__.co_names if n.startswith("q_")]
    return _q_functions()[name]


def test_every_query_has_a_twin():
    assert set(QUERIES) == set(ORACLE_SQL)
    # no twin is defined twice, so the merged dict shadows none
    assert sum(len(getattr(m, "ORACLE_SQL", {})) for m in MODULES) == len(ORACLE_SQL)


def test_twin_is_beside_its_query():
    misplaced = {
        name: fn.__module__
        for name, fn in ((name, _called_q_function(entry)) for name, entry in QUERIES.items())
        if name not in sys.modules[fn.__module__].ORACLE_SQL
    }
    assert misplaced == {}


def test_every_query_function_is_registered():
    reached = {_called_q_function(entry).__name__ for entry in QUERIES.values()}
    defined = set(_q_functions())
    assert len(defined) >= len(QUERIES) - 1  # the walk found the domain modules
    assert defined - reached == set()


def test_driver_window_is_pinned():
    assert list(QUERIES)[:50] == DRIVER_WINDOW


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
