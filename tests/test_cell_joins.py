"""cell_pip_join and interval_join against brute-force references.

Every (point, polygon) pair is checked with ``points_in_rings`` and
every (point, interval) pair with ``lo <= v < hi``; the joins must
return the same pairs, with the same multiplicity."""

import json

import numpy as np
import pyarrow as pa


def _diamond(cx, cy, r):
    return [[cx - r, cy], [cx, cy - r], [cx + r, cy], [cx, cy + r], [cx - r, cy]]


def _square(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _cell_join(points, polys, cell_res):
    """points: (pid, x, y) arrays; polys: [(poly_id, geometry dict)]."""
    import ray.data as rd

    from gdal_boots_ray.stages.joins import cell_pip_join

    pid, x, y = points
    pts = rd.from_arrow(
        pa.table(
            {
                "pid": pa.array(np.asarray(pid, np.int64)),
                "x": pa.array(np.asarray(x, np.float64)),
                "y": pa.array(np.asarray(y, np.float64)),
            }
        )
    )
    poly_ds = rd.from_arrow(
        pa.table(
            {
                "poly_id": pa.array([p for p, _ in polys], pa.int64()),
                "geom": pa.array([json.dumps(g) for _, g in polys], pa.string()),
            }
        )
    )
    return sorted((int(r["pid"]), int(r["poly_id"])) for r in cell_pip_join(pts, poly_ds, cell_res).take_all())


def _brute(points, polys):
    from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings

    pid, x, y = (np.asarray(a) for a in points)
    pairs = []
    for poly_id, geom in polys:
        inside = points_in_rings(x, y, polygon_rings(geom))
        pairs.extend((int(p), int(poly_id)) for p in pid[inside])
    return sorted(pairs)


def _random_points(rng, n, lo, hi, cell_res):
    x = rng.uniform(lo, hi, n)
    y = rng.uniform(lo, hi, n)
    # a quarter of the points sit exactly on cell boundaries
    snap = rng.random(n) < 0.25
    x[snap] = np.round(x[snap] / cell_res) * cell_res
    snap = rng.random(n) < 0.25
    y[snap] = np.round(y[snap] / cell_res) * cell_res
    return np.arange(n, dtype=np.int64), x, y


def test_cell_pip_join_matches_brute_force(ray_session):
    rng = np.random.default_rng(11)
    res = 1000.0
    points = _random_points(rng, 600, -3000.0, 5000.0, res)
    polys = []
    for i in range(12):
        cx, cy = rng.uniform(-2000.0, 4000.0, 2)
        polys.append((i, {"type": "Polygon", "coordinates": [_diamond(cx, cy, rng.uniform(200.0, 1800.0))]}))
    # vertices and edges on cell boundaries
    polys.append((20, {"type": "Polygon", "coordinates": [_square(0.0, 0.0, 2000.0, 1000.0)]}))
    polys.append((21, {"type": "Polygon", "coordinates": [_diamond(1000.0, 1000.0, 1000.0)]}))
    # holed polygon
    polys.append(
        (22, {"type": "Polygon", "coordinates": [_square(-2500.0, -2500.0, 500.0, 500.0), _square(-1500.0, -1500.0, 0.0, 0.0)]})
    )
    # MultiPolygon, parts in separate cells, one with a hole
    polys.append(
        (
            23,
            {
                "type": "MultiPolygon",
                "coordinates": [
                    [_square(2100.0, 2100.0, 2900.0, 2900.0)],
                    [_square(-2900.0, 3100.0, -1100.0, 4900.0), _square(-2500.0, 3500.0, -1500.0, 4500.0)],
                ],
            },
        )
    )
    got = _cell_join(points, polys, res)
    assert got == _brute(points, polys)
    assert len(got) > 100


def test_cell_pip_join_hot_cell(ray_session):
    """20 polygons and 100 points in one cell."""
    rng = np.random.default_rng(12)
    points = (np.arange(100, dtype=np.int64), rng.uniform(0.0, 1000.0, 100), rng.uniform(0.0, 1000.0, 100))
    polys = [
        (i, {"type": "Polygon", "coordinates": [_diamond(*rng.uniform(150.0, 850.0, 2), rng.uniform(50.0, 150.0))]})
        for i in range(20)
    ]
    got = _cell_join(points, polys, 1000.0)
    assert got == _brute(points, polys)
    assert got


def test_cell_pip_join_empty_points(ray_session):
    empty = (np.empty(0, np.int64), np.empty(0), np.empty(0))
    polys = [(1, {"type": "Polygon", "coordinates": [_diamond(500.0, 500.0, 300.0)]})]
    assert _cell_join(empty, polys, 1000.0) == []


def test_cell_pip_join_polygon_only_buckets(ray_session):
    """Polygons over 60 cells, points in one: most buckets hold no point."""
    rng = np.random.default_rng(13)
    polys = [
        (k, {"type": "Polygon", "coordinates": [_diamond(1000.0 * (k % 10) + 500.0, 1000.0 * (k // 10) + 500.0, 400.0)]})
        for k in range(60)
    ]
    points = (np.arange(50, dtype=np.int64), rng.uniform(0.0, 1000.0, 50), rng.uniform(0.0, 1000.0, 50))
    got = _cell_join(points, polys, 1000.0)
    assert got == _brute(points, polys)
    assert {p for _, p in got} == {0}


def test_cell_pip_join_duplicate_and_shared_ids(ray_session):
    """A duplicated polygon row yields its pairs twice; two different
    polygons sharing one poly_id (and one cell) are each tested with
    their own rings."""
    rng = np.random.default_rng(14)
    points = (np.arange(200, dtype=np.int64), rng.uniform(0.0, 2000.0, 200), rng.uniform(0.0, 2000.0, 200))
    dup = {"type": "Polygon", "coordinates": [_diamond(500.0, 1500.0, 400.0)]}
    polys = [
        (1, dup),
        (1, dup),
        (2, {"type": "Polygon", "coordinates": [_diamond(300.0, 300.0, 250.0)]}),
        (2, {"type": "Polygon", "coordinates": [_diamond(700.0, 700.0, 250.0)]}),
    ]
    got = _cell_join(points, polys, 1000.0)
    assert got == _brute(points, polys)
    ones = [p for p, k in got if k == 1]
    assert ones and len(ones) == 2 * len(set(ones))
    twos = {p for p, k in got if k == 2}
    assert any(points[1][p] < 500.0 for p in twos) and any(points[1][p] > 500.0 for p in twos)


def test_cell_pip_join_multipolygon_far_part(ray_session):
    """A MultiPolygon part outside the first part's box still gets its
    covering cells."""
    geom = {
        "type": "MultiPolygon",
        "coordinates": [[_square(0.0, 0.0, 10.0, 10.0)], [_square(5000.0, 5000.0, 5010.0, 5010.0)]],
    }
    points = (np.array([7, 8], np.int64), np.array([5.0, 5005.0]), np.array([5.0, 5005.0]))
    assert _cell_join(points, [(1, geom)], 1000.0) == [(7, 1), (8, 1)]


def test_cell_pip_join_empty_geometry(ray_session):
    """A polygon with no rings covers no cell and matches nothing."""
    points = (np.array([7, 8], np.int64), np.array([5.0, 500.0]), np.array([5.0, 500.0]))
    polys = [
        (1, {"type": "Polygon", "coordinates": []}),
        (2, {"type": "Polygon", "coordinates": [_square(0.0, 0.0, 10.0, 10.0)]}),
    ]
    assert _cell_join(points, polys, 1000.0) == [(7, 2)]


def test_interval_join_edges_ties_nan(ray_session):
    import ray.data as rd

    from gdal_boots_ray.stages.joins import interval_join

    w = 50.0
    rng = np.random.default_rng(15)
    lo = np.concatenate([np.round(rng.uniform(0.0, 900.0, 30)), [100.0, 150.0, 200.0, 275.0, 300.0, 300.0]])
    hi = np.concatenate([lo[:30] + np.round(rng.uniform(0.0, 200.0, 30)), [150.0, 150.0, 200.0, 325.0, 300.0, 301.0]])
    hi[:5] = lo[:5]  # zero-width intervals
    # a NaN bound matches nothing, as in the reference lo <= v < hi
    lo = np.concatenate([lo, [np.nan, 400.0, np.nan]])
    hi = np.concatenate([hi, [500.0, np.nan, np.nan]])
    iv = np.arange(len(lo), dtype=np.int64)
    # values on every bound (ties at lo and hi), on cell edges, random, and NaN
    vals = np.concatenate([lo, hi, np.arange(0.0, 1100.0, w), rng.uniform(0.0, 1100.0, 200), [np.nan] * 5])
    vals = np.concatenate([vals, vals[:40]])  # repeated values
    pid = np.arange(len(vals), dtype=np.int64)

    pts = rd.from_arrow(pa.table({"pid": pa.array(pid), "v": pa.array(vals)}))
    ivs = rd.from_arrow(pa.table({"iv": pa.array(iv), "lo": pa.array(lo), "hi": pa.array(hi)}))
    out = interval_join(pts, ivs, "v", "pid", "iv", "lo", "hi", cell_width=w).to_pandas()
    got = sorted(zip(out["pid"].tolist(), out["iv"].tolist()))
    expect = sorted((int(p), int(i)) for p in pid for i in iv if lo[i] <= vals[p] < hi[i])
    assert got == expect
    assert any(vals[p] == lo[i] for p, i in got)
