"""Geometry codec / predicate kernels (reference test_geometry.py
semantics: to_geojson round-trips :115-179, make_valid bow-tie :184-300)."""

import warnings

import numpy as np
import pytest

from gdal_boots_ray.kernels.geometry import (
    douglas_peucker,
    envelope,
    geometry_bounds_polygon,
    is_valid,
    make_valid,
    parse_geometry,
    points_in_polygon,
    polygon_rings,
    ring_area,
    to_geojson,
)


def test_to_geojson_roundtrips():
    # reference tests/test_geometry.py:115-135
    geom = {"type": "MultiPolygon", "coordinates": []}
    assert to_geojson(geom) == geom
    geom = {"type": "MultiPolygon", "coordinates": [[]]}
    assert to_geojson(geom) == geom
    geom = {"type": "Polygon", "coordinates": []}
    assert to_geojson(geom) == geom
    geom = {"type": "Point", "coordinates": [1, 2]}
    assert to_geojson(geom) == {"type": "Point", "coordinates": [1.0, 2.0]}
    geom = {"type": "Point", "coordinates": [1, 2, 0]}
    assert to_geojson(geom, flatten=False) == {"type": "Point", "coordinates": [1.0, 2.0, 0.0]}
    assert to_geojson(geom, flatten=True) == {"type": "Point", "coordinates": [1.0, 2.0]}


def test_to_geojson_collection():
    geom = {
        "type": "GeometryCollection",
        "geometries": [
            {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]},
            {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 1]]]},
        ],
    }
    out = to_geojson(geom)
    assert out["type"] == "GeometryCollection"
    assert out["geometries"][1]["type"] == "MultiLineString"


def test_precision_rounding():
    geom = {"type": "Point", "coordinates": [1.123456789, 2.987654321]}
    assert to_geojson(geom, precision=3) == {"type": "Point", "coordinates": [1.123, 2.988]}


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_geometry({"type": "Blob", "coordinates": []})


def test_envelope(minsk_polygon):
    env = envelope(minsk_polygon)
    assert env[0] == pytest.approx(27.401962280273438)
    assert env[3] == pytest.approx(53.97284922869111)


def test_pip_minsk(minsk_polygon):
    pts = np.array(
        [
            [27.55, 53.90],  # inside Minsk
            [27.40, 53.84],  # outside (SW)
            [28.00, 53.90],  # outside (E)
        ]
    )
    inside = points_in_polygon(pts, minsk_polygon)
    assert inside.tolist() == [True, False, False]


def test_pip_hole():
    poly = {
        "type": "Polygon",
        "coordinates": [
            [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]],
            [[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]],
        ],
    }
    pts = np.array([[5, 5], [2, 2], [11, 5]])
    assert points_in_polygon(pts, poly).tolist() == [False, True, False]


def test_pip_multipolygon():
    mp = {
        "type": "MultiPolygon",
        "coordinates": [
            [[[0, 0], [2, 0], [2, 2], [0, 2], [0, 0]]],
            [[[5, 5], [7, 5], [7, 7], [5, 7], [5, 5]]],
        ],
    }
    pts = np.array([[1, 1], [6, 6], [3, 3]])
    assert points_in_polygon(pts, mp).tolist() == [True, True, False]


def test_pip_near_horizontal_edge_warns_nothing():
    """A near-horizontal edge far from the point overflows its crossing
    abscissa; the crossing mask is false there, so the result stands and
    no RuntimeWarning escapes."""
    poly = {"type": "Polygon", "coordinates": [[[0, 0], [1e200, 1e-200], [0, 1], [0, 0]]]}
    pts = np.array([[0.5, 0.5], [-1.0, 0.5], [0.5, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert points_in_polygon(pts, poly).tolist() == [True, False, False]


def test_ring_closure():
    poly = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1]]]}  # unclosed
    rings = polygon_rings(poly)
    assert np.array_equal(rings[0][0], rings[0][-1])


def test_is_valid_and_make_valid_bowtie():
    bowtie = {
        "type": "Polygon",
        "coordinates": [[[0, 0], [2, 2], [2, 0], [0, 2], [0, 0]]],
    }
    assert not is_valid(bowtie)
    fixed = make_valid(bowtie)
    assert fixed["type"] == "MultiPolygon"
    assert len(fixed["coordinates"]) == 2
    # total area of the two triangles of a 2x2 bow-tie = 1 + 1
    total = sum(abs(ring_area(r)) for r in polygon_rings(fixed))
    assert total == pytest.approx(2.0)
    assert is_valid(fixed)


def test_make_valid_noop_on_valid():
    sq = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}
    out = make_valid(sq)
    assert out["type"] == "Polygon"
    assert abs(ring_area(polygon_rings(out)[0])) == pytest.approx(1.0)


def test_douglas_peucker():
    line = np.array([[0, 0], [1, 0.01], [2, -0.01], [3, 0], [4, 5], [5, 0]])
    out = douglas_peucker(line, tolerance=0.1)
    assert [0, 0] in out.tolist() and [4, 5] in out.tolist() and [5, 0] in out.tolist()
    assert len(out) < len(line)


def test_bounds_polygon_helper():
    p = geometry_bounds_polygon([0, 1, 2, 3])
    assert p["coordinates"][0][0] == [0.0, 1.0]
    assert len(p["coordinates"][0]) == 5


def test_strtree_matches_bruteforce():
    """Packed STRtree query_points/query_box == brute-force bbox scan
    (exact candidate sets, edge-inclusive)."""
    import numpy as np

    from gdal_boots_ray.kernels.strtree import STRtree

    rng = np.random.default_rng(5)
    n = 500
    mins = rng.uniform(0, 100, (n, 2))
    boxes = np.hstack([mins, mins + rng.uniform(0.1, 5, (n, 2))])
    t = STRtree(boxes)
    x = rng.uniform(-5, 110, 800)
    y = rng.uniform(-5, 110, 800)
    pi, bi = t.query_points(x, y)
    got = set(zip(pi.tolist(), bi.tolist()))
    want = set()
    for j in range(n):
        m = (x >= boxes[j, 0]) & (x <= boxes[j, 2]) & (y >= boxes[j, 1]) & (y <= boxes[j, 3])
        want.update((int(i), j) for i in np.nonzero(m)[0])
    assert got == want
    qb = (20.0, 20.0, 40.0, 35.0)
    m = (boxes[:, 0] <= qb[2]) & (boxes[:, 2] >= qb[0]) & (boxes[:, 1] <= qb[3]) & (boxes[:, 3] >= qb[1])
    assert set(t.query_box(qb).tolist()) == set(np.nonzero(m)[0].tolist())
    assert len(STRtree(np.empty((0, 4))).query_points(x, y)[0]) == 0


def test_buffer_convex_ring_square():
    """Square buffer: area = A + P*d + (d^2/2) * 4 * m * sin((pi/2)/m)
    (four 90-degree corner fans), perimeter = P + 8*m*d*sin(pi/(4*m));
    converges to A + P*d + pi*d^2 as m grows."""
    from gdal_boots_ray.kernels.geometry import buffer_convex_ring, ring_metrics

    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0], [0.0, 0.0]])
    d = 2.0
    for m in (1, 4, 16):
        buf = buffer_convex_ring(sq, d, m)
        area, perim, _, _ = ring_metrics(buf)
        want_a = 100.0 + 40.0 * d + d * d / 2.0 * 4 * m * np.sin(np.pi / 2 / m)
        want_p = 40.0 + 8 * m * d * np.sin(np.pi / (4 * m))
        assert abs(area - want_a) < 1e-9, m
        assert abs(perim - want_p) < 1e-9, m
        assert len(buf) == 4 * (2 + m - 1) + 1
    # high-m limit approaches the exact disk-sum
    buf = buffer_convex_ring(sq, d, 256)
    area, _, _, _ = ring_metrics(buf)
    assert abs(area - (100.0 + 80.0 + np.pi * 4.0)) < 1e-3


def test_buffer_convex_ring_orientation_and_errors():
    from gdal_boots_ray.kernels.geometry import buffer_convex_ring, ring_metrics

    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    a1 = ring_metrics(buffer_convex_ring(tri, 1.0))[0]
    a2 = ring_metrics(buffer_convex_ring(tri[::-1], 1.0))[0]
    assert abs(a1 - a2) < 1e-12 * a1
    import pytest as _pytest

    with _pytest.raises(ValueError):
        buffer_convex_ring(tri, -1.0)
    with _pytest.raises(ValueError):
        buffer_convex_ring(np.array([[0, 0], [1, 0]]), 1.0)
    bad = np.array([[0, 0], [2, 1], [4, 0], [2, 0.5], [2, -2]], dtype=float)
    with _pytest.raises(ValueError):
        buffer_convex_ring(bad, 1.0)
    collinear = np.array([[0, 0], [2, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
    with _pytest.raises(ValueError):
        buffer_convex_ring(collinear, 1.0)
