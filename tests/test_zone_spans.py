"""``stages.zonal.zone_spans`` selects, over a whole batch of (tile,
polygon) pairs at once, exactly the pixels of the one-pair rules it
replaced: a tile the one-tile cover test calls covered selects every
pixel, any other tile the pixels of its ``_rings_mask`` scanline fill.
Its batch cover test equals ``_rings_cover_tiles`` polygon by polygon,
both reducers equal a per-pair reduce of those pixels, and the batched
point-in-polygon kernel equals ``points_in_rings`` on every vertex,
every edge midpoint and a half-unit lattice of points.  Cases:
random and lattice polygons (vertices and edges on pixel centres and
pixel edges, horizontal edges), holes, MultiPolygons and rings of fewer
than 4 points, axis, rotated and sheared geotransforms with h != w,
polygons larger than the tile, tiles only partly overlapped and empty
windows.  In-process, no Ray."""

import warnings

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings
from gdal_boots_ray.stages.zonal import (
    PolygonEdges,
    _cover_pairs,
    _rings_cover_tile,
    _rings_cover_tiles,
    _rings_mask,
    points_in_polygons,
    zonal_histograms,
    zonal_partials,
    zone_spans,
)

# (col, row) -> (x, y) = (g0*col + g1*row + g2, g3*col + g4*row + g5)
GTS = {
    "unit": (1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
    "north_up": (0.5, 0.0, 1.0, 0.0, -0.5, 12.0),
    "coarse": (2.0, 0.0, -3.0, 0.0, 2.0, -3.0),
    "rotated": (0.8, -0.6, 6.0, 0.6, 0.8, -2.0),
    "sheared": (1.0, 0.3, 0.0, 0.2, 1.0, 0.5),
}


def _polygon(*rings):
    return {"type": "Polygon", "coordinates": [list(map(list, r)) for r in rings]}


def _multi(*parts):
    return {"type": "MultiPolygon", "coordinates": [[list(map(list, r)) for r in p] for p in parts]}


SHAPES = {
    "diamond": _polygon([(8, 0), (16, 8), (8, 16), (0, 8), (8, 0)]),
    # horizontal and vertical edges on pixel centres of the unit grid
    "rect_centres": _polygon([(2.5, 1.5), (9.5, 1.5), (9.5, 6.5), (2.5, 6.5), (2.5, 1.5)]),
    "rect_edges": _polygon([(2, 1), (9, 1), (9, 6), (2, 6), (2, 1)]),
    "holed": _polygon([(0, 0), (16, 0), (16, 16), (0, 16), (0, 0)], [(4.5, 4.5), (10, 4.5), (10, 9.5), (4.5, 9.5)]),
    "multi": _multi([[(0, 0), (5, 0), (5, 5), (0, 5)]], [[(7.5, 2.5), (13, 2.5), (10, 9)]]),
    # a 2-point ring (3 closed points) beside a real ring: it counts for
    # the window and the edge test, not for the even-odd fill
    "short_ring": _polygon([(1, 1), (11, 1.5), (6, 9), (1, 1)], [(20, 20), (21, 25)]),
    "point_ring": _polygon([(1, 1), (11, 1.5), (6, 9), (1, 1)], [(-7.5, -7.5)]),
    "huge": _polygon([(-100, -90), (120, -95), (110, 130), (-90, 120), (-100, -90)]),
    "partial": _polygon([(-5, -5), (4.5, -5), (4.5, 3.5), (-5, 3.5), (-5, -5)]),
    "outside": _polygon([(40, 40), (50, 40), (45, 50), (40, 40)]),
    "concave": _polygon([(0, 0), (16, 0), (16, 16), (8, 4), (0, 16), (0, 0)]),
    "bowtie": _polygon([(0, 0), (12, 9), (12, 0), (0, 9), (0, 0)]),
    # a notch whose tip touches the corner (8, 8) of the unit-grid tiles
    # from outside: its edges' bboxes only touch those tiles
    "notch": _polygon([(-10, -10), (20, -10), (20, 20), (8, 8), (-10, 20), (-10, -10)]),
}

SHAPES_HW = [(8, 12), (16, 16), (5, 3)]


def _batch(pairs):
    """The inputs of the zonal pass for ``pairs`` of (poly_id, h, w,
    gt): the per-pair (pids, hs, ws, gts) arrays, each pair's band-0
    offset in one flat buffer of random uint8 pixels, and the buffer
    itself (one sentinel byte past the end)."""
    pids = np.array([p for p, *_ in pairs], np.int64)
    hs = np.array([h for _, h, _, _ in pairs], np.int64)
    ws = np.array([w for _, _, w, _ in pairs], np.int64)
    gts = np.array([g for *_, g in pairs], np.float64).reshape(-1, 6)
    sizes = hs * ws
    base = np.cumsum(sizes) - sizes
    rng = np.random.default_rng(len(pairs))
    buf = np.concatenate([rng.integers(0, 256, int(sizes.sum()), dtype=np.uint8), np.zeros(1, np.uint8)])
    return (pids, hs, ws, gts), base, buf


def _shifted_spans(edges, matched, base):
    """``zone_spans`` of the pairs ``matched``, shifted onto the buffer
    that holds pair ``i``'s band at ``base[i]``."""
    pair, start, end = zone_spans(edges, *matched)
    return pair, start + base[pair], end + base[pair]


def _reference(rings, h, w, gt):
    """The flat pixel indices the one-pair rules select."""
    if _rings_cover_tile(rings, (h, w), gt):
        return np.arange(h * w)
    return np.flatnonzero(_rings_mask(rings, (h, w), gt))


def check_kernel(polys: dict, edges: PolygonEdges):
    """One ``points_in_polygons`` call over every polygon's vertices,
    edge midpoints (on horizontal and sloped edges) and a half-unit
    lattice equals ``points_in_rings`` polygon by polygon, and neither
    warns."""
    grid = np.arange(-26, 62) / 2
    lattice = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    xy, q, want = [], [], []
    for j, rings in enumerate(polys.values()):
        pts = np.concatenate([lattice] + list(rings) + [(r[:-1] + r[1:]) / 2 for r in rings])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want.append(points_in_rings(pts[:, 0], pts[:, 1], rings))
        xy.append(pts)
        q.append(np.full(len(pts), j))
    xy = np.concatenate(xy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_in_polygons(edges, xy[:, 0], xy[:, 1], np.concatenate(q))
    np.testing.assert_array_equal(got, np.concatenate(want))


def check_batch(polys: dict, pairs):
    edges = PolygonEdges(polys.items())
    check_kernel(polys, edges)
    matched, base, buf = _batch(pairs)
    pair, start, end = _shifted_spans(edges, matched, base)
    assert (start < end).all() and (np.diff(pair) >= 0).all()
    for i, (pid, h, w, gt) in enumerate(pairs):
        sel = pair == i
        got = np.concatenate([np.arange(s, e) for s, e in zip(start[sel], end[sel])] + [np.zeros(0, np.int64)])
        want = _reference(polys[pid], h, w, gt) + base[i] if pid in polys else np.zeros(0, np.int64)
        np.testing.assert_array_equal(got, want, err_msg=f"pair {i}: poly {pid}, {h}x{w}, gt {gt}")

    # the batch cover test, polygon by polygon
    pids, hs, ws, gts = matched
    q = edges.index(pids)
    known = np.flatnonzero(q >= 0)
    covered = _cover_pairs(edges, q[known], hs[known], ws[known], gts[known])
    for pid in {p for p, *_ in pairs if p in polys}:
        j = np.flatnonzero(pids[known] == pid)
        ix = known[j]
        np.testing.assert_array_equal(covered[j], _rings_cover_tiles(polys[pid], hs[ix], ws[ix], gts[ix]))

    # both reducers against a per-pair reduce of the reference pixels
    want_rows, want_hist = [], []
    for i, (pid, h, w, gt) in enumerate(pairs):
        if pid not in polys:
            continue
        px = buf[_reference(polys[pid], h, w, gt) + base[i]]
        if px.size:
            want_rows.append((pid, px.size, float(px.sum(dtype=np.float64)), float(px.min()), float(px.max())))
        cnt = np.bincount(px, minlength=1)
        want_hist.extend((pid, v, int(cnt[v])) for v in np.flatnonzero(cnt))
    stats = zonal_partials(pids, pair, start, end, buf)
    assert [stats[c].dtype for c in stats] == [np.int64, np.int64] + [np.float64] * 3
    assert list(zip(*(stats[c].tolist() for c in stats))) == want_rows
    hist = zonal_histograms(pids, pair, start, end, buf)
    assert [hist.column(c).type for c in hist.column_names] == [pa.int64()] * 3
    assert list(zip(*(hist.column(c).to_pylist() for c in ("poly_id", "v", "cnt")))) == want_hist


def test_named_shapes_on_every_geotransform():
    polys = {i: polygon_rings(g) for i, g in enumerate(SHAPES.values())}
    pairs = [(pid, h, w, gt) for pid in polys for gt in GTS.values() for h, w in SHAPES_HW]
    check_batch(polys, pairs)


def test_classes_and_edge_cases_occur():
    """The named shapes reach both pair classes and empty windows."""
    polys = {i: polygon_rings(g) for i, g in enumerate(SHAPES.values())}
    interior = boundary = empty = 0
    for rings in polys.values():
        for gt in GTS.values():
            for h, w in SHAPES_HW:
                if _rings_cover_tile(rings, (h, w), gt):
                    interior += 1
                else:
                    boundary += 1
                    empty += not _rings_mask(rings, (h, w), gt).any()
    assert interior > 0 and boundary > 0 and empty > 0


def test_unknown_polygon_and_empty_batch_select_nothing():
    polys = {3: polygon_rings(SHAPES["diamond"])}
    check_batch(polys, [(7, 8, 8, GTS["unit"]), (3, 8, 8, GTS["unit"]), (7, 4, 4, GTS["unit"])])
    matched, base, buf = _batch([])
    pair, start, end = zone_spans(PolygonEdges(polys.items()), *matched)
    assert len(pair) == len(start) == len(end) == 0
    assert all(len(v) == 0 for v in zonal_partials(matched[0], pair, start, end, buf).values())
    assert zonal_histograms(matched[0], pair, start, end, buf).num_rows == 0
    # a poly_id selects its last entry, and nothing if that one is empty
    rings = [polygon_rings(SHAPES[k]) for k in ("diamond", "holed", "multi")]
    edges = PolygonEdges([(3, rings[0]), (7, rings[1]), (3, rings[2]), (5, rings[0]), (5, [])])
    assert edges.index([3, 7, 5, 9]).tolist() == [2, 1, -1, -1]


lattice = st.integers(-6, 36).map(lambda v: v / 2)  # pixel centres and pixel edges of the unit grid
anywhere = st.floats(-12.0, 30.0, allow_nan=False)


def _geometry_st(coord):
    """A Polygon of 1-3 rings (the first the shell, the rest holes), or
    a MultiPolygon of as many one-ring parts; a ring may have fewer than
    4 points once closed."""
    rings = st.lists(st.lists(st.tuples(coord, coord), min_size=1, max_size=7), min_size=1, max_size=3)

    def geometry(multi, rs):
        rs = [list(map(list, r)) for r in rs]
        if multi:
            return {"type": "MultiPolygon", "coordinates": [[r] for r in rs]}
        return {"type": "Polygon", "coordinates": rs}

    return st.builds(geometry, st.booleans(), rings)


gt_st = st.one_of(
    st.sampled_from(list(GTS.values())),
    st.tuples(
        st.floats(0.25, 2.0),
        st.floats(-0.5, 0.5),
        st.floats(-4.0, 4.0),
        st.floats(-0.5, 0.5),
        st.sampled_from([-1.5, -1.0, 0.75, 1.0]),
        st.floats(-4.0, 12.0),
    ).filter(lambda g: abs(g[0] * g[4] - g[1] * g[3]) > 0.05),
)
pair_st = st.tuples(st.integers(0, 3), st.integers(1, 12), st.integers(1, 12), gt_st)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_geometry_st(lattice), _geometry_st(anywhere)), min_size=1, max_size=4),
    st.lists(pair_st, min_size=1, max_size=8),
)
def test_random_batches_match_one_pair_rules(geometries, pairs):
    polys = {i: polygon_rings(g) for i, g in enumerate(geometries)}
    check_batch(polys, [(pid % len(polys), h, w, gt) for pid, h, w, gt in pairs])


@pytest.mark.parametrize("dtype", [np.uint16, np.int16, np.float32])
def test_partials_of_wider_pixels(dtype):
    """Pixels wider than uint8 reduce exactly too (integer sums; float
    sums of integer values), and their histograms have values past 255.
    Signed pixels reach below zero: the stats take them, the histograms
    refuse them rather than count them under another pair's bins."""
    polys = {0: polygon_rings(SHAPES["holed"]), 1: polygon_rings(SHAPES["huge"])}
    pairs = [(0, 16, 16, GTS["unit"]), (1, 8, 12, GTS["rotated"]), (0, 9, 5, GTS["sheared"])]
    matched, base, raw = _batch(pairs)
    signed = np.dtype(dtype).kind == "i"
    buf = (np.arange(len(raw)) * 37 % 1000 - 300 * signed).astype(dtype)
    want, want_hist = [], []
    for i, (pid, h, w, gt) in enumerate(pairs):
        px = buf[_reference(polys[pid], h, w, gt) + base[i]]
        v, cnt = np.unique(px.astype(np.int64), return_counts=True)
        want_hist.extend({"poly_id": pid, "v": int(a), "cnt": int(c)} for a, c in zip(v, cnt))
        want.append(
            {
                "poly_id": pid,
                "n_px": px.size,
                "sum_v": float(px.sum(dtype=np.float64)),
                "min_v": float(px.min()),
                "max_v": float(px.max()),
            }
        )
    spans = _shifted_spans(PolygonEdges(polys.items()), matched, base)
    assert pa.table(zonal_partials(matched[0], *spans, buf)).to_pylist() == want
    if signed:
        assert min(r["min_v"] for r in want) < 0
        with pytest.raises(ValueError, match="non-negative"):
            zonal_histograms(matched[0], *spans, buf)
        return
    assert zonal_histograms(matched[0], *spans, buf).to_pylist() == want_hist
    assert max(r["v"] for r in want_hist) > 255
