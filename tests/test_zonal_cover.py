"""``_rings_cover_tiles`` (one cover test over k tiles) must equal the
per-tile test it batches.  The oracle below is the per-tile algorithm
kept verbatim: bbox-candidate edges, exact corner-sign test per
candidate edge, then all 4 corners inside by even-odd parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdal_boots_ray.kernels.geometry import points_in_rings
from gdal_boots_ray.stages.zonal import _rings_cover_tile, _rings_cover_tiles


def cover_tile_oracle(rings, shape, gt) -> bool:
    h, w = shape
    gt = np.asarray(gt, np.float64)
    cw = np.array([0.0, w, 0.0, w])
    ch = np.array([0.0, 0.0, h, h])
    xs = gt[0] * cw + gt[1] * ch + gt[2]
    ys = gt[3] * cw + gt[4] * ch + gt[5]
    bx0, bx1 = xs.min(), xs.max()
    by0, by1 = ys.min(), ys.max()
    for ring in rings:
        x0, y0 = ring[:-1, 0], ring[:-1, 1]
        x1, y1 = ring[1:, 0], ring[1:, 1]
        ex0 = np.minimum(x0, x1)
        ex1 = np.maximum(x0, x1)
        ey0 = np.minimum(y0, y1)
        ey1 = np.maximum(y0, y1)
        cand = (ex0 <= bx1) & (ex1 >= bx0) & (ey0 <= by1) & (ey1 >= by0)
        if cand.any():
            dx = (x1 - x0)[cand]
            dy = (y1 - y0)[cand]
            sx = x0[cand]
            sy = y0[cand]
            s = dx[:, None] * (ys[None, :] - sy[:, None]) - dy[:, None] * (xs[None, :] - sx[:, None])
            if (~((s > 0).all(axis=1) | (s < 0).all(axis=1))).any():
                return False
    return bool(points_in_rings(xs, ys, rings).all())


def _ring(pts):
    a = np.asarray(pts, np.float64)
    return np.vstack([a, a[:1]])


# vertices on the integer lattice, so lattice tile corners land exactly
# on edges and vertices
SHAPES = {
    "diamond": [_ring([(8, 0), (16, 8), (8, 16), (0, 8)])],
    "rectangle": [_ring([(1, 2), (15, 2), (15, 13), (1, 13)])],
    "holed": [_ring([(0, 0), (16, 0), (16, 16), (0, 16)]), _ring([(6, 6), (10, 6), (10, 10), (6, 10)])],
    "multi": [_ring([(0, 0), (7, 0), (7, 7), (0, 7)]), _ring([(9, 9), (16, 9), (12, 16)])],
    "concave": [_ring([(0, 0), (16, 0), (16, 16), (8, 4), (0, 16)])],
}


def _gt(kind, x0, y0, px, skew):
    """(col, row) -> (x, y) = (g0*col + g1*row + g2, g3*col + g4*row + g5)."""
    if kind == "axis":
        return [px, 0.0, x0, 0.0, -px, y0]
    if kind == "rotated":  # 90-degree turn: x runs down the rows
        return [0.0, px, x0, px, 0.0, y0]
    return [px, skew, x0, skew * 0.5, -px, y0]  # sheared, non-lattice


def _tiles(draw_tiles, kind):
    gts = np.array([_gt(kind, *t[:4]) for t in draw_tiles], np.float64).reshape(-1, 6)
    hs = np.array([t[4] for t in draw_tiles], np.int64)
    ws = np.array([t[5] for t in draw_tiles], np.int64)
    return hs, ws, gts


tile_st = st.tuples(
    st.integers(-4, 20).map(float),  # x0
    st.integers(-4, 20).map(float),  # y0
    st.sampled_from([0.5, 1.0, 2.0]),  # pixel size
    st.sampled_from([0.25, -0.5, 1.0]),  # shear
    st.integers(1, 6),  # h
    st.integers(1, 6),  # w
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SHAPES)),
    st.sampled_from(["axis", "rotated", "sheared"]),
    st.one_of(st.just(0), st.just(1), st.just(64), st.integers(2, 20)).flatmap(
        lambda k: st.lists(tile_st, min_size=k, max_size=k)
    ),
)
def test_batched_cover_equals_per_tile_oracle(shape, kind, tiles):
    rings = SHAPES[shape]
    hs, ws, gts = _tiles(tiles, kind)
    got = _rings_cover_tiles(rings, hs, ws, gts)
    want = [cover_tile_oracle(rings, (h, w), g) for h, w, g in zip(hs, ws, gts)]
    assert got.dtype == bool and got.shape == (len(tiles),)
    assert got.tolist() == want
    assert [_rings_cover_tile(rings, (h, w), g) for h, w, g in zip(hs, ws, gts)] == want


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", ["axis", "rotated"])
def test_lattice_sweep_hits_both_classes(shape, kind):
    """Every lattice tile of 2x2 unit pixels over the shape's extent:
    many corners lie exactly on edges or vertices, and the sweep must
    contain both covered and uncovered tiles."""
    rings = SHAPES[shape]
    tiles = [(float(x), float(y), 1.0, 0.0, 2, 2) for x in range(-2, 18) for y in range(-2, 18)]
    hs, ws, gts = _tiles(tiles, kind)
    got = _rings_cover_tiles(rings, hs, ws, gts)
    want = [cover_tile_oracle(rings, (h, w), g) for h, w, g in zip(hs, ws, gts)]
    assert got.tolist() == want
    assert 0 < got.sum() < len(tiles)


def test_empty_batch():
    out = _rings_cover_tiles(SHAPES["diamond"], [], [], np.zeros((0, 6)))
    assert out.shape == (0,) and out.dtype == bool
