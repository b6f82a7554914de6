"""Property-based tests (hypothesis) — beyond the reference's
golden-only strategy (SURVEY §5: the reference has no property tests).

Invariants: codec round-trips, CRS inverse consistency, rasterize ==
pixel-center PIP, S2 hierarchy/determinism, fast-warp snap
containment, write_window == numpy on plain selectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdal_boots_ray.kernels.affine import bounds as bounds_fn
from gdal_boots_ray.kernels.cells import s2_cell_id, s2_parent
from gdal_boots_ray.kernels.crs import transform_points
from gdal_boots_ray.kernels.geometry import points_in_rings
from gdal_boots_ray.kernels.png import decode_image, encode_image
from gdal_boots_ray.kernels.rasterize import rasterize
from gdal_boots_ray.kernels.window import fast_warp_window


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from(["png", "raw", "tiff"]),
    st.integers(0, 2**32 - 1),
)
def test_codec_roundtrip(bands, h, w, fmt, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (bands, h, w)).astype(np.uint8)
    if bands == 1:
        img = img[0]
    out = decode_image(encode_image(img, fmt), fmt)
    assert out.shape == img.shape and np.array_equal(out, img)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([3857, 32610, 32635, 32720]),
    st.floats(-75, 75),
    st.floats(-20, 20),
)
def test_crs_roundtrip(epsg, lat, dlon):
    # lon near the CRS's natural meridian (UTM series domain)
    cm = {3857: 0.0, 32610: -123.0, 32635: 27.0, 32720: -63.0}[epsg]
    lon = cm + dlon
    x, y = transform_points(4326, epsg, np.array([lon]), np.array([lat]))
    lon2, lat2 = transform_points(epsg, 4326, x, y)
    assert abs(lon2[0] - lon) < 1e-7 and abs(lat2[0] - lat) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
def test_rasterize_equals_center_pip(seed, nvert):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(1, 19, size=(nvert, 2))
    c = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
    ring = pts[order]
    ring = np.vstack([ring, ring[:1]])
    geom = {"type": "Polygon", "coordinates": [ring.tolist()]}
    gt = [1.0, 0, 0, 0, -1.0, 20.0]
    mask = rasterize(geom, (20, 20), gt)
    # oracle: pixel centers in world coords through ray-casting
    cols, rows = np.meshgrid(np.arange(20) + 0.5, np.arange(20) + 0.5)
    wx = cols
    wy = 20.0 - rows
    inside = points_in_rings(wx.ravel(), wy.ravel(), [ring]).reshape(20, 20)
    assert np.array_equal(mask.astype(bool), inside)


@settings(max_examples=30, deadline=None)
@given(st.floats(-179, 179), st.floats(-85, 85), st.integers(1, 12))
def test_s2_hierarchy(lon, lat, level):
    c = s2_cell_id(np.array([lon]), np.array([lat]), level + 2)
    p = s2_cell_id(np.array([lon]), np.array([lat]), level)
    assert s2_parent(c, level)[0] == p[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fast_warp_snap_contains_bbox(seed):
    rng = np.random.default_rng(seed)
    res = float(rng.choice([10.0, 20.0, 60.0]))
    w, h = 100, 80
    gt = [res, 0, 1000.0, 0, -res, 5000.0]
    b = bounds_fn(np.asarray(gt), w, h)[0]
    x0 = rng.uniform(b[0] + res, b[2] - 3 * res)
    y0 = rng.uniform(b[1] + res, b[3] - 3 * res)
    bbox = [x0, y0, x0 + rng.uniform(res / 2, 2 * res), y0 + rng.uniform(res / 2, 2 * res)]
    (r0, r1, c0, c1), sb = fast_warp_window(gt, w, h, bbox)
    # snapped box contains the request and is grid-aligned
    assert sb[0] <= bbox[0] and sb[1] <= bbox[1] and sb[2] >= bbox[2] and sb[3] >= bbox[3]
    assert r1 > r0 and c1 > c0
    assert abs((sb[2] - sb[0]) / res - (c1 - c0)) < 1e-9
    assert abs((sb[3] - sb[1]) / res - (r1 - r0)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_write_window_matches_numpy(seed):
    from gdal_boots_ray.kernels.raster_ops import write_window

    rng = np.random.default_rng(seed)
    img = np.zeros((3, 8, 8))
    ref = np.zeros((3, 8, 8))
    b = int(rng.integers(0, 3))
    y0, y1 = sorted(rng.integers(0, 8, 2).tolist())
    x0, x1 = sorted(rng.integers(0, 8, 2).tolist())
    y1, x1 = y1 + 1, x1 + 1
    val = float(rng.uniform(1, 9))
    write_window(img, (b, slice(y0, y1), slice(x0, x1)), val)
    ref[b, y0:y1, x0:x1] = val
    assert np.array_equal(img, ref)


@settings(max_examples=30, deadline=None)
@given(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5), st.floats(1, 5000), st.floats(1, 5000), st.sampled_from([100.0, 1000.0, 5000.0]))
def test_covering_cells_contain_centers(x0, y0, wext, hext, res):
    from gdal_boots_ray.kernels.cells import grid_cell_id, grid_cells_covering_bounds

    b = (x0, y0, x0 + wext, y0 + hext)
    cells = set(grid_cells_covering_bounds(b, res).tolist())
    cx, cy = (b[0] + b[2]) / 2, (b[1] + b[3]) / 2
    assert int(grid_cell_id(np.array([cx]), np.array([cy]), res)[0]) in cells
    # corners (nudged inward) are covered too
    eps = min(wext, hext) * 1e-6
    for px, py in [(b[0] + eps, b[1] + eps), (b[2] - eps, b[3] - eps)]:
        assert int(grid_cell_id(np.array([px]), np.array([py]), res)[0]) in cells


@st.composite
def _boxes_and_res(draw):
    """(res, boxes): up to 12 boxes with corners on cell boundaries or
    anywhere, negative coordinates, and zero, whole-cell or any width
    and height."""
    res = draw(st.sampled_from([0.25, 1.0, 1000.0]))
    coord = st.one_of(st.integers(-40, 40).map(lambda k: k * res), st.floats(-40 * res, 40 * res))
    size = st.one_of(st.just(0.0), st.integers(1, 5).map(lambda k: k * res), st.floats(0.0, 5 * res))
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        x0, y0 = draw(coord), draw(coord)
        boxes.append((x0, y0, x0 + draw(size), y0 + draw(size)))
    return res, np.array(boxes, np.float64).reshape(-1, 4)


@settings(max_examples=60, deadline=None)
@given(_boxes_and_res())
def test_batched_cover_matches_per_box(res_boxes):
    """``grid_cells_covering_boxes`` gives every box exactly the cells,
    in the order, of one ``grid_cells_covering_bounds`` call."""
    from gdal_boots_ray.kernels.cells import grid_cells_covering_bounds, grid_cells_covering_boxes

    res, boxes = res_boxes
    box, cells = grid_cells_covering_boxes(boxes, res)
    assert np.all(np.diff(box) >= 0)
    for i, b in enumerate(boxes):
        assert cells[box == i].tolist() == grid_cells_covering_bounds(b, res).tolist()


def test_batched_cover_refuses_non_finite_boxes():
    from gdal_boots_ray.kernels.cells import grid_cells_covering_boxes

    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            grid_cells_covering_boxes(np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, bad, 1.0]]), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sample_points_matches_nearest_warp(seed):
    """values_by_points == a 1-px nearest warp at the same location
    (two independent code paths through the inverse affine)."""
    from gdal_boots_ray.kernels.sampling import sample_points
    from gdal_boots_ray.kernels.warp import WarpSource, warp

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 255, (20, 20)).astype(np.uint8)
    gt = [10.0, 0, 0.0, 0, -10.0, 200.0]
    src = WarpSource(img, np.asarray(gt), 3857)
    xs = rng.uniform(5, 195, 5)
    ys = rng.uniform(5, 195, 5)
    vals, ok = sample_points(img, gt, xs, ys)
    assert ok.all()
    for x, y, v in zip(xs, ys, vals):
        out, _ = warp([src], bbox=(x - 5, y - 5, x + 5, y + 5), bbox_crs=3857, resolution=(10, 10))
        # the warp output cell containing (x, y) holds the same value
        gi_inv_col = int((x - (x - 5)) // 10)
        gi_inv_row = int(((y + 5) - y) // 10)
        assert out[0, gi_inv_row, gi_inv_col] == v


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 3),
    st.sampled_from(["uint8", "uint16"]),
    st.integers(0, 2**31 - 1),
)
def test_jp2_roundtrip_property(h, w, bands, dtype, seed):
    """Lossless JPEG 2000 identity over arbitrary shapes/dtypes/content."""
    import numpy as np

    from gdal_boots_ray.kernels.jp2.codestream import decode_jp2, encode_jp2

    rng = np.random.default_rng(seed)
    hi = 256 if dtype == "uint8" else 65536
    img = rng.integers(0, hi, (bands, h, w)).astype(dtype)
    out = decode_jp2(encode_jp2(img))
    assert out.dtype == img.dtype and (out == img).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_dwt53_roundtrip_property(n, seed, levels):
    import numpy as np

    from gdal_boots_ray.kernels.jp2 import dwt53

    rng = np.random.default_rng(seed)
    a = rng.integers(-(2**15), 2**15, (n, max(1, (seed % 7) + 1))).astype(np.int32)
    ll, bands = dwt53.forward(a, levels)
    assert (dwt53.inverse(ll, bands) == a).all()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 90),
    st.integers(1, 90),
    st.sampled_from([None, "deflate", "lzw", "packbits"]),
    st.sampled_from([16, 32, 48]),
    st.sampled_from([16, 32]),
    st.integers(0, 2**32 - 1),
)
def test_gtiff_tiled_window_property(bands, h, w, compress, bx, by, seed):
    # any window of a tiled file equals the same slice of the source
    # array, for every compression and non-divisible edge geometry
    from gdal_boots_ray.kernels.gtiff import gtiff_decode_window, gtiff_encode

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (bands, h, w)).astype(np.uint8)
    blob = gtiff_encode(img, compress=compress, tiled=True, blockxsize=bx, blockysize=by)
    x0 = int(rng.integers(0, w))
    y0 = int(rng.integers(0, h))
    ww = int(rng.integers(1, w - x0 + 1))
    wh = int(rng.integers(1, h - y0 + 1))
    win, _, _ = gtiff_decode_window(blob, x0, y0, ww, wh)
    if win.ndim == 2:
        win = win[None]
    assert np.array_equal(win, img[:, y0 : y0 + wh, x0 : x0 + ww])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 70),
    st.integers(2, 70),
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2**32 - 1),
)
def test_gtiff_overview_pages_property(bands, h, w, lv, seed):
    # every overview page stores exactly overview_average of the
    # source, through the full container round trip, including
    # non-divisible dims (partial edge blocks)
    from gdal_boots_ray.kernels.gtiff import (
        gtiff_decode,
        gtiff_decode_overview,
        gtiff_encode,
        gtiff_overviews,
        overview_average,
    )

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (bands, h, w)).astype(np.uint8)
    blob = gtiff_encode(img, compress="deflate", overviews=(lv,))
    full, _, _ = gtiff_decode(blob)
    if full.ndim == 2:
        full = full[None]
    assert np.array_equal(full, img)
    (ow, oh), = gtiff_overviews(blob)
    assert ow == (w + lv - 1) // lv and oh == (h + lv - 1) // lv
    ov, _, _ = gtiff_decode_overview(blob, 0)
    if ov.ndim == 2:
        ov = ov[None]
    assert np.array_equal(ov, overview_average(img, lv))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["stere", "sterea"]),
    st.floats(-80, 80),
    st.floats(-180, 180),
    st.floats(0.99, 1.01),
    st.floats(-8, 8),
    st.floats(-8, 8),
)
def test_stereographic_family_roundtrip_property(proj, lat0, lon0, k0, dlon, dlat):
    """Random-parameter oblique/double stereographic instances invert
    exactly over a +/-8 deg window around their center (the families
    added in round 5; polar/UTM variants are covered above)."""
    from gdal_boots_ray.kernels.crs import resolve_crs

    lat = max(-85.0, min(85.0, lat0 + dlat))
    lon = lon0 + dlon
    p4 = f"+proj={proj} +lat_0={lat0} +lon_0={lon0} +k={k0} +x_0=5000 +y_0=-3000 +ellps=WGS84"
    crs = resolve_crs(p4)
    x, y = crs.from_lonlat(np.array([lon]), np.array([lat]))
    lon2, lat2 = crs.to_lonlat(x, y)
    # normalize longitude wrap
    dl = (lon2[0] - lon + 180.0) % 360.0 - 180.0
    assert abs(dl) < 1e-8 and abs(lat2[0] - lat) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, -1]),
    st.floats(-180, 180),
    st.floats(55, 89.5),
)
def test_laea_polar_roundtrip_property(pole, lon, alat):
    """Polar LAEA (EASE-Grid aspects) inverts exactly over its
    hemisphere, including high latitudes near the pole."""
    from gdal_boots_ray.kernels.crs import resolve_crs

    crs = resolve_crs(f"+proj=laea +lat_0={90 * pole} +lon_0=0 +ellps=WGS84")
    lat = alat * pole
    x, y = crs.from_lonlat(np.array([lon]), np.array([lat]))
    lon2, lat2 = crs.to_lonlat(x, y)
    dl = (lon2[0] - lon + 180.0) % 360.0 - 180.0
    assert abs(dl) < 1e-7 and abs(lat2[0] - lat) < 1e-7
