"""The span sum of ``stages.zonal.zonal_partials`` runs in uint32 when
the band-0 buffer is unsigned and its longest span cannot overflow 32
bits, and in float64 otherwise; either way every partial equals a
float64 per-pair reference.  ``flagship.band0_reader`` writes every
matched tile's band 0 into one buffer whose dtype holds each tile's, so
a batch that mixes a raw uint8 tile with a 16-bit PNG tile reduces to
the partials of the two tiles run in separate batches.  In-process, no
Ray."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_boots_ray.kernels.geometry import polygon_rings
from gdal_boots_ray.kernels.png import png_encode, raw_encode
from gdal_boots_ray.pipelines.flagship import band0_reader
from gdal_boots_ray.stages.zonal import PolygonEdges, zonal_partials, zone_spans

UNIT = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]  # (col, row) -> (x, y) = (col, row)


def _rect(x0, y0, x1, y1):
    return polygon_rings({"type": "Polygon", "coordinates": [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]})


def _diamond(cx, cy, r):
    ring = [[cx, cy - r], [cx + r, cy], [cx, cy + r], [cx - r, cy], [cx, cy - r]]
    return polygon_rings({"type": "Polygon", "coordinates": [ring]})


def _matched(pairs):
    """The (pids, hs, ws, gts) arrays of ``pairs`` of (poly_id, h, w, gt)."""
    return (
        np.array([p for p, *_ in pairs], np.int64),
        np.array([h for _, h, _, _ in pairs], np.int64),
        np.array([w for _, _, w, _ in pairs], np.int64),
        np.array([g for *_, g in pairs], np.float64).reshape(-1, 6),
    )


def _spans(matched, edges, base):
    """The zone spans of ``matched`` shifted onto a buffer that holds
    pair ``i``'s band at ``base[i]``."""
    pair, start, end = zone_spans(edges, *matched)
    return pair, start + base[pair], end + base[pair]


class SpanSumSpy(np.ndarray):
    """A buffer that records the accumulator dtype of each
    ``np.add.reduceat`` over it."""

    dtypes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kw):
        if ufunc is np.add and method == "reduceat" and isinstance(inputs[0], SpanSumSpy):
            SpanSumSpy.dtypes.append(np.dtype(kw.get("dtype")))
        inputs = [x.view(np.ndarray) if isinstance(x, SpanSumSpy) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kw)


def _reference(matched, edges, buf, base):
    """Per-pair (poly_id, n_px, sum_v, min_v, max_v) of the zone spans,
    each pair's pixels gathered and summed in float64."""
    pair, start, end = _spans(matched, edges, base)
    pids = matched[0].tolist()
    out = []
    for i in np.unique(pair):
        sel = pair == i
        px = np.concatenate([buf[s:e] for s, e in zip(start[sel], end[sel])])
        out.append((pids[i], px.size, float(px.sum(dtype=np.float64)), float(px.min()), float(px.max())))
    return out


def _rows(partials):
    return list(zip(*(partials[c].tolist() for c in ("poly_id", "n_px", "sum_v", "min_v", "max_v"))))


def _spied_partials(matched, edges, buf, base):
    SpanSumSpy.dtypes = []
    got = zonal_partials(matched[0], *_spans(matched, edges, base), buf.view(SpanSumSpy))
    return _rows(got), SpanSumSpy.dtypes


def test_uint8_spans_sum_in_uint32():
    """Whole tiles (up to 300 x 400 px of 255) and boundary spans of a
    uint8 buffer sum in uint32 and equal the float64 reference."""
    edges = PolygonEdges([(0, _rect(-1, -1, 1000, 1000)), (1, _diamond(20, 15, 14)), (2, _diamond(150, 200, 180))])
    pairs = [(0, 300, 400, UNIT), (1, 30, 40, UNIT), (2, 300, 400, UNIT), (1, 17, 9, UNIT), (0, 17, 9, UNIT)]
    sizes = np.array([h * w for _, h, w, _ in pairs])
    base = np.cumsum(sizes) - sizes
    rng = np.random.default_rng(5)
    buf = np.concatenate([rng.integers(0, 256, int(sizes.sum()), dtype=np.uint8), np.zeros(1, np.uint8)])
    buf[: sizes[0]] = 255
    matched = _matched(pairs)
    got, dtypes = _spied_partials(matched, edges, buf, base)
    assert dtypes == [np.dtype(np.uint32)]
    assert got == _reference(matched, edges, buf, base)
    assert got[0] == (0, 120_000, 255.0 * 120_000, 255.0, 255.0)
    assert len(got) == len(pairs)


@pytest.mark.parametrize(
    "widths, accumulator",
    [([65_537], np.uint32), ([65_538], np.float64), ([65_537, 65_538], np.float64), ([3, 65_537], np.uint32)],
)
def test_uint16_span_past_32_bits_sums_in_float64(widths, accumulator):
    """A uint16 span of 65,537 px of 65,535 sums to 2**32 - 1 in uint32;
    one pixel more would wrap a uint32 sum, so that batch sums in
    float64, and both equal the float64 reference."""
    edges = PolygonEdges([(0, _rect(-1, -1, 70_000, 2))])
    pairs = [(0, 1, w, UNIT) for w in widths]
    sizes = np.array(widths)
    base = np.cumsum(sizes) - sizes
    buf = np.concatenate([np.full(int(sizes.sum()), 65_535, np.uint16), np.zeros(1, np.uint16)])
    matched = _matched(pairs)
    got, dtypes = _spied_partials(matched, edges, buf, base)
    assert dtypes == [np.dtype(accumulator)]
    assert got == _reference(matched, edges, buf, base)
    assert [r[2] for r in got] == [65_535.0 * w for w in widths]


def _tile_batch(tiles):
    """Image batch of ``tiles`` of (fmt, encoded bytes, h, w)."""
    return pa.table(
        {
            "image_id": pa.array([f"t{i}" for i in range(len(tiles))]),
            "bytes": pa.array([b for _, b, _, _ in tiles], pa.binary()),
            "w": pa.array([w for *_, w in tiles], pa.int32()),
            "h": pa.array([h for _, _, h, _ in tiles], pa.int32()),
            "fmt": pa.array([f for f, *_ in tiles]),
        }
    )


def test_mixed_raw_uint8_and_png_uint16_batch_equals_separate_batches():
    """Band 0 of a raw uint8 tile and of a 16-bit PNG tile share one
    uint16 buffer; the partials equal those of each tile in a batch of
    its own (uint8 and uint16 buffers) and the float64 reference."""
    rng = np.random.default_rng(7)
    raw_img = rng.integers(0, 256, (3, 20, 24), dtype=np.uint8)
    png_img = rng.integers(0, 65_536, (2, 18, 16), dtype=np.uint16)
    tiles = [("raw", raw_encode(raw_img), 20, 24), ("png", png_encode(png_img), 18, 16)]
    gts = [UNIT, [1.0, 0.0, 30.0, 0.0, 1.0, 0.0]]
    polys = [(0, _rect(-5, -5, 100, 100)), (1, _diamond(25, 10, 12))]
    edges = PolygonEdges(polys)
    # (tile row, poly_id): every tile under the cover-all rectangle and the diamond
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def run(rows):
        """(buffer dtype, partials) of a batch of the tiles ``rows``."""
        batch = _tile_batch([tiles[r] for r in rows])
        at = {r: i for i, r in enumerate(rows)}
        matched = _matched([(p, tiles[r][2], tiles[r][3], gts[r]) for r, p in pairs if r in at])
        buf, base = band0_reader(batch, np.array([at[r] for r, _ in pairs if r in at]))
        got = _rows(zonal_partials(matched[0], *_spans(matched, edges, base), buf))
        assert got == _reference(matched, edges, buf, base)
        return buf.dtype, got

    mixed_dtype, mixed = run([0, 1])
    separate = []
    for t, dtype in enumerate([np.uint8, np.uint16]):
        dt, got = run([t])
        assert dt == dtype
        separate += got
    assert mixed_dtype == np.uint16
    assert mixed == separate
    assert len(mixed) == 4 and max(r[4] for r in mixed) > 255


def test_bad_raw_tile_names_its_row():
    """A raw tile of another shape than its row's, a short one, one cut
    inside its header and one of an unknown dtype code each raise a
    ValueError naming the row and the cause."""
    good = raw_encode(np.zeros((1, 4, 6), np.uint8))
    cases = [
        ("band 0 is", good, 6, 4),
        ("buffer is smaller", good[:-1], 4, 6),
        ("truncated RAW1", good[:9], 4, 6),
        ("unknown dtype code 99", good[:4] + bytes([99]) + good[5:], 4, 6),
    ]
    for cause, data, h, w in cases:
        batch = _tile_batch([("png", png_encode(np.zeros((2, 2), np.uint8)), 2, 2), ("raw", data, h, w)])
        with pytest.raises(ValueError, match=f"image_id 't1'.*{cause}"):
            band0_reader(batch, np.array([0, 1]))
