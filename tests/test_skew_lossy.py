"""Hot-cell aggregate + lossy PSNR fidelity gate."""

import numpy as np
import pyarrow as pa
import pytest


def test_salted_cell_aggregate(ray_session, monkeypatch):
    """One hot cell with 90% of the rows, over 8 blocks: exact counts
    and sums, and the per-batch partial hands ``exchange`` at most one
    row per (block, cell), so the hot cell reaches the shuffle as one
    row per block."""
    import ray.data as rd

    from gdal_boots_ray.stages import agg

    rng = np.random.default_rng(2)
    n, n_blocks = 20_000, 8
    hot = rng.random(n) < 0.9
    cells = np.where(hot, 7, rng.integers(100, 110, n)).astype(np.int64)
    vals = rng.integers(0, 1000, n).astype(np.int64)
    t = pa.table({"cell": pa.array(cells), "v": pa.array(vals)})
    step = n // n_blocks
    ds = rd.from_arrow([t.slice(i, step) for i in range(0, n, step)])

    exchanged = []
    real_exchange = agg.exchange

    def capture(inputs, *args, **kwargs):
        exchanged.append(inputs)
        return real_exchange(inputs, *args, **kwargs)

    monkeypatch.setattr(agg, "exchange", capture)
    out = agg.bucketed_aggregate(ds, ["cell"], {"n": "count", "v": "sum"}).to_pandas()

    uniq, counts = np.unique(cells, return_counts=True)
    assert dict(zip(out["cell"], out["n"])) == dict(zip(uniq.tolist(), counts.tolist()))
    sums = {int(c): int(vals[cells == c].sum()) for c in uniq}
    assert dict(zip(out["cell"], out["v"])) == sums

    (partials,) = exchanged
    blocks = list(partials.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert len(blocks) >= n_blocks
    for b in blocks:
        keys = b.column("cell").to_numpy()
        assert len(np.unique(keys)) == len(keys)


def test_lossy_quantize_psnr():
    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.stages.decode import lossy_quantize

    rng = np.random.default_rng(31415926)
    img = rng.integers(0, 255, (3, 128, 128)).astype(np.uint8)
    q5 = lossy_quantize(img, 5)
    assert psnr(img, q5) >= 40.0  # BASELINE.json lossy gate
    q4 = lossy_quantize(img, 4)
    assert psnr(img, q4) < 40.0 < psnr(img, q5)
    assert lossy_quantize(img, 8) is img


def test_lossy_encode_roundtrip(ray_session):
    import ray.data as rd

    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.sources.fixtures import synth_images_batch, tile_pixels
    from gdal_boots_ray.stages.decode import DecodeImages, EncodeImages, batch_pixel_views

    batch = DecodeImages()(synth_images_batch(np.arange(8)))
    enc = EncodeImages(quantize_bits=5)(batch)
    dec = DecodeImages()(enc)
    views = batch_pixel_views(dec)
    for i, iid in enumerate(dec.column("image_id").to_pylist()):
        k = int(iid.split("-")[1])
        orig = tile_pixels(k, views[i].shape[-1], views[i].shape[-2])
        assert psnr(orig, views[i] if views[i].ndim == 2 else views[i][0]) >= 40.0
        # caption fidelity per row (input_hint)
        assert dec.column("caption")[i].as_py() == f"tile {iid}"
