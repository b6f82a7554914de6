"""Image column stages (features, resize) + metrics report parsing."""

import json

import numpy as np

from gdal_boots_ray.sources.fixtures import synth_images_batch
from gdal_boots_ray.stages.decode import DecodeImages
from gdal_boots_ray.stages.multimodal import ImageFeatures, make_resize_images


def _decoded(n=8):
    return DecodeImages()(synth_images_batch(np.arange(n)))


def test_image_features():
    out = ImageFeatures()(_decoded())
    assert {"mean_v", "std_v", "dhash"} <= set(out.column_names)
    # deterministic
    out2 = ImageFeatures()(_decoded())
    assert out.column("dhash").to_pylist() == out2.column("dhash").to_pylist()
    assert all(isinstance(v, int) for v in out.column("dhash").to_pylist())


def test_resize_images():
    out = make_resize_images(16)(_decoded())
    assert set(out.column("w").to_pylist()) == {16}
    assert set(out.column("h").to_pylist()) == {16}
    from gdal_boots_ray.stages.decode import batch_pixel_views

    views = batch_pixel_views(out)
    assert views[0].shape[-2:] == (16, 16)


def test_metrics_report(ray_session, tmp_path):
    import ray.data as rd

    from gdal_boots_ray.state.metrics import run_with_report

    ds = rd.range(1000).map_batches(lambda b: b, batch_format="pyarrow")
    path = str(tmp_path / "report.json")
    out = run_with_report(ds, path, extra={"job": "test"})
    assert len(out) == 1000
    report = json.load(open(path))
    assert report["extra"]["job"] == "test"
    assert report["wall_s"] > 0
    assert report["stages"]
    assert [s["rows"] for s in report["stages"]] == [1000]
    assert report["stages"][0]["wall_s"] > 0
