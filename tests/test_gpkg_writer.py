"""GPKG writer + band descriptions (M12) parity tests."""

import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pytest


def _feature_table():
    from gdal_boots_ray.sources.vectors import FEATURE_SCHEMA

    feats = [
        (1, {"type": "Point", "coordinates": [27.5, 53.9]}, {"name": "a", "n": 3, "r": 1.5}),
        (2, {"type": "Polygon", "coordinates": [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]},
         {"name": "b", "n": 7, "r": 2.5}),
        (3, {"type": "MultiPoint", "coordinates": [[1.0, 2.0], [3.0, 4.0]]}, {"name": "c", "n": 1, "r": 0.5}),
        (4, {"type": "MultiPolygon",
             "coordinates": [[[[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [0.0, 0.0]]]]},
         {"name": "d", "n": 9, "r": 4.5}),
    ]
    return feats, pa.table(
        {
            "fid": pa.array([f[0] for f in feats], pa.int64()),
            "layer": pa.array(["lyr"] * len(feats), pa.string()),
            "geom": pa.array([json.dumps(f[1]) for f in feats], pa.string()),
            "geom_type": pa.array([f[1]["type"] for f in feats], pa.string()),
            "epsg": pa.array([4326] * len(feats), pa.int32()),
            "props": pa.array([json.dumps(f[2]) for f in feats], pa.string()),
        },
        schema=FEATURE_SCHEMA,
    )


class TestGpkgWriter:
    def test_write_read_roundtrip(self, tmp_path):
        from gdal_boots_ray.sources.gpkg import gpkg_layers, read_gpkg_table, write_gpkg

        feats, t = _feature_table()
        p = str(tmp_path / "t.gpkg")
        write_gpkg(p, t, layer="lyr")
        assert gpkg_layers(p) == ["lyr"]
        back = read_gpkg_table(p, "lyr")
        assert back.num_rows == len(feats)
        for i, f in enumerate(feats):
            assert json.loads(back.column("geom")[i].as_py()) == f[1]
            pr = json.loads(back.column("props")[i].as_py())
            assert (pr["name"], pr["n"], pr["r"]) == (f[2]["name"], f[2]["n"], f[2]["r"])
        assert back.column("epsg")[0].as_py() == 4326

    def test_to_bytes_roundtrip(self):
        from gdal_boots_ray.sources.gpkg import gpkg_to_bytes, read_gpkg

        feats, t = _feature_table()
        blob = gpkg_to_bytes(t, layer="lyr")
        assert blob.startswith(b"SQLite format 3")
        fd, tmp = tempfile.mkstemp(suffix=".gpkg")
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        try:
            from gdal_boots_ray.sources.gpkg import read_gpkg_table

            back = read_gpkg_table(tmp, "lyr")
            assert back.num_rows == len(feats)
        finally:
            os.unlink(tmp)

    def test_wkb_encoder_matches_parser(self):
        from gdal_boots_ray.sources.gpkg import encode_wkb, parse_wkb

        geoms = [
            {"type": "Point", "coordinates": [1.5, -2.5]},
            {"type": "LineString", "coordinates": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]},
            {"type": "MultiLineString", "coordinates": [[[0.0, 0.0], [1.0, 1.0]]]},
            {"type": "GeometryCollection",
             "geometries": [{"type": "Point", "coordinates": [9.0, 9.0]}]},
        ]
        for g in geoms:
            parsed, _ = parse_wkb(encode_wkb(g))
            assert parsed == g


class TestBandDescriptions:
    def test_get_defaults_and_set_validation(self):
        from gdal_boots_ray.kernels.raster_ops import band_descriptions_get, band_descriptions_set

        assert band_descriptions_get(None, 3) == ["", "", ""]
        assert band_descriptions_get(["red"], 3) == ["red", "", ""]
        assert band_descriptions_set(2, ["B04", "B08"]) == ["B04", "B08"]
        with pytest.raises(ValueError):
            band_descriptions_set(2, ["only-one"])
        with pytest.raises(ValueError):
            band_descriptions_get(["a", "b", "c"], 2)

    def test_stage_sets_band_desc_column(self, ray_session):
        import ray.data as rd

        from gdal_boots_ray.sources.fixtures import synth_images_batch
        from gdal_boots_ray.stages.decode import DecodeImages, make_set_band_descriptions

        batch = synth_images_batch(np.arange(6), bands=1)
        ds = rd.from_arrow(batch).map_batches(DecodeImages, batch_format="pyarrow", concurrency=1)
        ds = ds.map_batches(make_set_band_descriptions(["gray"]), batch_format="pyarrow")
        rows = ds.take(3)
        assert all(r["band_desc"] == ["gray"] for r in rows)
