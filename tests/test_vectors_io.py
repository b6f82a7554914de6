"""Vector source/sink + reprojection stage (reference
tests/test_vector.py semantics: open FeatureCollection, feature
count/props, to_epsg round trip)."""

import json

import numpy as np
import pytest

from gdal_boots_ray.sources.vectors import (
    features_table,
    make_to_epsg,
    reproject_features,
    to_feature_collection,
)


def _minsk_collection(minsk_polygon):
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "id": 7,
                "geometry": minsk_polygon,
                "properties": {"name:en": "Minsk", "admin_level": "4"},
            }
        ],
    }


def test_features_table(minsk_polygon):
    t = features_table(_minsk_collection(minsk_polygon))
    assert t.num_rows == 1
    assert t.column("geom_type")[0].as_py() == "Polygon"
    props = json.loads(t.column("props")[0].as_py())
    assert props["name:en"] == "Minsk"  # reference tests/test_vector.py:18
    assert t.column("epsg")[0].as_py() == 4326


def test_bare_geometry_wrapped(minsk_polygon):
    t = features_table(minsk_polygon)
    assert t.num_rows == 1 and t.column("fid")[0].as_py() == 0


def test_crs_from_collection(minsk_polygon):
    coll = _minsk_collection(minsk_polygon)
    coll["crs"] = {"type": "name", "properties": {"name": "urn:ogc:def:crs:EPSG::3857"}}
    t = features_table(coll)
    assert t.column("epsg")[0].as_py() == 3857


def test_reproject_features_roundtrip(minsk_polygon):
    t = features_table(_minsk_collection(minsk_polygon))
    t3857 = reproject_features(t, 3857)
    assert t3857.column("epsg")[0].as_py() == 3857
    g = json.loads(t3857.column("geom")[0].as_py())
    assert g["coordinates"][0][0][0] > 3_000_000  # meters now
    back = reproject_features(t3857, 4326)
    g2 = np.array(json.loads(back.column("geom")[0].as_py())["coordinates"][0])
    orig = np.array(minsk_polygon["coordinates"][0])
    assert np.allclose(g2, orig, atol=1e-9)
    # schema preserved (reference copies field defns, gdal.py:1307-1312)
    assert back.schema.names == t.schema.names


def test_feature_collection_roundtrip(minsk_polygon):
    t = features_table(_minsk_collection(minsk_polygon))
    coll = to_feature_collection(t, precision=9)
    assert coll["type"] == "FeatureCollection"
    assert coll["features"][0]["properties"]["name:en"] == "Minsk"
    t2 = features_table(coll)
    assert t2.num_rows == 1


def test_geojson_dataset_roundtrip(ray_session, minsk_polygon):
    import ray.data as rd

    from gdal_boots_ray.sources.vectors import read_geojson

    ds = read_geojson(json.dumps(_minsk_collection(minsk_polygon)))
    out = ds.map_batches(make_to_epsg(3857), batch_format="pyarrow").to_pandas()
    assert len(out) == 1 and out["epsg"].iloc[0] == 3857


def test_add_field_and_types(minsk_polygon):
    # reference tests/test_vector.py:101-110 semantics
    from gdal_boots_ray.sources.vectors import add_field, field_names, field_types

    t = features_table(_minsk_collection(minsk_polygon))
    t = add_field(t, "string_property", str, "x")
    t = add_field(t, "int_property", int, 0)
    assert field_names(t)[-2:] == ["string_property", "int_property"]
    assert field_types(t)[-2:] == [str, int]
    with pytest.raises(ValueError):
        add_field(t, "bad", bytes)


def test_write_geojson_sink(ray_session, minsk_polygon, tmp_path):
    import json as _json

    import ray.data as rd

    from gdal_boots_ray.sources.vectors import read_geojson, write_geojson

    ds = read_geojson(_json.dumps(_minsk_collection(minsk_polygon)))
    path = str(tmp_path / "out.geojson")
    n = write_geojson(ds, path, precision=9)
    assert n == 1
    coll = _json.load(open(path))
    assert coll["type"] == "FeatureCollection"
    # round-trip back through the reader
    assert read_geojson(path).to_pandas().shape[0] == 1


def test_jp2_codec_args_and_ecw_seam():
    from gdal_boots_ray.options import ECW, JP2OpenJPEG, codec_args

    enc = JP2OpenJPEG(quality=50).encode()
    assert "QUALITY=50" in enc  # reference options encode parity
    # JP2 is a real codec (kernels/jp2); resolutions -> DWT levels and
    # the reference's default quality=25 selects the lossy path
    assert codec_args(JP2OpenJPEG()) == {"fmt": "jp2", "quality": 25.0}
    assert codec_args(JP2OpenJPEG(resolutions=6, quality=100)) == {"fmt": "jp2", "levels": 5}
    with pytest.raises(NotImplementedError):  # ECW stays a seam
        codec_args(ECW())

