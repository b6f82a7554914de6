"""Per-file tile chain of the flagship on edge inputs, in-process, no
Ray: a truncated PNG row fails with a ``ValueError`` naming its
``image_id`` (and, from the per-file task, its file), a zero-row
file yields an empty partials table that is checkpointed as an empty
partition, and a file whose partition is written (a retried task) is
not read again."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

N_IMAGES = 64
TILE_PX = 24


@pytest.fixture
def table_file(tmp_path):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    path = generate_images_parquet(
        str(tmp_path / "tbl"), n_images=N_IMAGES, tile_px=TILE_PX, bands=3, skew_frac=0.0, rows_per_file=N_IMAGES
    )
    return glob.glob(os.path.join(path, "part-*.parquet"))[0]


def _worker():
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines.flagship import FusedTileWorker
    from gdal_boots_ray.sources.fixtures import TILE_RES, TILE_X0, TILE_Y0

    # one rectangle over the whole one-row tile grid: every tile matches
    x1 = TILE_X0 + 64 * TILE_PX * TILE_RES
    y1 = TILE_Y0 - TILE_PX * TILE_RES
    ring = [[TILE_X0 - 1, TILE_Y0 + 1], [x1 + 1, TILE_Y0 + 1], [x1 + 1, y1 - 1], [TILE_X0 - 1, y1 - 1]]
    geometry = {"type": "Polygon", "coordinates": [ring + [ring[0]]]}
    return FusedTileWorker([(0, polygon_rings(geometry))], 5000.0, 9, True, batch_size=16)


def _truncate_first_png(path):
    t = pq.read_table(path)
    i = t.column("fmt").to_pylist().index("png")
    blobs = t.column("bytes").to_pylist()
    blobs[i] = blobs[i][:40]
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, t.schema.field("bytes").type))
    pq.write_table(t, path)
    return t.column("image_id")[i].as_py()


def test_truncated_png_names_its_row_and_file(table_file):
    from gdal_boots_ray.pipelines.flagship import IMAGE_COLS, _file_partials

    worker = _worker()
    assert worker(pq.read_table(table_file, columns=IMAGE_COLS)).num_rows == 1
    bad_id = _truncate_first_png(table_file)
    with pytest.raises(ValueError, match=bad_id) as row_err:
        worker(pq.read_table(table_file, columns=IMAGE_COLS))
    assert "truncated PNG" in str(row_err.value)
    assert isinstance(row_err.value.__cause__, ValueError)
    with pytest.raises(ValueError) as file_err:
        _file_partials(worker, table_file)
    assert table_file in str(file_err.value) and bad_id in str(file_err.value)


def test_zero_row_file_gives_an_empty_partition(table_file, tmp_path):
    from gdal_boots_ray.pipelines.flagship import _file_partials
    from gdal_boots_ray.state.manifest import completed_partitions

    empty = str(tmp_path / "part-empty.parquet")
    pq.write_table(pq.read_table(table_file).slice(0, 0), empty)
    worker = _worker()
    full = _file_partials(worker, table_file)
    got = _file_partials(worker, empty, out_dir=str(tmp_path / "ckpt"))
    assert got.num_rows == 0 and got.schema == full.schema
    assert completed_partitions(str(tmp_path / "ckpt"))["part-empty"]["rows"] == 0


def test_checkpointed_file_is_not_read_again(table_file, tmp_path):
    from gdal_boots_ray.pipelines.flagship import _file_partials
    from gdal_boots_ray.state.manifest import completed_partitions

    out_dir = str(tmp_path / "ckpt")
    worker = _worker()
    first = _file_partials(worker, table_file, out_dir=out_dir)
    assert first.num_rows == 1
    stem = os.path.splitext(os.path.basename(table_file))[0]
    assert completed_partitions(out_dir)[stem]["cell_range"] is not None
    with open(table_file, "wb") as fd:
        fd.write(b"not a parquet file")
    # the checkpointed partials come back without a read of the input
    assert _file_partials(worker, table_file, out_dir=out_dir).equals(first)
    with pytest.raises(pa.ArrowInvalid):
        _file_partials(worker, table_file)
