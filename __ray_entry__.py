"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship spatial-join + tiling pipeline on
sf0.001; ``queries()`` exposes one callable per implemented operator
(SURVEY.md §2 + the training-data operators); ``oracle_sql()`` gives
the DuckDB twin for every SQL-expressible query.

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` here or in the library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001: synthesize the input_hint images
    table from `part`, then the fused tile chain (bounds + grid/S2
    cells, broadcast PIP join vs the nation polygons, band-0 decode of
    the matched tiles, zonal partials) and the per-polygon aggregate."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, fused_partials
    from gdal_boots_ray.pipelines.queries._common import _tiles_dataset
    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.joins import put_polygons

    nk = pq.read_table(f"{_SF0001}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    poly_ref = put_polygons(nation_polygons(nk))
    ds = _tiles_dataset(_SF0001, decode=False)
    stats = fused_partials(ds, poly_ref, cell_res=1000.0, s2_level=9, with_s2=True, batch_size=256)
    return rd.from_pandas(combine_zonal_partials(stats))


def queries() -> dict[str, Callable[[str], Any]]:
    from gdal_boots_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from gdal_boots_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
