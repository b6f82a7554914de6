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
    import ray.data as rd

    from gdal_boots_ray.pipelines.queries.raster import flagship_zonal

    return rd.from_pandas(flagship_zonal(_SF0001))


def queries() -> dict[str, Callable[[str], Any]]:
    from gdal_boots_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from gdal_boots_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
