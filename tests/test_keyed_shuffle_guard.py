"""``stages.agg.exchange`` is the one keyed shuffle.  A plain
``groupby(key).map_groups`` calls Python once per key, so it is allowed
only where the body makes exactly one output per key: the mosaic
groups, the partitioned manifest writer and ``q_semdedup``'s cluster
dedup.  ``exchange`` itself calls no ``map_groups``: it splits its
buckets by explicit ranges and calls its body once per partition."""

import ast
import pathlib

import gdal_boots_ray

ALLOWED = {"mosaic_dataset", "write_partitioned", "q_semdedup"}


def map_groups_sites(root: pathlib.Path):
    """(file, outermost enclosing function) of every ``.map_groups(``
    call under ``root``; the function is None at module level."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, outer):
            for child in ast.iter_child_nodes(node):
                fn = outer
                if outer is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = child.name
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "map_groups"
                ):
                    sites.append((str(path.relative_to(root)), fn))
                visit(child, fn)

        visit(tree, None)
    return sites


def test_map_groups_only_in_one_output_per_key_sites():
    root = pathlib.Path(gdal_boots_ray.__file__).parent
    sites = map_groups_sites(root)
    assert {fn for _, fn in sites} >= {"write_partitioned"}  # the scan sees the package
    stray = [s for s in sites if s[1] not in ALLOWED]
    assert not stray, f"per-key map_groups outside {sorted(ALLOWED)}: {stray}; use stages.agg.exchange"
