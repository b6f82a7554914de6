"""``stages.zonal.zone_spans`` is the one zone-pixel selection: the
flagship, ``zonal_stats``, ``zonal_majority`` and ``zonal_median`` all
reduce its spans.  ``_rings_mask`` stays only as the tests' one-tile
scanline reference, so a ``_rings_mask(`` call in program code is a
second selection the oracle does not check.  The per-pair generator,
actor and selector the spans replaced (``zone_pixels``, ``ZonalStats``,
``select_zone_pixels``) stay gone."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
GONE = {"ZonalStats", "select_zone_pixels", "zone_pixels"}


def program_files(root: pathlib.Path):
    """Every non-test ``.py`` file under ``root`` (hidden dirs and
    ``tests/`` skipped)."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests" or any(p.startswith(".") for p in rel.parts):
            continue
        yield path


def zonal_sites(root: pathlib.Path):
    """(mask_defs, mask_calls, gone_names): every definition of
    ``_rings_mask`` and every ``_rings_mask(`` call as (file, enclosing
    function chain), and every definition, import or use of a deleted
    name as (file, name)."""
    mask_defs, mask_calls, gone = [], [], []
    for path in program_files(root):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, chain):
            for child in ast.iter_child_nodes(node):
                inner = chain
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = chain + (child.name,)
                    if child.name in GONE:
                        gone.append((rel, child.name))
                    if child.name == "_rings_mask":
                        mask_defs.append((rel, inner))
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                    if name == "_rings_mask":
                        mask_calls.append((rel, chain))
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    gone.extend((rel, a.name) for a in child.names if a.name.split(".")[-1] in GONE)
                elif isinstance(child, ast.Name) and child.id in GONE:
                    gone.append((rel, child.id))
                elif isinstance(child, ast.Attribute) and child.attr in GONE:
                    gone.append((rel, child.attr))
                visit(child, inner)

        visit(tree, ())
    return mask_defs, mask_calls, gone


def test_rings_mask_called_by_no_program_code():
    mask_defs, mask_calls, _ = zonal_sites(REPO)
    # the scan sees the package
    assert mask_defs == [("gdal_boots_ray/stages/zonal.py", ("_rings_mask",))]
    assert not mask_calls, f"_rings_mask( called in program code: {mask_calls}; reduce stages.zonal.zone_spans instead"


def test_per_pair_zonal_selectors_stay_deleted():
    *_, gone = zonal_sites(REPO)
    assert not gone, f"deleted zonal names are back: {gone}; use stages.zonal.zone_spans and its reducers"
