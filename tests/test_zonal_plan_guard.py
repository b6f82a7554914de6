"""``stages.zonal.zone_spans`` is the one zone-pixel selection: the
flagship, ``zonal_stats``, ``zonal_majority`` and ``zonal_median`` all
reduce its spans.  ``_rings_mask`` stays only as the tests' one-tile
scanline reference, so a ``_rings_mask(`` call in program code is a
second selection the oracle does not check.  The per-pair generator,
actor and selector the spans replaced (``zone_pixels``, ``ZonalStats``,
``select_zone_pixels``) stay gone.  The broadcast PIP join and the
batch cover test run the one batched kernel, ``points_in_polygons``,
with no Python loop, so the per-polygon ``points_in_rings`` pass they
replaced cannot come back."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
GONE = {"ZonalStats", "select_zone_pixels", "zone_pixels"}
PIP_KERNEL_CALLERS = [
    ("gdal_boots_ray/stages/joins.py", "BroadcastPIPJoin"),
    ("gdal_boots_ray/stages/zonal.py", "_cover_pairs"),
]
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def program_files(root: pathlib.Path):
    """Every non-test ``.py`` file under ``root`` (hidden dirs and
    ``tests/`` skipped)."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests" or any(p.startswith(".") for p in rel.parts):
            continue
        yield path


def call_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


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
                    if call_name(child) == "_rings_mask":
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


def test_pip_kernel_callers_make_one_batched_call():
    for rel, name in PIP_KERNEL_CALLERS:
        tree = ast.parse((REPO / rel).read_text())
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        assert name in defs, f"{rel} defines no {name}"
        calls = [call_name(n) for n in ast.walk(defs[name]) if isinstance(n, ast.Call)]
        loops = [(type(n).__name__, n.lineno) for n in ast.walk(defs[name]) if isinstance(n, LOOPS)]
        assert calls.count("points_in_polygons") == 1, f"{rel}::{name} should call points_in_polygons once"
        assert "points_in_rings" not in calls, f"{rel}::{name} calls points_in_rings; use points_in_polygons"
        assert not loops, f"{rel}::{name} loops in Python at {loops}; batch the pairs through points_in_polygons"
