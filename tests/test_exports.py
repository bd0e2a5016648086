"""The package's public names: what the benchmark, the CLI and the README
reach must resolve, and the package exports exactly the pinned set.

perfbench/tracer.py wraps each TARGETS name with getattr on its module, so
a name missing there fails every traced benchmark run; perfbench/workloads.py
reads names off the package as th.<name>.
"""

import ast
import doctest
import importlib
import importlib.util
import re
import types
from pathlib import Path

import trihex
import trihex.errors

ROOT = Path(__file__).resolve().parent.parent

# What the README names, what trihex.cli imports, what perfbench reads off
# the package, and every class in trihex.errors.
EXPORTS = {
    "ALL_SEEDS",
    "BONES",
    "BenzelParams",
    "ConstructionFailed",
    "DEFAULT_SEED",
    "EmptyRegion",
    "FormatError",
    "InvalidParams",
    "InvalidPlacement",
    "InvalidTiling",
    "KIND_BY_NAME",
    "LatticePoint",
    "NonIntegralArea",
    "NonIsolatedSpur",
    "NotACellCenter",
    "NotClosed",
    "NotSimplyConnected",
    "Placement",
    "Region",
    "RenderSpec",
    "ResourceLimit",
    "STONES_AND_BONES",
    "ShadowNotClosed",
    "Step",
    "TileKind",
    "Tiling",
    "TrihexError",
    "area_formula",
    "benzel",
    "boundary_cycle",
    "boundary_word_closed_form",
    "cl_invariant_formula",
    "cl_invariant_path",
    "construct_tiling",
    "count_tilings",
    "despur",
    "enumerate_tilings",
    "find_spurs",
    "is_pentagonal_pair",
    "orientation_histogram",
    "pentagonal_benzel",
    "placement_frequency",
    "placements",
    "region_from_json",
    "region_to_json",
    "render_svg",
    "rotate120",
    "shadow_word",
    "signed_area",
    "stone_balance",
    "tiling_from_json",
    "tiling_to_json",
    "trace_boundary",
    "triangle",
    "validate",
    "winding_numbers",
    "word_from_text",
    "word_to_text",
}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def _readme_imports():
    parser = doctest.DocTestParser()
    names = set()
    for example in parser.get_examples((ROOT / "README.md").read_text()):
        for node in ast.walk(ast.parse(example.source)):
            if isinstance(node, ast.ImportFrom) and node.module == "trihex":
                names.update(alias.name for alias in node.names)
    return names


def _cli_imports():
    tree = ast.parse((ROOT / "src" / "trihex" / "cli.py").read_text())
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    }


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for short, names in targets.items():
        module = importlib.import_module("trihex." + short)
        for name in names:
            assert callable(getattr(module, name, None)), f"trihex.{short}.{name}"


def test_benchmark_cli_readme_and_error_names_are_exported():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    read = set(re.findall(r"\bth\.([A-Za-z_]\w*)", workloads))
    imported = _readme_imports()
    errors = {
        name for name, value in vars(trihex.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert read and imported and errors
    needed = read | imported | _cli_imports() | errors
    assert sorted(n for n in needed if not hasattr(trihex, n)) == []


def test_public_names_are_pinned():
    public = {
        name for name in dir(trihex)
        if not name.startswith("__")
        and not isinstance(getattr(trihex, name), types.ModuleType)
    }
    assert public == EXPORTS
