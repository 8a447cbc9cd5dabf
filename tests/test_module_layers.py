"""The package's layering: each module imports only the kummerlab modules
below it, read from the source with ast so no import is executed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kummerlab"

# module -> the package modules it may import; None means any
ALLOWED = {
    "__init__": set(),
    "errors": set(),
    "lattice_algebra": {"errors"},
    "torus_kummer": {"errors", "lattice_algebra"},
    "blanc_cremona": {"errors"},
    "wehler_dynamics": {"errors", "lattice_algebra", "torus_kummer"},
    "cli": None,
}


def package_imports(path: Path) -> set[str]:
    """Names of the kummerlab modules imported by the file at path."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("kummerlab." * bool(node.level) + (node.module or "")).rstrip(".")
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
    parts = [name.split(".") for name in dotted]
    return {p[1] for p in parts if p[0] == "kummerlab" and len(p) > 1 and p[1] in ALLOWED}


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(m for m, a in ALLOWED.items() if a is not None))
def test_module_imports_only_lower_layers(module):
    assert package_imports(SRC / f"{module}.py") <= ALLOWED[module]


def test_importing_the_cli_starts_no_pool_machinery():
    """concurrent.futures pulls in multiprocessing and logging; only a
    search with more than one worker group needs them, so it imports them
    itself and start-up does not pay for them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys, kummerlab.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
