"""craftlora runs on NumPy and click alone.

Importing the package and the CLI loads no SciPy, and neither do the
trunk's perceptual proxy nor a trunk fit. Each of those checks runs in a
fresh interpreter, because this test process may already hold SciPy from
other tests. The third-party modules the package imports are exactly the
dependencies that ``pyproject.toml`` declares.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def scipy_modules_after(code):
    """Names of the ``scipy`` modules loaded once ``code`` has run."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_package_and_cli_import_without_scipy():
    assert scipy_modules_after("import craftlora, craftlora.cli") == []


def test_perceptual_proxy_passes_load_no_scipy():
    assert scipy_modules_after(
        "import numpy as np\n"
        "from craftlora.subspace import PerceptualProxy\n"
        "perc = PerceptualProxy()\n"
        "feats = perc.features(np.random.default_rng(0).random((2, 256)))\n"
        "perc.input_grad(feats, [np.ones_like(f) for f in feats])"
    ) == []


def test_trunk_fit_loads_no_scipy():
    assert scipy_modules_after(
        "from craftlora.denoiser import init_backbone\n"
        "from craftlora.pairs import generate_pair_dataset\n"
        "from craftlora.subspace import TrunkFinetuner\n"
        "TrunkFinetuner(steps=2, seed=0).fit("
        "init_backbone(seed=0), generate_pair_dataset(2, 2, seed=0))"
    ) == []


def third_party_imports():
    """Top-level names of the modules the package imports from outside
    itself and the standard library, wherever the import statement sits."""
    found = set()
    for path in (SRC / "craftlora").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"craftlora"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    assert third_party_imports() == declared
