"""Importing craftlora loads no SciPy; only the trunk's perceptual proxy does.

Each check runs in a fresh interpreter, because this test process may
already hold SciPy from other tests.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


def test_the_perceptual_proxy_is_what_loads_scipy_sparse():
    # the import alone loads no SciPy (above), so building the proxy does
    loaded = scipy_modules_after(
        "from craftlora.subspace import PerceptualProxy\nPerceptualProxy()"
    )
    assert "scipy.sparse" in loaded
