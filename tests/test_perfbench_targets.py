"""The benchmark's traced mode wraps callables by name; each must still exist.

A rename in the package would otherwise surface only when the traced
benchmark run fails to install its recorder.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_name, path",
    tracer.SPANNED + tracer.COUNTED,
    ids=[f"{m}.{p}" for m, p in tracer.SPANNED + tracer.COUNTED],
)
def test_traced_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        # methods are wrapped on the class that defines them
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))
