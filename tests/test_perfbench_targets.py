"""The benchmark reaches into the package: its traced mode wraps callables
by name, and its ``train`` workload scores the trunk through the trunk's
own API. Both must keep working.

A rename or a changed call shape in the package would otherwise surface
only when a benchmark run fails.
"""

import importlib
import importlib.util
import math
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_perfbench("tracer")


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


def test_train_workload_scores_a_tiny_pipeline(tmp_path):
    # the pipeline writes the trunk's bases through ``bases_.side``, and the
    # quality runs ``make_trunk_draws`` and ``trunk_loss`` on its trunk_parts
    workloads = load_perfbench("workloads")
    config = workloads.make_config(0, tiny=True)
    ok, record = workloads.run_pipeline(config, str(tmp_path), 0, 0)
    assert ok
    train = workloads.TrainWorkload(None, str(tmp_path), 0, tiny=True)
    train.config = config
    train.records = [record]
    assert math.isfinite(train.quality())


def test_sample_and_grid_checks_hold_on_a_tiny_host(tmp_path):
    # the benchmark's per-operation and final output checks on a host
    # trained in-process, so a sampler change that breaks them fails here
    workloads = load_perfbench("workloads")
    host_dir = tmp_path / "host"
    host_dir.mkdir()
    workloads.build_host(str(host_dir), tiny=True)

    sample = workloads.SampleWorkload(None, str(tmp_path), 0, tiny=True)
    sample.host_dir = str(host_dir)
    sample.setup()
    assert [sample.run_op(i) for i in range(4)] == [True] * 4
    assert sample.final_checks() == [True]

    grid = workloads.GridWorkload(None, str(tmp_path), 0, tiny=True)
    grid.host_dir = str(host_dir)
    grid.setup()
    assert grid.run_op(0)
    assert grid.final_checks() == [True]
