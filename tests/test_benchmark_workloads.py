import importlib.util
import os
import sys

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")


def _workloads():
    """WORKLOADS from perfbench/workloads.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_runs_at_min_size(name, tmp_path, seed):
    # the benchmark calls restalg's API by name: a rename or a changed
    # behaviour shows here before a benchmark run fails on it
    setup, report = WORKLOADS[name]
    r = report(setup(seed, "min", tmp_path))
    assert r.checks > 0, name
    assert r.failed == 0, (name, r.failures)


def test_i4_norms_runs_at_full_size(tmp_path, seed):
    # at min size the workload runs on I3, below linalg.SPLIT_MIN_DIM: at
    # full size (I4, order 209) the SVD route splits each lift into the
    # components of its pattern
    setup, report = WORKLOADS["i4-norms"]
    r = report(setup(seed, "full", tmp_path))
    assert (r.checks, r.failed) == (564, 0), r.failures
