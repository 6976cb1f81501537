"""The library calls the benchmark makes, run as the benchmark runs them.

``perfbench/workloads.py`` builds each workload's inputs and calls the
library: ``robust_kraken`` with ``q3_free`` and ``return_state``, the
search state's ``links`` and ``anchors``, ``RunConfig.overrides`` and
``resolve``, and ``graph.set_distance``.  This test imports that file as it
stands and solves instance 0 of every workload, so a change to one of those
calls fails here rather than only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import pillarkit as pk

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_instance_0_is_certified(name):
    workload = WORKLOADS[name]
    seed = workload.instance_seeds(0, 1)[0]
    g = pk.load_graph(pk.save_graph(workload.build(seed)))  # the benchmark's round trip
    outcome = workload.solve(g, seed)
    assert outcome.certificate is not None
    assert outcome.failures == []
