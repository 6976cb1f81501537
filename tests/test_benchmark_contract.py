"""The library calls the benchmark makes, run as the benchmark runs them.

``perfbench/workloads.py`` builds each workload's inputs and calls the
library: ``robust_kraken`` with ``q3_free`` and ``return_state``, the
search state's ``links`` and ``anchors``, ``RunConfig.overrides`` and
``resolve``, and ``graph.set_distance``.  This test imports that file as it
stands and solves instance 0 of every workload, so a change to one of those
calls fails here rather than only in a benchmark run.  The sha256 of each
instance-0 certificate is pinned too: a change that moves a benchmark
certificate fails here, and not only in a benchmark digest.
"""

import hashlib
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

CERTIFICATE = {  # workload: sha256 of its instance-0 certificate text
    "kraken_hubs": "941c4a8f62a7715228f29219a453e532a6121db37608ca41b379843e756333ac",
    "pillar_rr": "2014daa7361a89e3d1d71919c7c84aeae2900c5532539f159a393d2eca574afc",
    "planted": "78317df0b5dc8b12da809dc53da163dc3d60f04590f75c8a54a56dbffc9b6526",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_instance_0_is_certified(name):
    workload = WORKLOADS[name]
    seed = workload.instance_seeds(0, 1)[0]
    g = pk.load_graph(pk.save_graph(workload.build(seed)))  # the benchmark's round trip
    outcome = workload.solve(g, seed)
    assert outcome.certificate is not None
    assert outcome.failures == []
    assert hashlib.sha256(outcome.certificate.encode()).hexdigest() == CERTIFICATE[name]
