import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from workloads import WORKLOADS, hub_graph, planted_prism

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed", range(10))
def test_planted_matches_acceptance_input(seed):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from util import planted_prism_with_noise
    finally:
        sys.path.remove(str(ROOT / "tests"))
    expected = planted_prism_with_noise(workloads.PRISM_S, workloads.PRISM_ELL,
                                        workloads.PRISM_NOISE, seed=seed)
    got = planted_prism(seed)
    assert got == expected
    assert got.edges() == expected.edges()


def test_input_generators_import_no_networkx():
    code = ("import sys, workloads; workloads.planted_prism(0); "
            "workloads.hub_graph(0, n=100, hubs=2, hub_degree=10); "
            "assert 'networkx' not in sys.modules")
    env_path = f"{ROOT / 'perfbench'}:{ROOT / 'src'}"
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": env_path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_hub_graph_shape():
    n, hubs, deg = 200, 5, 30
    g = hub_graph(3, n=n, hubs=hubs, hub_degree=deg)
    assert g.n == n + hubs
    for h in range(hubs):
        assert g.degree(h) == deg
        assert all(w >= hubs for w in g.neighbors(h))
    from_hubs = [sum(1 for w in g.neighbors(v) if w < hubs) for v in range(hubs, g.n)]
    assert all(g.degree(v) - from_hubs[v - hubs] == workloads.RR_D for v in range(hubs, g.n))
    assert g == hub_graph(3, n=n, hubs=hubs, hub_degree=deg)
    assert g != hub_graph(4, n=n, hubs=hubs, hub_degree=deg)


@pytest.mark.parametrize("seconds", [1, workloads.PASS_SECONDS, 40])
def test_instance_seeds_never_repeat_across_run_seeds(seconds):
    for wl in WORKLOADS.values():
        seen = set()
        for seed in range(5):
            seeds = wl.instance_seeds(seed, seconds)
            assert len(seeds) == max(2, round(wl.count * seconds / workloads.PASS_SECONDS))
            assert not seen & set(seeds)
            assert wl.instance_seeds(seed, seconds, trace=True) == seeds[:wl.traced]
            seen |= set(seeds)
