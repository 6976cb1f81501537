"""Searches on inputs whose ids differ from those of a graph they came
from: padded graphs, whose search drops the isolated vertices outside
the largest piece, and induced subgraphs.  A graph carries no id map, so every result must be
valid in, and use the ids of, the graph the search was given."""

import dataclasses

import pytest

from pillarkit import kraken as kraken_mod
from pillarkit.cli import main
from pillarkit.config import RunConfig
from pillarkit.errors import InternalError
from pillarkit.generators import hypercube, random_regular
from pillarkit.graph import Cycle, Graph, Path, induced_subgraph, save_graph
from pillarkit.kraken import robust_kraken, verify_kraken
from pillarkit.pillar import Pillar, find_pillar, verify_pillar
from pillarkit.primitives import find_q3_sampled


def _pad(g: Graph, k: int) -> Graph:
    """g with k isolated vertices put in front: every id moves up by k."""
    return Graph(g.n + k, [(u + k, v + k) for u, v in g.edges()])


def _shift_pillar(p: Pillar, k: int) -> Pillar:
    shift = lambda vs: tuple(v + k for v in vs)
    return Pillar(p.s, p.ell, Cycle(shift(p.cycle1.vertices)), Cycle(shift(p.cycle2.vertices)),
                  tuple(Path(shift(q.vertices)) for q in p.paths))


def _k3030_and_ladder() -> Graph:
    """143 vertices: K_{30,30}, three isolated vertices, and a ladder of
    twenty 4-cycles (C4 x P20)."""
    edges = [(a, 30 + b) for a in range(30) for b in range(30)]
    for i in range(20):
        ring = [63 + 4 * i + j for j in range(4)]
        edges += [(ring[j], ring[(j + 1) % 4]) for j in range(4)]
        if i:
            edges += [(v - 4, v) for v in ring]
    return Graph(143, edges)


class TestRoots:
    def test_full_keep_set_returns_the_graph(self):
        g = random_regular(50, 4, seed=0)
        assert induced_subgraph(g, range(g.n)) is g


@pytest.mark.parametrize("seed", range(3))
def test_padded_pillar_is_the_shifted_pillar(seed):
    rr = random_regular(2000, 12, seed)
    base = find_pillar(rr, RunConfig(), seed=0)
    for k in (1, 5):
        padded = _pad(rr, k)
        p = find_pillar(padded, RunConfig(), seed=0)
        assert p == _shift_pillar(base, k)
        assert verify_pillar(padded, p).valid


def test_robust_kraken_on_an_induced_subgraph():
    rr = random_regular(2000, 12, 0)
    sub = induced_subgraph(rr, range(1, rr.n))
    kr = robust_kraken(sub, frozenset(), RunConfig(), seed=0, q3_free=True)
    assert verify_kraken(sub, kr).valid


def test_sampled_cube_is_in_its_input():
    sub = induced_subgraph(hypercube(4), range(1, 16))
    cube = find_q3_sampled(sub, seed=0)
    assert cube is not None and cube.is_valid(sub)


def test_pillar_next_to_a_dense_block():
    g = _k3030_and_ladder()
    assert verify_pillar(g, find_pillar(g, RunConfig(), seed=0)).valid


def test_cli_finds_a_pillar_in_a_padded_file(tmp_path):
    graph_file, cert_file = tmp_path / "padded.el", tmp_path / "pillar.json"
    graph_file.write_text(save_graph(_pad(random_regular(2000, 12, 0), 1)))
    assert main(["find", "pillar", "--graph", str(graph_file), "--seed", "0",
                 "--out", str(cert_file)]) == 0
    assert main(["verify", "pillar", "--graph", str(graph_file), "--cert", str(cert_file)]) == 0


def test_robust_kraken_checks_its_early_return(monkeypatch):
    real = kraken_mod._carve

    def off_by_one_leg_size(*args):
        kr = real(*args)
        return dataclasses.replace(kr, t=kr.t + 1)

    monkeypatch.setattr(kraken_mod, "_carve", off_by_one_leg_size)
    with pytest.raises(InternalError, match="collected kraken invalid"):
        robust_kraken(random_regular(2000, 12, 0), frozenset(), RunConfig(), seed=0, q3_free=True)
