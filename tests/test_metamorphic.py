"""Relabelling invariance: a seeded random permutation of vertex ids must
not stop the search from returning a certificate the checker accepts, and
on the cube and the planted prisms it must find the same (s, ell)."""

import random

import pytest

from pillarkit.certificates import dumps_certificate, loads_certificate, verify_certificate
from pillarkit.config import RunConfig
from pillarkit.generators import hypercube, random_regular
from pillarkit.graph import Graph
from pillarkit.pillar import find_pillar

from util import planted_prism_with_noise


def relabel(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(f"relabel-{seed}").shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _planted_config() -> RunConfig:
    cfg = RunConfig(d=4)
    cfg.overrides["separation"] = 1  # as criterion 9: the legs sit one corridor apart
    return cfg


CASES = ([("cube", hypercube(3), RunConfig(), 0)]
         + [(f"prism-{s}", planted_prism_with_noise(8, 5, 40, seed=s), _planted_config(), s)
            for s in range(10)])


def _accepted(g: Graph, pillar) -> bool:
    return verify_certificate(g, loads_certificate(dumps_certificate(pillar))).valid


@pytest.mark.parametrize("name, g, cfg, seed", CASES, ids=[c[0] for c in CASES])
def test_relabelled_keeps_s_and_ell(name, g, cfg, seed):
    h = relabel(g, seed)
    pillar = find_pillar(h, cfg, seed=seed)
    assert _accepted(h, pillar)
    plain = find_pillar(g, cfg, seed=seed)
    assert (pillar.s, pillar.ell) == (plain.s, plain.ell)


@pytest.mark.parametrize("seed", range(3))
def test_relabelled_random_regular_certified(seed):
    h = relabel(random_regular(2000, 12, seed), seed)
    assert _accepted(h, find_pillar(h, RunConfig(d=12), seed))
