"""Golden certificates: the sha256 of ``dumps_certificate`` output for
fixed inputs and seeds.

A fixed seed gives a bit-identical certificate, so these digests pin the
search order end to end.  A change that moves one must say in CHANGES.md
why the search order changed, and re-pin it.
"""

import hashlib

import pytest

from pillarkit.certificates import dumps_certificate
from pillarkit.config import RunConfig
from pillarkit.generators import hypercube, random_regular
from pillarkit.kraken import robust_kraken
from pillarkit.pillar import find_pillar

from util import hub_graph, planted_prism_with_noise


def _digest(cert) -> str:
    return hashlib.sha256(dumps_certificate(cert).encode()).hexdigest()


CUBE = "0331c8de2d55f9be34f20672976146ee7179238bba9b36b093a103457c1dcdbe"


def test_cube():
    assert _digest(find_pillar(hypercube(3), RunConfig())) == CUBE


PLANTED = {
    0: "78317df0b5dc8b12da809dc53da163dc3d60f04590f75c8a54a56dbffc9b6526",
    1: "9a25328c78c517bff8d0ea8019b25b3abb9adcf2c21e4a0e1c4515eb8654c756",
    2: "27c7f065e7c15ff483f046f830c85008f422aa45911f37704b6edfc1585dcd37",
    3: "0f21d41b60a38c92b5299d26bc291abefec911851e2d4b7a8466786caa78e279",
    4: "9d39036f04944f6e1be2318c20660b4b64d1b7532e1cd929fb106dcd8e56185b",
    5: "9a25328c78c517bff8d0ea8019b25b3abb9adcf2c21e4a0e1c4515eb8654c756",
    6: "4c7ecb0211317a46e84efd2fc98ec3b526eed90c5a77301e125e6f05fc2b98ff",
    7: "b73d6f78bc6612c66bfb8fea8d5a05ec17cb038a17133fdf2c8318db9d92e855",
    8: "4c7ecb0211317a46e84efd2fc98ec3b526eed90c5a77301e125e6f05fc2b98ff",
    9: "78317df0b5dc8b12da809dc53da163dc3d60f04590f75c8a54a56dbffc9b6526",
}


@pytest.mark.parametrize("seed", range(10))
def test_planted_prism(seed):
    cfg = RunConfig(d=4)
    cfg.overrides["separation"] = 1
    g = planted_prism_with_noise(8, 5, 40, seed=seed)
    assert _digest(find_pillar(g, cfg, seed=seed)) == PLANTED[seed]


RANDOM_REGULAR = {
    0: "6d43c66fbdf758f82e580ea77c6300e367b37014dd077e8d968e6fcaa72c9cf4",
    1: "a92b0894c9d669f63f91d92ab5405151eb7005c3a166ed5e61ff07047cabd780",
    2: "e1450291ccdc310504eed04ed7f2ed38878026cb0bb2bcbf0ab7627d25d6e260",
}


@pytest.mark.parametrize("seed", range(3))
def test_random_regular_pillar(seed):
    g = random_regular(2000, 12, seed)
    pillar = find_pillar(g, RunConfig(d=12), seed)
    assert (pillar.s, pillar.ell) == (4, 8)
    assert _digest(pillar) == RANDOM_REGULAR[seed]


HUB_KRAKEN = {
    0: "71da7f500ccaf1339fae283d2d5620ab2e666e680af67df585fb90113b66607a",
    1: "a68789f4f8cfe14f48131fa4cba0048fe6487069261728cd461cf9988b8e7709",
    2: "f4df3c112ea4024bcfbc4e2d25706ab145b788c87b65ab880d7e1c7ceb5854cb",
}


@pytest.mark.parametrize("seed", range(3))
def test_hub_kraken(seed):
    """Hubs block early qualification, so this runs the second half of the
    robust pipeline: anchors, P-links and assembly."""
    g = hub_graph(seed)
    kr, state = robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed,
                              q3_free=True, return_state=True)
    kinds = [link.kind for links in state.links for link in links.values()]
    assert (len(state.anchors), kinds.count("P")) == (2, 12)
    assert _digest(kr) == HUB_KRAKEN[seed]
