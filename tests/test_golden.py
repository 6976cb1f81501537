"""Golden certificates: the sha256 of ``dumps_certificate`` output for
fixed inputs and seeds, plus one saved random regular graph.

A fixed seed gives a bit-identical certificate, so these digests pin the
search order end to end.  A change that moves one must say in CHANGES.md
why the search order changed, and re-pin it.
"""

import hashlib

import pytest

from pillarkit import kraken as kraken_mod
from pillarkit.certificates import dumps_certificate
from pillarkit.config import RunConfig
from pillarkit.errors import StageError
from pillarkit.expander import _max_cut_graph
from pillarkit.generators import hypercube, random_regular
from pillarkit.graph import Graph, save_graph
from pillarkit.kraken import robust_kraken
from pillarkit.pillar import find_pillar
from pillarkit.primitives import find_q3_sampled

from util import hub_graph, planted_prism_with_noise, torus


def _digest(cert) -> str:
    return hashlib.sha256(dumps_certificate(cert).encode()).hexdigest()


RR10K_TEXT = "4f71b07127a8e9c23292662706db6c141ef7957cab46e35bb616087b176a22a9"


def test_random_regular_saved_text():
    """The sha256 of ``save_graph(random_regular(10^4, 12, 0))``: the graph
    and its text, byte for byte."""
    text = save_graph(random_regular(10 ** 4, 12, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == RR10K_TEXT


CUBE = "14441e31e5ab595ca367afa9e9d77f785ab474a609aa2e4f64993f3e13b17a5b"


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


RANDOM_REGULAR = {  # seed: (ell, digest); every pillar has s = 4
    0: (5, "344819f0a1d0289ecf8c5831b6b44e79a9cbbef34c0141d21e959ea06e2edb56"),
    1: (8, "dc2178c0dc4cfa1643d765477faadb420668d88ec3b1f1bd663703ad6c7583bb"),
    2: (8, "96e7c00f86a12d7697fbcf0fa9d98659a3a65695bec3e116c1338e5766261de9"),
}


@pytest.mark.parametrize("seed", range(3))
def test_random_regular_pillar(seed):
    g = random_regular(2000, 12, seed)
    pillar = find_pillar(g, RunConfig(d=12), seed)
    ell, digest = RANDOM_REGULAR[seed]
    assert (pillar.s, pillar.ell) == (4, ell)
    assert _digest(pillar) == digest


def test_random_regular_pillar_at_benchmark_scale():
    """One of the benchmark's rr(10^4, 12) inputs, searched as it searches
    them: at this size the links run through trimmed leg expansions and
    detours, which the n = 2000 pillars above barely reach."""
    pillar = find_pillar(random_regular(10000, 12, 9600), RunConfig(d=12), 9600)
    assert (pillar.s, pillar.ell) == (4, 12)
    assert _digest(pillar) == "68add25efaced9b0b39af0531d4ca833640c7bc92ea06e90e5089d3d89339c8d"


TORUS = {  # side: (ell, digest); every pillar has s = 4
    26: (25, "8fd6469672347c1c90f6845ac6221ee224d1cc1dcd86453bda58f01a876e6e52"),
    30: (27, "450e00bad25f4f97621ba11d5c167c41ee082273ec3d692b814aecfd1d017766"),
}


def test_sparse_random_regular_pillar():
    """rr(10^4, 5) is not bipartite, so the krakens are carved and linked
    in its max-cut host."""
    pillar = find_pillar(random_regular(10000, 5, 0), RunConfig(d=5), 0)
    assert (pillar.s, pillar.ell) == (4, 17)
    assert _digest(pillar) == "5b74cbe1535a08d495e6d39a950d3d83453004858c66b3f19cdbe952ea6e2531"


@pytest.mark.parametrize("side", sorted(TORUS))
def test_torus_pillar_from_two_finished_rounds(side):
    """No pair of the even torus's first collection links, so rounds end in
    the robust pipeline's finish, and two finished rounds' krakens link: at
    side 26 rounds 0 and 1, at side 30 rounds 0 and 2 (no alignment of
    round 1's kraken with round 0's links)."""
    pillar = find_pillar(torus(side, side), RunConfig(d=4), 0)
    ell, digest = TORUS[side]
    assert (pillar.s, pillar.ell) == (4, ell)
    assert _digest(pillar) == digest


HUB_KRAKEN = {
    0: "7049ddaee6ec6ddbd466672b5083e82901ae2e9659008e3eb4c74cef0e692d22",
    1: "d80c67fb99c2ecb7ae5c92afa7c0dc3518e4e2e4e05273e99dd028bb23031077",
    2: "a7f85c71caeb9e31e92af99d91568699393a9e146af0f38a60560565d7c44188",
}
HUB_LINKS = {0: (2, 9), 1: (2, 9), 2: (0, 0)}  # (anchors, P-links)


@pytest.mark.parametrize("seed", range(3))
def test_hub_kraken(seed):
    """Hubs block early qualification at seeds 0 and 1, so those run the
    second half of the robust pipeline: anchors, P-links and assembly.
    At seed 2 a collected triangle qualifies early, so no anchor is built."""
    g = hub_graph(seed)
    kr, state = robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed,
                              q3_free=True, return_state=True)
    kinds = [link.kind for links in state.links for link in links.values()]
    assert (len(state.anchors), kinds.count("P")) == HUB_LINKS[seed]
    assert _digest(kr) == HUB_KRAKEN[seed]


HUB_HOST_KRAKEN = {
    0: "8c798e12aeefc4f040f7fa65958db6db3dd3aef94d0eaa4454c66a29be38b39a",
    1: "cfd28c83d699880cc73ab0fa37748c59bbc8fab739b500a938b8011373618101",
    2: "4e03c959c4c46227e00c6bed7b45beb86632622b05460e9982e72e652988c40b",
}


@pytest.mark.parametrize("seed", range(3))
def test_hub_kraken_bipartite_host(seed):
    """The max-cut host of the hub graph: the bipartite kind of input that
    find_pillar hands to robust_kraken."""
    g = _max_cut_graph(hub_graph(seed))
    kr = robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed, q3_free=True)
    assert _digest(kr) == HUB_HOST_KRAKEN[seed]


def test_torus_kraken_after_a_shortcut_rewrite(monkeypatch):
    """The torus input on which a shortcut rewrite leads to a kraken: one
    link round makes one rewrite, and the next round assembles."""
    fired = []
    real = kraken_mod._shortcut_round

    def counted(state):
        fired.append(real(state))
        return fired[-1]

    monkeypatch.setattr(kraken_mod, "_shortcut_round", counted)
    cfg = RunConfig(d=4, overrides={"anchor_count": 4, "leg_size": 3, "separation": 2})
    kr = robust_kraken(torus(26, 26), frozenset(), cfg, seed=10, q3_free=True)
    assert fired == [True]
    assert kr.k == 4
    assert _digest(kr) == "5290dc71faaa89c42ae6ef33ff23b9567f00e040af014886e221ba21ad2c0369"


def test_torus_assembly_stage():
    """A fully linked torus kraken whose anchor is too crowded to seat its leg."""
    with pytest.raises(StageError) as err:
        robust_kraken(torus(40, 40), frozenset(), RunConfig(d=4), seed=3, q3_free=True)
    assert err.value.stage == "assembly"
    assert err.value.details == {"kraken": 0, "leg": 2}


# The sampled cube search: its draws decide which cube comes back, with
# the first drawn vertex on a cube at position 0.  Every 3-core vertex of
# both inputs lies on a cube, so the first draw finds one and the budget
# of draws does not move it.
SAMPLED_Q3 = {
    "q6": {
        0: "80648156e55aeca1503e020c630713b1e473aeffbc046a503b838da340a52620",
        1: "162e3d17897cc3db286672f38f06137ed6ec3137fbdc9b42b8a4f9a8f8f20a9c",
        2: "fc6d11542cece89fe2b842f5ff17eb7f43aef77f48fdd4f44a481e2bd8095554",
        3: "d4c396e0c342a5523fa61f96b9a41783d6ac4fed2203a48c2054bf2cb3d2007e",
    },
    "tail": {
        0: "992d41dc0d8e3ca3ce5d0e47f3aa8928b934ff46c93dd7e5ba87141ad020b1cc",
        1: "e23e5932ca1ed7aa1f2d1dff353ba56f26b4124d408ca971bf522b2a9e10324a",
        2: "2618a2f2f13192086d0de842b8dab1b2e2706fbab59bec9a6f6ab6f99a5f47ac",
        3: "36c2d8ebfe1c601e7c56c113d7d693614bec300c7a5d656657de4fce61e5a13a",
    },
}


SAMPLED_TRIALS = {"q6": (40, 42), "tail": (40, 200)}


@pytest.mark.parametrize("name, trials, seed", [(name, trials, seed) for name in SAMPLED_Q3
                                                for trials in SAMPLED_TRIALS[name]
                                                for seed in range(4)])
def test_sampled_cube(name, trials, seed):
    """Q6, whose 3-core is all of it, and Q3 with a 192-vertex tail path,
    whose 3-core is the cube."""
    if name == "q6":
        cube = find_q3_sampled(hypercube(6), seed, trials)
    else:
        tail = Graph(200, hypercube(3).edges() + [(i, i + 1) for i in range(8, 199)] + [(7, 8)])
        cube = find_q3_sampled(tail, seed, trials)
    assert _digest(cube) == SAMPLED_Q3[name][seed]
