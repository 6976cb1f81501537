import dataclasses
import hashlib

import pytest

from pillarkit import expander, graph, kraken, pillar, primitives
from pillarkit.certificates import dumps_certificate
from pillarkit.config import RunConfig
from pillarkit.errors import InternalError, PreconditionError, StageError
from pillarkit.expander import _max_cut_graph
from pillarkit.generators import cycle_graph, hypercube, random_regular, subdivided_prism
from pillarkit.graph import Cycle, Graph, Path, set_distance
from pillarkit.kraken import (Kraken, KrakenSearchState, LegLink, _augment_links, _carve,
                              _child_seed, _high_degree, _link_obstacles, _qualifies,
                              _shortcut_round, robust_kraken, verify_kraken)
from pillarkit.primitives import Expansion

from util import (covered_hub_graph, hub_graph, prism_kraken, ref_set_distance,
                  ref_shortest_set_path, torus)

class TestVerifyKraken:
    def test_hand_built_valid(self):
        g, kr = prism_kraken()
        assert verify_kraken(g, kr).valid

    def test_legs_sharing_vertex_flagged(self):
        g, kr = prism_kraken()
        legs = list(kr.legs)
        legs[1] = Expansion(5, frozenset({5, 4}), 1)
        bad = Kraken(kr.cycle, kr.ends, tuple(legs), kr.paths, kr.s, kr.t)
        assert "legs-disjoint" in verify_kraken(g, bad).clauses()

    def test_path_over_length_bound_flagged(self):
        # with s = 0 the 10s bound is 0 and every length-2 path violates it
        g, kr = prism_kraken(s_param=0)
        assert "path-length" in verify_kraken(g, kr).clauses()

    def test_end_on_cycle_flagged(self):
        g, kr = prism_kraken()
        ends = (0,) + kr.ends[1:]
        legs = (Expansion(0, frozenset({0}), 0),) + kr.legs[1:]
        bad = Kraken(kr.cycle, ends, legs, kr.paths, kr.s, kr.t)
        rep = verify_kraken(g, bad)
        assert "ends-outside-cycle" in rep.clauses()

    def test_path_interior_through_leg_flagged(self):
        g, kr = prism_kraken()
        # reroute path 0 through leg 1's vertex
        paths = (Path((0, 8, 4)),) + kr.paths[1:]
        legs = (Expansion(4, frozenset({4}), 0),
                Expansion(5, frozenset({5, 8}), 1)) + kr.legs[2:]
        bad = Kraken(kr.cycle, kr.ends, legs, paths, kr.s, 1)
        rep = verify_kraken(g, bad)
        assert "path-internal-avoidance" in rep.clauses()

    def test_json_round_trip(self):
        g, kr = prism_kraken()
        data = kr.to_json_dict()
        back = Kraken.from_json_dict(data, g)
        assert verify_kraken(g, back).valid
        assert back.cycle == kr.cycle and back.ends == kr.ends


def _swap_positions(kr: Kraken, j: int) -> Kraken:
    """Swap cycle positions j and j+1 together with their ends, legs and
    paths, so that only cycle edges change."""
    idx = list(range(kr.k))
    i = (j + 1) % kr.k
    idx[j], idx[i] = idx[i], idx[j]
    pick = lambda seq: tuple(seq[x] for x in idx)
    return dataclasses.replace(kr, cycle=Cycle(pick(kr.cycle.vertices)), ends=pick(kr.ends),
                               legs=pick(kr.legs), paths=pick(kr.paths))


def _end_onto_cycle(kr: Kraken, j: int) -> Kraken:
    ends = list(kr.ends)
    ends[j] = kr.cycle.vertices[(j + 1) % kr.k]
    return dataclasses.replace(kr, ends=tuple(ends))


def _overlap_legs(kr: Kraken, j: int) -> Kraken:
    legs = list(kr.legs)
    i = (j + 1) % kr.k
    legs[i] = Expansion(legs[i].center, legs[i].members | {legs[j].center}, legs[i].radius)
    return dataclasses.replace(kr, legs=tuple(legs))


def _shrink_leg(kr: Kraken, j: int) -> Kraken:
    legs = list(kr.legs)
    leg = legs[j]
    drop = max(leg.members - {leg.center}) if leg.size > 1 else leg.center
    legs[j] = Expansion(leg.center, leg.members - {drop}, leg.radius)
    return dataclasses.replace(kr, legs=tuple(legs))


def _cut_path(kr: Kraken, j: int) -> Kraken:
    paths = list(kr.paths)
    paths[j] = Path(paths[j].vertices[:-1])
    return dataclasses.replace(kr, paths=tuple(paths))


MUTATIONS = {
    "cycle-valid": _swap_positions,
    "ends-outside-cycle": _end_onto_cycle,
    "legs-disjoint": _overlap_legs,
    "leg-expansion": _shrink_leg,
    "path-endpoints": _cut_path,
}


@pytest.fixture(scope="module")
def valid_krakens():
    """The hand-built prism kraken (t = 1), the hub krakens of the golden
    seeds (t = 2, triangles), and the kraken of hub seed 0's bipartite
    max-cut host (t = 2, k = 4), which went through anchors and P-links."""
    out = {"prism": prism_kraken()}
    for seed in range(3):
        g = hub_graph(seed)
        out[f"hub{seed}"] = (g, robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed,
                                              q3_free=True))
    g = _max_cut_graph(hub_graph(0))
    out["host0"] = (g, robust_kraken(g, frozenset(), RunConfig(d=12), seed=0, q3_free=True))
    return out


def _mutation_cases():
    """Every kraken with every clause, except cycle-valid on triangles:
    every vertex order of a triangle is a triangle again, so the swap
    mutation cannot break one."""
    for clause in sorted(MUTATIONS):
        for name in ["hub0", "hub1", "hub2", "host0", "prism"]:
            if not (clause == "cycle-valid" and name.startswith("hub")):
                yield clause, name


class TestKrakenMutations:
    """Each mutation breaks one kraken clause at every index in turn, and
    verify_kraken must name that clause."""

    @pytest.mark.parametrize("clause,name", list(_mutation_cases()))
    def test_mutation_flags_its_clause(self, valid_krakens, clause, name):
        g, kr = valid_krakens[name]
        assert verify_kraken(g, kr).valid
        checked = 0
        for j in range(kr.k):
            bad = MUTATIONS[clause](kr, j)
            cyc = bad.cycle.vertices
            if clause == "cycle-valid" and all(
                    g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])):
                continue  # a chord made the swapped cycle a cycle too
            rep = verify_kraken(g, bad)
            assert clause in rep.clauses(), (j, str(rep))
            if clause == "cycle-valid":
                assert rep.clauses() == {"cycle-valid"}, (j, str(rep))
            checked += 1
        assert checked


def carve(g: Graph, t: int, seed: int, **overrides: int) -> Kraken:
    """_carve in the whole of g, at the config's k_max and leg radius m."""
    rc = RunConfig(overrides=overrides).resolve(g.n)
    return _carve(g, range(g.n), frozenset(), rc.k_max, rc.m, t, seed)


class TestFindKraken:
    """_carve, the kraken search, in the whole of a graph."""

    def test_hypercube_pendant_kraken(self):
        g = hypercube(3)
        kr = carve(g, t=1, seed=0)
        assert kr.k == 4
        assert verify_kraken(g, kr).valid
        assert all(p.length == 1 for p in kr.paths)  # a matching off the 4-cycle

    def test_bare_cycle_starves_at_paths(self):
        with pytest.raises(StageError) as err:
            carve(cycle_graph(10), t=1, seed=0)
        assert err.value.stage == "paths"

    def test_end_skips_a_neighbour_without_room_for_its_leg(self):
        # cycle 4-5-6-7; each cycle vertex 4+i has a pendant leaf i, whose
        # lower id puts it first, and a two-vertex tail 8+2i, 9+2i
        edges = [(4, 5), (5, 6), (6, 7), (7, 4)]
        for i in range(4):
            edges += [(4 + i, i), (4 + i, 8 + 2 * i), (8 + 2 * i, 9 + 2 * i)]
        g = Graph(16, edges)
        kr = carve(g, t=2, seed=0)
        assert verify_kraken(g, kr).valid
        assert sorted(kr.ends) == [8, 10, 12, 14]

    def test_cycle_too_long_for_cap(self):
        with pytest.raises(StageError) as err:
            carve(cycle_graph(30), t=1, seed=0, k_max=5)
        assert err.value.stage == "cycle"

    def test_random_regular_with_big_legs(self):
        g = random_regular(10000, 10, seed=1)
        kr = carve(g, t=50, seed=1)
        assert verify_kraken(g, kr).valid
        assert all(leg.size == 50 for leg in kr.legs)

    def test_deterministic(self):
        g = random_regular(500, 6, seed=3)
        a = carve(g, t=4, seed=9)
        b = carve(g, t=4, seed=9)
        assert a == b


def _gadget_state(cfg: RunConfig):
    """A 4-cycle kraken with pendant singleton legs, one anchor, and one
    deliberately wasteful anchor link that winds next to a free leg."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),
             (0, 4), (1, 5), (2, 6), (3, 7),          # pendant ends
             (4, 8), (8, 9), (9, 10), (10, 11), (11, 20),   # winding link
             (5, 8), (5, 9), (5, 10),                 # shortcut hooks
             (20, 21), (21, 22)]                      # anchor
    g = Graph(23, edges)
    kr = Kraken(Cycle((0, 1, 2, 3)), (4, 5, 6, 7),
                tuple(Expansion(v, frozenset({v}), 0) for v in (4, 5, 6, 7)),
                tuple(Path((i, i + 4)) for i in range(4)), s=1, t=1)
    assert verify_kraken(g, kr).valid
    rc = cfg.resolve(g.n)
    state = KrakenSearchState(g, rc, frozenset(), frozenset(), frozenset())
    state.collection.append(kr)
    state.links.append({})
    state.anchors.append(Expansion(20, frozenset({20, 21, 22}), 2))
    return g, kr, state


class TestSearchState:
    def test_shortcut_rewrite_shortens_and_reseats(self):
        cfg = RunConfig(d=4)
        g, kr, state = _gadget_state(cfg)
        state.links[0][0] = LegLink("Q", Path((4, 8, 9, 10, 11, 20)), 0)
        state.check()
        assert _shortcut_round(state)
        assert sorted(state.links[0]) == [1]      # re-seated on the free leg
        new = state.links[0][1]
        assert new.path.vertices == (5, 10, 11, 20)
        assert new.path.length < 5 and new.anchor == 0

    def test_invariant_rejects_overlapping_links(self):
        cfg = RunConfig(d=4)
        g, kr, state = _gadget_state(cfg)
        state.links[0][0] = LegLink("Q", Path((4, 8, 9, 10, 11, 20)), 0)
        state.links[0][1] = LegLink("Q", Path((5, 10, 11, 21)), 0)
        with pytest.raises(InternalError):
            state.check()

    def test_invariant_rejects_anchor_reuse(self):
        cfg = RunConfig(d=4)
        g, kr, state = _gadget_state(cfg)
        state.links[0][0] = LegLink("Q", Path((4, 8, 9, 10, 11, 20)), 0)
        state.links[0][2] = LegLink("Q", Path((6, 2)), 0)  # nonsense target
        with pytest.raises(InternalError):
            state.check()

    def test_invariant_rejects_overlong_p_link(self):
        cfg = RunConfig(d=4)
        g, kr, state = _gadget_state(cfg)
        state.high_degree = frozenset({20})
        state.links[0][0] = LegLink("P", Path((4, 8, 9, 10, 11, 20)), None)
        with pytest.raises(InternalError):
            state.check()  # length 5 over the p_len cap of 3

    def test_link_never_reuses_a_sibling_link_end_inside_its_leg(self):
        # leg 0's P-link ends at hub 8, which lies in leg 1; leg 1 must not
        # take hub 8 as a zero-length link, and links the other hub 10
        edges = [(0, 1), (1, 2), (2, 3), (0, 3),
                 (0, 4), (1, 5), (2, 6), (3, 7),       # cycle to ends
                 (4, 12), (5, 8), (6, 13), (7, 14),    # two-vertex legs
                 (4, 8), (5, 11), (11, 10)]            # routes to hubs 8, 10
        g = Graph(15, edges)
        kr = Kraken(Cycle((0, 1, 2, 3)), (4, 5, 6, 7),
                    tuple(Expansion(v, frozenset({v, w}), 1)
                          for v, w in ((4, 12), (5, 8), (6, 13), (7, 14))),
                    tuple(Path((i, i + 4)) for i in range(4)), s=1, t=2)
        assert verify_kraken(g, kr).valid
        state = KrakenSearchState(g, RunConfig(d=4).resolve(g.n), frozenset(),
                                  frozenset({8, 10}), frozenset())
        state.collection.append(kr)
        state.links.append({0: LegLink("P", Path((4, 8)))})
        _augment_links(state)
        assert state.links[0][1].path.vertices == (5, 11, 10)
        assert sorted(state.links[0]) == [0, 1]


class TestRobustKraken:
    @pytest.mark.parametrize("hubs", [10, 20])
    def test_legs_next_to_hubs_link_apart(self, hubs):
        # every vertex sees a hub, so sibling P-links meet hubs inside legs
        for seed in range(12):
            g = covered_hub_graph(seed, hubs)
            kr = robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed, q3_free=True)
            assert verify_kraken(g, kr).valid

    def test_early_exit_on_random_regular(self):
        g = random_regular(10000, 12, seed=0)
        cfg = RunConfig(eps1=0.1, eps2=0.2, d=12)
        kr = robust_kraken(g, frozenset(), cfg, seed=0, q3_free=True)
        assert verify_kraken(g, kr).valid
        rc = cfg.resolve(g.n)
        assert _qualifies(g, kr, frozenset(), frozenset(), rc)

    @pytest.mark.parametrize("name, seed, carved, digest", [
        ("rr", 0, 1, "345ca3fb0024ed748a362000ff67e5a0ff6c103f4d2dc371a18e7ae04b496030"),
        ("rr", 1, 1, "bb4c11d9efb4b49be946f4ea690839ddacfd36889ea42a534701f23bdd3dc894"),
        ("rr", 2, 1, "1127df00a075d61ddcc2e3c236750924c671234aa76540fe457e0b8fea50e9e5"),
        ("hubs", 6, 2, "5ed8894de2d95bea71c50714d4800cf5f5e2639a029795bf3307cafb1b626c82"),
    ], ids=["rr0", "rr1", "rr2", "hubs6"])
    def test_round_stops_at_its_answer(self, monkeypatch, name, seed, carved, digest):
        # the first qualifying kraken is the round's, and a later carve
        # cannot change it: robust_kraken carves no further, and returns
        # the kraken that a round carving all kraken_count would pick
        carves = []
        real = kraken._carve
        monkeypatch.setattr(kraken, "_carve", lambda *args: carves.append(1) or real(*args))
        g = random_regular(2000, 12, seed) if name == "rr" else hub_graph(seed)
        kr = robust_kraken(g, frozenset(), RunConfig(d=12), seed=seed, q3_free=True)
        assert len(carves) == carved
        assert hashlib.sha256(dumps_certificate(kr).encode()).hexdigest() == digest

    def test_full_pipeline_reseats_legs_on_anchors(self):
        g = random_regular(12000, 4, seed=2)
        cfg = RunConfig(eps1=0.1, eps2=0.2, d=4)
        cfg.overrides["separation"] = 4   # raw krakens sit ~3 apart: forces anchors
        cfg.overrides["anchor_count"] = 5
        kr, state = robust_kraken(g, frozenset(), cfg, seed=0, q3_free=True,
                                  return_state=True)
        assert verify_kraken(g, kr).valid
        assert state.anchors
        anchor_members = set()
        for a in state.anchors:
            anchor_members |= a.members
        assert all(leg.members <= anchor_members for leg in kr.legs)
        rc = cfg.resolve(g.n)
        for i in range(kr.k):
            for j in range(i + 1, kr.k):
                d = set_distance(g, kr.legs[i].members, kr.legs[j].members,
                                 cap=rc.separation - 1)
                assert d is None  # at least `separation` apart

    @pytest.mark.parametrize("name, seed", [("hubs", 0), ("hubs", 1), ("hubs", 2), ("torus", 0),
                                            ("torus", 1), ("torus", 2), ("torus-minus-row", 0)])
    def test_anchors_keep_their_separation(self, name, seed):
        # _build_anchors asks find_large_ball to avoid the separation ball
        # around U - L and the earlier anchors; nothing else re-checks it
        if name == "hubs":
            g, cfg, u = hub_graph(seed), RunConfig(d=12), frozenset()
        else:
            g, cfg = torus(40, 40), RunConfig(d=4)
            u = frozenset(range(40)) if name == "torus-minus-row" else frozenset()
        _, state = robust_kraken(g, u, cfg, seed=seed, q3_free=True, return_state=True)
        high, sep = state.high_degree, state.cfg.separation
        earlier = [u - high]
        for anchor in state.anchors:
            for other in earlier:
                d = ref_set_distance(g, anchor.members, other, avoid=high)
                assert d is None or d >= sep
            earlier.append(anchor.members)

    def test_bare_cycle_fails_at_collection(self):
        cfg = RunConfig(d=4)
        with pytest.raises(StageError) as err:
            robust_kraken(cycle_graph(100), frozenset(), cfg, seed=0, q3_free=True)
        assert err.value.stage == "kraken-collection"

    def test_u_over_cap_rejected(self):
        cfg = RunConfig(d=4)
        cfg.overrides["u_cap"] = 2
        with pytest.raises(PreconditionError):
            robust_kraken(cycle_graph(100), frozenset({0, 1, 2}), cfg, seed=0,
                          q3_free=True)

    @pytest.mark.parametrize("u", [{-1}, {100}])
    def test_u_out_of_range_rejected(self, u):
        with pytest.raises(PreconditionError, match="out of range"):
            robust_kraken(cycle_graph(100), frozenset(u), RunConfig(d=4), q3_free=True)

    def test_high_degree_set(self):
        """L is every vertex of degree at least delta_threshold, the threshold included."""
        g = hub_graph(0)
        for threshold in (1, 12, 13, 100, 10 ** 6):
            rc = RunConfig(overrides={"delta_threshold": threshold}).resolve(g.n)
            assert _high_degree(g, rc) == {v for v in range(g.n) if g.degree(v) >= threshold}

    def test_cube_flag_false_rejected(self):
        cfg = RunConfig(d=4)
        with pytest.raises(PreconditionError):
            robust_kraken(cycle_graph(100), frozenset(), cfg, q3_free=False)

    def test_small_graph_with_cube_rejected(self):
        cfg = RunConfig(d=4)
        with pytest.raises(PreconditionError, match="cube"):
            robust_kraken(hypercube(3), frozenset(), cfg, seed=0)

    def test_u0_domination_bound(self):
        # 60 vertices all dominated by U = {0, 1}
        edges = [(0, v) for v in range(2, 62)] + [(1, v) for v in range(2, 62)]
        g = Graph(62, edges)
        cfg = RunConfig(d=4)
        cfg.overrides["u0_cap"] = 10
        with pytest.raises(StageError) as err:
            robust_kraken(g, frozenset({0, 1}), cfg, seed=0, q3_free=True)
        assert err.value.stage == "u0-bound"

    def test_returned_kraken_disjoint_from_u(self):
        g = random_regular(8000, 12, seed=5)
        cfg = RunConfig(eps1=0.1, eps2=0.2, d=12)
        first = robust_kraken(g, frozenset(), cfg, seed=1, q3_free=True)
        u = first.vertex_set()
        second = robust_kraken(g, u, cfg, seed=2, q3_free=True)
        assert verify_kraken(g, second).valid
        assert not (second.vertex_set() & u)

    @pytest.mark.parametrize("seed", [0, 1, 3, 5])
    def test_assembled_legs_avoid_u(self, seed):
        """U holds the lowest neighbour of every hub, the first one a leg
        seated on a hub would take as a fresh neighbour."""
        g = hub_graph(seed)
        u = frozenset(g.neighbors(hub)[0] for hub in range(40))
        kr, state = robust_kraken(g, u, RunConfig(d=12), seed=seed, q3_free=True,
                                  return_state=True)
        assert state.anchors  # the kraken comes from _assemble
        assert verify_kraken(g, kr).valid
        assert not (kr.vertex_set() & u)


def _rr300(seed: int):
    """Two anchors asked for, one built: one leg of each kraken links to it."""
    cfg = RunConfig()
    cfg.overrides.update(anchor_count=2, separation=6)
    return robust_kraken(random_regular(300, 8, seed), frozenset(), cfg, seed=seed,
                         q3_free=True)


def _one_hub(seed: int):
    """One hub and one anchor: the links mix P and Q."""
    cfg = RunConfig(d=12)
    cfg.overrides.update(anchor_count=1, separation=4)
    return robust_kraken(hub_graph(seed, n=1000, hubs=1), frozenset(), cfg, seed=seed,
                         q3_free=True)


def _prism(seed: int):
    """Default settings: a second robust_kraken call, in the prism minus the
    first call's kraken, gets no anchor and no link."""
    g, cfg = subdivided_prism(5, 5), RunConfig(d=3)
    first = robust_kraken(g, frozenset(), cfg, seed=_child_seed(seed, 2), q3_free=True)
    return robust_kraken(g, first.vertex_set(), cfg, seed=_child_seed(seed, 3), q3_free=True)


# Seeded runs whose link loop starves: (run, seed, the link-rounds details)
STARVED = {
    "rr300-0": (_rr300, 0, {"linked": [1, 1, 1], "legs": [3, 3, 3], "anchors": 1}),
    "rr300-1": (_rr300, 1, {"linked": [1, 1, 1], "legs": [3, 3, 3], "anchors": 1}),
    "rr300-2": (_rr300, 2, {"linked": [1, 1, 1], "legs": [3, 3, 3], "anchors": 1}),
    "one-hub-0": (_one_hub, 0, {"linked": [2, 2, 2], "legs": [3, 3, 3], "anchors": 1}),
    "one-hub-1": (_one_hub, 1, {"linked": [1, 2, 1], "legs": [3, 3, 3], "anchors": 1}),
    "one-hub-2": (_one_hub, 2, {"linked": [2, 1, 2], "legs": [3, 3, 3], "anchors": 1}),
    "prism": (_prism, 0, {"linked": [0], "legs": [5], "anchors": 0}),
}


def _assert_no_anchor_route(state: KrakenSearchState) -> int:
    """No free leg reaches an anchor its kraken has not used within q_len_cap,
    clear of the leg's link obstacles; returns the number of free legs."""
    g, rc = state.graph, state.cfg
    free = 0
    for i, kr in enumerate(state.collection):
        used = state.used_anchors(i)
        fresh = set().union(*(a.members for ai, a in enumerate(state.anchors) if ai not in used))
        for j in state.free_legs(i):
            avoid = _link_obstacles(state, i, j)
            assert ref_shortest_set_path(g, kr.legs[j].members, fresh - avoid, avoid,
                                         cap=rc.q_len_cap) is None, (i, j)
            free += 1
    return free


class TestStarvedLinking:
    """After a link pass, no free leg can reach an anchor its kraken has not
    used, so a starved link loop stops at one stage, ``link-rounds``."""

    @pytest.mark.parametrize("name", list(STARVED))
    def test_link_rounds_reports_how_far_linking_got(self, name):
        run, seed, details = STARVED[name]
        with pytest.raises(StageError) as err:
            run(seed)
        assert err.value.stage == "link-rounds"
        assert err.value.details == details

    @pytest.mark.parametrize("name", list(STARVED))
    def test_free_legs_have_no_fresh_anchor_in_reach(self, monkeypatch, name):
        # checked on each state robust_kraken hands the shortcut round: its
        # collection, then its anchors, then an _augment_links pass
        real = kraken._shortcut_round
        free: list[int] = []

        def checked(state):
            free.append(_assert_no_anchor_route(state))
            return real(state)

        monkeypatch.setattr(kraken, "_shortcut_round", checked)
        run, seed, _ = STARVED[name]
        with pytest.raises(StageError) as err:
            run(seed)
        assert err.value.stage == "link-rounds"
        assert free and all(free)


@pytest.fixture
def copies(monkeypatch) -> list[str]:
    """The name of every induced_subgraph and largest_component call,
    wherever a module imported it from."""
    calls: list[str] = []
    for name in ("induced_subgraph", "largest_component"):
        real = getattr(graph, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for mod in (graph, expander, kraken, pillar, primitives):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestNoSurvivorCopies:
    """robust_kraken carves every kraken in G - U on the host's own ids:
    no collection round copies the survivor graph."""

    def test_random_regular_minus_a_kraken(self, copies):
        g = random_regular(2000, 12, 0)
        u = robust_kraken(g, frozenset(), RunConfig(d=12), seed=0, q3_free=True).vertex_set()
        kr = robust_kraken(g, u, RunConfig(d=12), seed=1, q3_free=True)
        assert verify_kraken(g, kr).valid and not kr.vertex_set() & u
        assert copies == []

    def test_hub_graph_minus_a_kraken(self, copies):
        # here the first kraken does not qualify, so later rounds carve in G - U
        g = hub_graph(0)
        u = robust_kraken(g, frozenset(), RunConfig(d=12), seed=0, q3_free=True).vertex_set()
        kr, state = robust_kraken(g, u, RunConfig(d=12), seed=2, q3_free=True, return_state=True)
        assert verify_kraken(g, kr).valid and not kr.vertex_set() & u
        assert len(state.collection) > 1
        assert copies == []

    @pytest.mark.parametrize("g", [hub_graph(0), covered_hub_graph(0, 10)],
                             ids=["hub", "covered-hub"])
    def test_hub_graphs(self, copies, g):
        state = robust_kraken(g, frozenset(), RunConfig(d=12), seed=0, q3_free=True,
                              return_state=True)[1]
        assert len(state.collection) > 1  # rounds after the first ran too
        assert copies == []
