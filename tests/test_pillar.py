import dataclasses
import gc
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit import kraken as kraken_mod
from pillarkit import pillar as pillar_mod
from pillarkit.config import RunConfig
from pillarkit.errors import (InternalError, LengthNotRealizedError, PreconditionError,
                              StageError)
from pillarkit.generators import (cycle_graph, hypercube, random_regular,
                                  subdivided_prism, subdivided_prism_rungs)
from pillarkit.graph import Cycle, Graph, Path
from pillarkit.kraken import Kraken
from pillarkit.pillar import (Adjuster, Detour, Pillar, _check_link_pair, _link_aligned,
                              _rotate_kraken, connect_fixed_length, find_pillar,
                              pillar_from_q3, verify_pillar)
from pillarkit.primitives import Expansion, find_q3_bruteforce

from util import (all_simple_path_lengths, cycle_chain, planted_prism_with_noise,
                  ref_least_common_length, ref_link_pair, torus)

def natural_pillar(s: int, ell: int) -> tuple[Graph, Pillar]:
    g = subdivided_prism(s, ell)
    rungs = subdivided_prism_rungs(s, ell)
    return g, Pillar(s, ell,
                     Cycle(tuple(range(s))),
                     Cycle(tuple(range(s, 2 * s))),
                     tuple(Path(r) for r in rungs))


class TestVerifyPillar:
    def test_natural_decomposition_valid(self):
        g, p = natural_pillar(6, 3)
        assert verify_pillar(g, p).valid

    def test_wrong_length_path_flagged(self):
        g, p = natural_pillar(6, 3)
        paths = list(p.paths)
        # reroute rung 0 through rung 1's interior: length 4 instead of 3
        bad = Path((0, paths[0].vertices[1], paths[0].vertices[2], 6))
        paths[0] = Path(paths[0].vertices[:2] + paths[0].vertices[1:2] + (6,))
        paths[0] = Path((0, 12, 13, 13, 6))  # length 4, garbage on purpose
        q = Pillar(p.s, p.ell, p.cycle1, p.cycle2, tuple(paths))
        rep = verify_pillar(g, q)
        assert "path-length-uniform" in rep.clauses()

    def test_endpoint_swap_flagged_in_order(self):
        g, p = natural_pillar(6, 3)
        paths = list(p.paths)
        a, b = paths[0].vertices, paths[1].vertices
        paths[0] = Path(a[:-1] + (b[-1],))
        paths[1] = Path(b[:-1] + (a[-1],))
        q = Pillar(p.s, p.ell, p.cycle1, p.cycle2, tuple(paths))
        rep = verify_pillar(g, q)
        assert "matching-in-order" in rep.clauses()

    def test_rotation_and_reflection_accepted(self):
        g, p = natural_pillar(5, 2)
        rot = p.cycle2.vertices[2:] + p.cycle2.vertices[:2]
        q = Pillar(p.s, p.ell, p.cycle1, Cycle(rot), p.paths)
        assert verify_pillar(g, q).valid
        refl = p.cycle2.vertices[::-1]
        q = Pillar(p.s, p.ell, p.cycle1, Cycle(refl), p.paths)
        assert verify_pillar(g, q).valid

    def test_cycles_sharing_vertex_flagged(self):
        g, p = natural_pillar(4, 2)
        q = Pillar(p.s, p.ell, p.cycle1,
                   Cycle((0,) + p.cycle2.vertices[1:]), p.paths)
        rep = verify_pillar(g, q)
        assert "cycles-disjoint" in rep.clauses()

    def test_json_round_trip(self):
        g, p = natural_pillar(4, 3)
        q = Pillar.from_json_dict(p.to_json_dict())
        assert verify_pillar(g, q).valid


class TestConnectFixedLength:
    CFG = RunConfig(d=4)

    def test_c8_antipodal_four(self):
        g = cycle_graph(8)
        p = connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                 Expansion(4, frozenset({4}), 0), 4, set(), self.CFG)
        assert p.length == 4 and p.ends == (0, 4)

    def test_c8_antipodal_five_parity_error(self):
        g = cycle_graph(8)
        with pytest.raises(PreconditionError, match="parity"):
            connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                 Expansion(4, frozenset({4}), 0), 5, set(), self.CFG)

    def test_hypercube_adjacent_three_cross_checked(self):
        g = hypercube(3)
        # oracle: all simple 0,1-path lengths in the cube
        lengths = all_simple_path_lengths(g, 0, 1, 7)
        assert lengths == {1, 3, 5, 7}
        p = connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                 Expansion(1, frozenset({1}), 0), 3, set(), self.CFG)
        assert p.length == 3 and not p.failures(g)

    def test_exact_mode_matches_enumeration(self):
        from util import random_connected_graph
        for seed in range(12):
            g = random_connected_graph(8 + seed % 4, 3 + seed % 5, seed * 3)
            lengths = all_simple_path_lengths(g, 0, g.n - 1, 9)
            for ell in range(1, 10):
                if g.side is not None and ell % 2 != (lengths and min(lengths) % 2):
                    continue
                try:
                    p = connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                             Expansion(g.n - 1, frozenset({g.n - 1}), 0),
                                             ell, set(), self.CFG)
                    assert ell in lengths and p.length == ell
                except LengthNotRealizedError:
                    assert ell not in lengths
                except PreconditionError:
                    pass  # parity-filtered

    def test_avoid_set_respected(self):
        g = cycle_graph(8)
        with pytest.raises(LengthNotRealizedError) as err:
            connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                 Expansion(4, frozenset({4}), 0), 4, {1, 7}, self.CFG)
        assert err.value.nearest == [] and "nearest" not in str(err.value)

    def test_overlapping_expansions_rejected(self):
        g = cycle_graph(8)
        with pytest.raises(PreconditionError):
            connect_fixed_length(g, Expansion(0, frozenset({0, 1}), 1),
                                 Expansion(1, frozenset({1}), 0), 3, set(), self.CFG)

    @pytest.mark.parametrize("ell", [7, 8])  # no path (parity) and a path
    def test_exact_search_leaves_no_cyclic_garbage(self, ell):
        g = hypercube(6)
        gc.collect()
        gc.disable()
        try:
            pillar_mod._exact_fixed_path(g, 0, 63, ell, frozenset())
            assert gc.collect() == 0
        finally:
            gc.enable()


def detour_ladder_graph() -> Graph:
    """A 0..10 path with even-cycle detours of increments 2, 2 and 4 hung
    on edges (2,3), (5,6), (7,8); padded past the exact-search cap."""
    edges = [(i, i + 1) for i in range(10)]
    edges += [(2, 20), (20, 21), (21, 3)]
    edges += [(5, 22), (22, 23), (23, 6)]
    edges += [(7, 24), (24, 25), (25, 26), (26, 27), (27, 8)]
    edges += [(i, i + 1) for i in range(30, 79)]
    edges += [(10, 30)]
    return Graph(80, edges)


class TestAdjuster:
    def test_realizable_lengths_match_spliced_measurements(self):
        g = detour_ladder_graph()
        core = Path(tuple(range(11)))
        detours = (Detour(2, 3, Path((2, 20, 21, 3))),
                   Detour(5, 6, Path((5, 22, 23, 6))),
                   Detour(7, 8, Path((7, 24, 25, 26, 27, 8))))
        adj = Adjuster(core, detours)
        assert not adj.failures(g)
        assert adj.realizable_lengths() == {10, 12, 14, 16, 18}
        # measure every subset by actually splicing it
        from itertools import combinations
        measured = set()
        for r in range(4):
            for combo in combinations(range(3), r):
                ell = 10 + sum(detours[i].increment for i in combo)
                spliced = adj.realize(ell)
                assert not spliced.failures(g)
                measured.add(spliced.length)
        assert measured == adj.realizable_lengths()

    def test_unrealizable_length_raises_with_nearest(self):
        core = Path(tuple(range(11)))
        adj = Adjuster(core, (Detour(2, 3, Path((2, 20, 21, 3))),))
        with pytest.raises(LengthNotRealizedError) as err:
            adj.realize(16)
        assert err.value.nearest == [12]

    def test_two_detours_on_one_core_edge(self):
        # splicing both would replace one edge twice: only the first counts
        g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)])
        adj = Adjuster(Path((0, 1, 2)), (Detour(0, 1, Path((0, 3, 4, 1))),
                                          Detour(0, 1, Path((0, 5, 6, 1)))))
        assert adj.failures(g) == ["detours 0 and 1 share core edge 0-1"]
        assert adj.realizable_lengths() == {2, 4}
        assert adj.realize(4).vertices == (0, 3, 4, 1, 2)
        with pytest.raises(LengthNotRealizedError) as err:
            adj.realize(6)
        assert err.value.nearest == [4]

    def test_detour_off_the_core_adds_nothing(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
        adj = Adjuster(Path((0, 1, 2)), (Detour(3, 6, Path((3, 4, 5, 6))),))
        assert adj.failures(g) == ["detour 0 not attached to a core edge"]
        assert adj.realizable_lengths() == {2}
        assert adj.realize(2).vertices == (0, 1, 2)

    def test_detour_invariants_flagged(self):
        g = detour_ladder_graph()
        bad = Detour(2, 3, Path((2, 20, 21, 22, 3)))  # 21-22 not an edge
        assert bad.failures(g)

    def test_connector_uses_detours_at_scale(self):
        g = detour_ladder_graph()  # n = 80 > exact cap
        f1 = Expansion(0, frozenset({0}), 0)
        f2 = Expansion(10, frozenset({10}), 0)
        cfg = RunConfig(d=4)
        for ell in (10, 12, 14, 16, 18):
            p = connect_fixed_length(g, f1, f2, ell, set(), cfg)
            assert p.length == ell and not p.failures(g)
        with pytest.raises(LengthNotRealizedError) as err:
            connect_fixed_length(g, f1, f2, 20, set(), cfg)
        assert 18 in err.value.nearest


def _link_at(g: Graph, ka: Kraken, kb: Kraken, ell: int, high: frozenset[int],
             cfg: RunConfig) -> list[Path]:
    """A pair that passes _check_link_pair, planned by _link_aligned with its
    window pinned to [ell, ell]: the rungs of a pillar its checker accepts
    in g, or a StageError."""
    rc = RunConfig(d=cfg.d, overrides={**cfg.overrides, "pillar_ell_min": ell,
                                       "ell_max": ell}).resolve(g.n)
    _check_link_pair(g, ka, kb, high, rc)
    got, paths = _link_aligned(g, ka, kb, high, rc)
    assert got == ell
    assert verify_pillar(g, Pillar(ka.k, ell, ka.cycle, kb.cycle, tuple(paths))).valid
    return paths


class TestLinkKrakens:
    """Linking two krakens: the pair's clauses (``_check_link_pair``), then
    one plan at a pinned length (``_link_aligned``)."""

    def build_prism_krakens(self):
        g = subdivided_prism(4, 5)  # rung i: (i, 8+4i..11+4i, 4+i)
        ka = Kraken(Cycle((0, 1, 2, 3)), tuple(8 + 4 * i for i in range(4)),
                    tuple(Expansion(8 + 4 * i, frozenset({8 + 4 * i}), 0) for i in range(4)),
                    tuple(Path((i, 8 + 4 * i)) for i in range(4)), s=1, t=1)
        kb = Kraken(Cycle((4, 5, 6, 7)), tuple(11 + 4 * i for i in range(4)),
                    tuple(Expansion(11 + 4 * i, frozenset({11 + 4 * i}), 0) for i in range(4)),
                    tuple(Path((4 + i, 11 + 4 * i)) for i in range(4)), s=1, t=1)
        return g, ka, kb

    def test_recovers_prism_rungs(self):
        g, ka, kb = self.build_prism_krakens()
        cfg = RunConfig(d=4)
        paths = _link_at(g, ka, kb, 5, frozenset(), cfg)
        rungs = {frozenset(r) for r in subdivided_prism_rungs(4, 5)}
        assert {frozenset(p.vertices) for p in paths} == rungs
        pillar = Pillar(4, 5, ka.cycle, kb.cycle, tuple(paths))
        assert verify_pillar(g, pillar).valid

    @staticmethod
    def record_cases(monkeypatch) -> list[tuple[int, str, int]]:
        """(index, side, case) of every leg-to-expansion case the linker runs."""
        cases = []
        real = pillar_mod._side_expansion

        def spy(g, kr, j, z, high, rc, side_name):
            exp, case = real(g, kr, j, z, high, rc, side_name)
            cases.append((j, side_name, case))
            return exp, case

        monkeypatch.setattr(pillar_mod, "_side_expansion", spy)
        return cases

    def test_high_degree_end_uses_its_neighbourhood(self, monkeypatch):
        g, ka, kb = self.build_prism_krakens()
        cases = self.record_cases(monkeypatch)
        paths = _link_at(g, ka, kb, 5, frozenset({8}), RunConfig(d=4))
        assert (0, "first", 1) in cases
        assert verify_pillar(g, Pillar(4, 5, ka.cycle, kb.cycle, tuple(paths))).valid

    def test_leg_ball_walks_to_a_high_degree_vertex(self, monkeypatch):
        g, ka, kb = self.build_prism_krakens()
        # ka's leg i gains a pendant p_i = 24 + i off its end, and vertex 28,
        # hung on p_0, plays the high-degree vertex that leg 0's ball meets
        edges = g.edges() + [(8 + 4 * i, 24 + i) for i in range(4)] + [(24, 28)]
        big = Graph(29, edges)
        ka = Kraken(ka.cycle, ka.ends,
                    tuple(Expansion(8 + 4 * i, frozenset({8 + 4 * i, 24 + i}), 1) for i in range(4)),
                    ka.paths, s=1, t=2)
        cases = self.record_cases(monkeypatch)
        paths = _link_at(big, ka, kb, 5, frozenset({28}), RunConfig(d=4))
        assert (0, "first", 3) in cases
        assert verify_pillar(big, Pillar(4, 5, ka.cycle, kb.cycle, tuple(paths))).valid

    def test_cycle_length_mismatch(self):
        g, ka, kb = self.build_prism_krakens()
        short = Kraken(Cycle(kb.cycle.vertices[:3]), kb.ends[:3], kb.legs[:3],
                       kb.paths[:3], kb.s, kb.t)
        with pytest.raises(PreconditionError, match="cycle lengths differ: 4 vs 3"):
            _check_link_pair(g, ka, short, frozenset(), RunConfig(d=4).resolve(g.n))

    def test_legs_closer_than_separation_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        cfg = RunConfig(d=4)
        cfg.overrides["separation"] = 4  # legs on one rung are 3 apart
        with pytest.raises(PreconditionError, match="low-degree legs only 3 apart"):
            _check_link_pair(g, ka, kb, frozenset(), cfg.resolve(g.n))

    def test_krakens_in_different_components_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        two = Graph(2 * g.n, g.edges() + [(u + g.n, v + g.n) for u, v in g.edges()])
        shift = lambda vs: tuple(v + g.n for v in vs)
        far = Kraken(Cycle(shift(kb.cycle.vertices)), shift(kb.ends),
                     tuple(Expansion(leg.center + g.n, frozenset(shift(leg.members)),
                                     leg.radius) for leg in kb.legs),
                     tuple(Path(shift(p.vertices)) for p in kb.paths), kb.s, kb.t)
        with pytest.raises(PreconditionError, match="different components"):
            _check_link_pair(two, ka, far, frozenset(), RunConfig(d=4).resolve(two.n))

    def test_non_bipartite_host_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        n = g.n
        odd = Graph(n + 3, g.edges() + [(n, n + 1), (n + 1, n + 2), (n + 2, n)])
        with pytest.raises(PreconditionError, match="bipartite"):
            _check_link_pair(odd, ka, kb, frozenset(), RunConfig(d=4).resolve(odd.n))

    def test_output_paths_disjoint_and_internal(self):
        g, ka, kb = self.build_prism_krakens()
        paths = _link_at(g, ka, kb, 5, frozenset(), RunConfig(d=4))
        seen = set()
        cycles = set(ka.cycle.vertices) | set(kb.cycle.vertices)
        for p in paths:
            assert not (seen & p.vertex_set())
            seen |= p.vertex_set()
            assert not (set(p.interior()) & cycles)


class TestFindPillar:
    CFG = RunConfig(d=4)

    def test_hypercube_fast_path(self):
        g = hypercube(3)
        t0 = time.perf_counter()
        p = find_pillar(g, self.CFG, seed=0)
        assert time.perf_counter() - t0 < 1.0
        assert (p.s, p.ell) == (4, 1)
        assert verify_pillar(g, p).valid

    @pytest.mark.parametrize("dim", [6, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_large_hypercube_cube_pillar(self, dim, seed):
        """Every vertex of Q_d lies on a cube, and the sampled search finds
        one through whichever vertex it draws."""
        g = hypercube(dim)
        p = find_pillar(g, RunConfig(), seed)
        assert (p.s, p.ell) == (4, 1)
        assert verify_pillar(g, p).valid

    def test_empty_graph_starves_at_kraken_collection(self):
        with pytest.raises(StageError) as err:
            find_pillar(Graph(0, []), self.CFG, seed=0)
        assert err.value.stage == "kraken-collection"

    def test_deterministic(self):
        g = hypercube(3)
        assert find_pillar(g, self.CFG, seed=3) == find_pillar(g, self.CFG, seed=3)

    def test_seed_defaults_to_the_config_seed(self):
        g = torus(24, 24)
        assert find_pillar(g, RunConfig(overrides={"seed": 3})) == find_pillar(g, RunConfig(), 3)

    def test_u_over_its_cap_starves_at_u_bound(self):
        """Round 1's U is the search's own krakens, so a U over u_cap is a
        starved stage, not bad input."""
        with pytest.raises(StageError) as err:
            find_pillar(torus(30, 30), RunConfig(overrides={"u_cap": 0}))
        assert err.value.stage == "u-bound" and err.value.details == {"u": 63}

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(["rr", "torus", "hypercube", "planted"]),
           size=st.integers(0, 4), seed=st.integers(0, 3), u_cap=st.sampled_from([0, 100_000]))
    def test_outcome_is_a_pillar_or_a_stage_error(self, family, size, seed, u_cap):
        """On well-formed inputs the search returns a pillar its checker
        accepts or starves with a StageError; nothing else escapes."""
        g = {"rr": lambda: random_regular(200, 3 + size, seed),
             "torus": lambda: torus(20 + 2 * size, 20 + size),
             "hypercube": lambda: hypercube(3 + size),
             "planted": lambda: planted_prism_with_noise(8, 5, 40, seed)}[family]()
        cfg = RunConfig(overrides={"u_cap": u_cap, "separation": 1 + size % 2})
        try:
            p = find_pillar(g, cfg, seed)
        except StageError:
            return
        assert verify_pillar(g, p).valid

    def test_tree_stage_error(self):
        g = Graph(15, [(i, (i - 1) // 2) for i in range(1, 15)])
        with pytest.raises(StageError):
            find_pillar(g, self.CFG, seed=0)

    def test_planted_prism_recovered(self):
        cfg = RunConfig(d=4)
        cfg.overrides["separation"] = 1
        g = planted_prism_with_noise(8, 5, 40, seed=11)
        p = find_pillar(g, cfg, seed=11)
        assert verify_pillar(g, p).valid
        assert p.s == 8 and p.ell == 5

    def test_cube_of_g_the_max_cut_host_loses(self):
        """Two rr(2000, 20) joined by 5 edges hold a cube that the greedy
        max-cut loses.  The cube search runs on g's largest piece, before
        the host is cut, so the cube pillar comes back."""
        a, b = random_regular(2000, 20, 2), random_regular(2000, 20, 1002)
        rng = random.Random(2)
        edges = a.edges() + [(u + 2000, v + 2000) for u, v in b.edges()]
        edges += [(rng.randrange(2000), 2000 + rng.randrange(2000)) for _ in range(5)]
        g = Graph(4000, edges)
        p = find_pillar(g, RunConfig(d=20), 0)
        assert (p.s, p.ell) == (4, 1)
        assert verify_pillar(g, p).valid

    def test_pillar_from_cube_certificate(self):
        g = hypercube(3)
        cert = find_q3_bruteforce(g)
        p = pillar_from_q3(cert)
        assert verify_pillar(g, p).valid


# -- what find_pillar may skip -------------------------------------------


def _planted_config(separation: int = 1) -> RunConfig:
    cfg = RunConfig(d=4)
    # the planted rungs put the two krakens' legs one corridor apart
    cfg.overrides["separation"] = separation
    return cfg


def _linked_pair(monkeypatch, seed: int):
    """find_pillar on criterion-9 prism ``seed``, returning the arguments of
    its one pair check: (host, ka, kb, high-degree set, resolved config)."""
    calls = []
    real = pillar_mod._check_link_pair

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pillar_mod, "_check_link_pair", spy)
    g = planted_prism_with_noise(8, 5, 40, seed=seed)
    find_pillar(g, _planted_config(), seed=seed)
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


def _alignments(kb: Kraken):
    return [_rotate_kraken(kb, shift, reflect)
            for reflect in (False, True) for shift in range(kb.k)]


class TestLinkSkips:
    """The criterion-9 prisms' linked pair.  find_pillar checks a pair once,
    not once per alignment, since the pair check gives one outcome for
    every alignment; and a plan whose window is pinned to one ell returns
    paths of that length or raises a StageError."""

    @staticmethod
    def _outcome(h, ka, kb, high, rc):
        try:
            _check_link_pair(h, ka, kb, high, rc)
        except PreconditionError as exc:
            return str(exc)
        return "ok"

    @pytest.mark.parametrize("seed", range(10))
    def test_pair_check_same_for_every_alignment(self, monkeypatch, seed):
        h, ka, kb, high, _ = _linked_pair(monkeypatch, seed)
        # separation 2 fails on these pairs and 1 passes: both outcomes are compared
        for sep in (1, 2):
            rc = _planted_config(sep).resolve(h.n)
            outcomes = {self._outcome(h, ka, al, high, rc) for al in _alignments(kb)}
            assert len(outcomes) == 1, outcomes
        assert self._outcome(h, ka, kb, high, _planted_config(1).resolve(h.n)) == "ok"

    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_length_link_is_exact_or_a_stage_error(self, monkeypatch, seed):
        h, ka, kb, high, _ = _linked_pair(monkeypatch, seed)
        outcomes = set()
        for al in _alignments(kb):
            par = pillar_mod.parity(h, ka.cycle.vertices[0], al.cycle.vertices[0])
            for ell in range(2 - par, 16, 2):
                try:
                    paths = _link_at(h, ka, al, ell, high, _planted_config())
                except StageError:
                    outcomes.add("stage")
                    continue
                assert [p.length for p in paths] == [ell] * ka.k
                outcomes.add("ok")
        assert outcomes == {"ok", "stage"}


def _link_input(case: str, seed: int) -> tuple[Graph, RunConfig]:
    """A find_pillar input that links: a criterion-9 prism, rr(2000, 12),
    or the sparse rr(10^4, 4), whose krakens sit on a max-cut host."""
    if case == "planted":
        return planted_prism_with_noise(8, 5, 40, seed=seed), _planted_config()
    if case == "rr":
        return random_regular(2000, 12, seed), RunConfig(d=12)
    return random_regular(10_000, 4, seed), RunConfig(d=4)


_LINKED = [("planted", seed) for seed in range(10)] + [("rr", seed) for seed in range(3)]


@pytest.fixture
def carves(monkeypatch) -> list[int]:
    """One entry per kraken._carve call: every kraken find_pillar tries to carve."""
    calls: list[int] = []
    real = kraken_mod._carve
    monkeypatch.setattr(kraken_mod, "_carve", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.fixture
def no_finish(monkeypatch) -> None:
    """find_pillar must link inside round 0's kraken collection: _finish,
    which ends a round that linked nothing, is never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("find_pillar finished a round")

    monkeypatch.setattr(kraken_mod, "_finish", refuse)


class TestLinkWork:
    @pytest.mark.parametrize("case, seed", _LINKED)
    def test_each_alignment_planned_once(self, monkeypatch, case, seed):
        plans = []
        real_link = pillar_mod._link_aligned

        def link(g, ka, kb, *rest):
            plans.append((ka.cycle.vertices, kb.cycle.vertices))  # kb as aligned
            return real_link(g, ka, kb, *rest)

        monkeypatch.setattr(pillar_mod, "_link_aligned", link)
        g, cfg = _link_input(case, seed)
        assert verify_pillar(g, find_pillar(g, cfg, seed=seed)).valid
        # _carve verified both krakens as it carved them, and linking cannot again
        assert not hasattr(pillar_mod, "verify_kraken")
        assert plans and len(set(plans)) == len(plans)

    @pytest.mark.parametrize("case, seed", _LINKED + [("sparse", 0), ("sparse", 3)])
    def test_plan_takes_the_least_common_length(self, monkeypatch, case, seed):
        rungs = []  # (core, detours) of the plan in progress
        real_harvest = pillar_mod._harvest_detours

        def harvest(g, core, avoid, need):
            rungs.append((core, real_harvest(g, core, avoid, need)))
            return rungs[-1][1]

        lengths = []  # the planned length, or None where no length was common
        real_link = pillar_mod._link_aligned

        def link(g, ka, kb, high, rc):
            rungs.clear()
            window = (max(rc.pillar_ell_min, rc.ell_min), rc.ell_max)
            try:
                ell, paths = real_link(g, ka, kb, high, rc)
            except StageError as exc:
                if exc.stage == "link-length":
                    assert len(rungs) == ka.k and ref_least_common_length(rungs, *window) is None
                    lengths.append(None)
                raise
            assert len(rungs) == ka.k and ell == ref_least_common_length(rungs, *window)
            assert [p.length for p in paths] == [ell] * ka.k
            lengths.append(ell)
            return ell, paths

        monkeypatch.setattr(pillar_mod, "_harvest_detours", harvest)
        monkeypatch.setattr(pillar_mod, "_link_aligned", link)
        g, cfg = _link_input(case, seed)
        assert find_pillar(g, cfg, seed=seed).ell == lengths[-1]

    def test_next_pair_links_when_the_first_pair_fails(self, monkeypatch, carves, no_finish):
        # every attempt on collection krakens 0 and 1 fails; kraken 2 links with 0
        real_link = pillar_mod._link_aligned
        first: list[tuple] = []

        def link(g, ka, kb, *rest):
            pair = (ka.cycle.vertex_set(), kb.cycle.vertex_set())
            if not first:
                first.append(pair)
            if pair == first[0]:
                raise StageError("link-connect", "index 1: stub", {"index": 0})
            return real_link(g, ka, kb, *rest)

        tried = []
        real_pair = pillar_mod._link_pair

        def spy(*args):
            out = real_pair(*args)
            tried.append(out[0] is not None)
            return out

        monkeypatch.setattr(pillar_mod, "_link_aligned", link)
        monkeypatch.setattr(pillar_mod, "_link_pair", spy)
        g = random_regular(2000, 12, 1)
        p = find_pillar(g, RunConfig(d=12), 1)
        assert verify_pillar(g, p).valid
        assert tried == [False, True]
        assert len(carves) == 3

    def test_unlinkable_collection_pair_is_skipped(self, monkeypatch, carves, no_finish):
        # at kraken_separation 0, krakens 0 and 1 of this collection, and then
        # 0 and 2, have low-degree legs 1 apart; krakens 1 and 2 link
        outcomes = []
        real = pillar_mod._check_link_pair

        def spy(*args):
            try:
                real(*args)
            except PreconditionError as exc:
                outcomes.append(str(exc))
                raise
            outcomes.append("ok")

        monkeypatch.setattr(pillar_mod, "_check_link_pair", spy)
        g = random_regular(2000, 12, 0)
        p = find_pillar(g, RunConfig(d=12), 0)
        assert verify_pillar(g, p).valid
        assert outcomes == ["low-degree legs only 1 apart (need 2)"] * 2 + ["ok"]
        assert len(carves) == 3

    # link-connect fails at a rung's index, here 0; link-length, as a real
    # one does, names no index
    @pytest.mark.parametrize("stage, details", [("link-connect", {"index": 0}),
                                                ("link-length", {})],
                             ids=["link-connect", "link-length"])
    def test_link_failure_reports_alignments(self, monkeypatch, stage, details):
        plans = []

        def fail(*args):
            plans.append(args)
            raise StageError(stage, "stub", details)

        monkeypatch.setattr(pillar_mod, "_link_aligned", fail)
        g = planted_prism_with_noise(8, 5, 40, seed=0)
        with pytest.raises(StageError) as err:
            find_pillar(g, _planted_config(), seed=0)
        assert err.value.stage == "link"
        # round 0's one pair, then round 1's finished kraken with round 0's;
        # round 2 finds no kraken to pair
        assert err.value.details["pairs"] == 2
        # round 0's two krakens and round 1's one
        assert err.value.details["carved"] == 3
        k = err.value.details["cycle_length"]
        # one plan per alignment, but a reflection shares its shift's index
        # 0: k plans per pair when that fails, 2k otherwise
        assert err.value.details["alignments"] == 2 * 2 * k
        assert err.value.details["plans"] == 2 * (k if details else 2 * k) == len(plans)
        assert "attempts" not in err.value.details

    def test_link_pair_as_if_every_alignment_were_planned(self, monkeypatch):
        """Every pair find_pillar links on planted prisms 0-19 and rr(2000, 12)
        0-2, linked again by _link_pair and by the loop that plans all 2k
        alignments: the same pillar or the same last error.  The pairs are
        linked at their own config and at two tighter ones, where most fail
        (at index 0, at a later index, or at link-length).  No reflection is
        planned whose shift failed at index 0, and every other one is, up to
        the pillar."""
        pairs = []
        real_pair = pillar_mod._link_pair
        for case, seeds in (("planted", range(20)), ("rr", range(3))):
            for seed in seeds:
                g, cfg = _link_input(case, seed)
                monkeypatch.setattr(pillar_mod, "_link_pair",
                                    lambda *args: pairs.append((args, cfg)) or real_pair(*args))
                assert verify_pillar(g, find_pillar(g, cfg, seed=seed)).valid
        monkeypatch.undo()
        plans = []  # (kb's alignment, the index its failed plan names, or "ok")
        real_link = pillar_mod._link_aligned

        def link(h, ka, kb, *rest):
            try:
                out = real_link(h, ka, kb, *rest)
            except StageError as exc:
                plans.append((kb.cycle.vertices, exc.details.get("index")))
                raise
            plans.append((kb.cycle.vertices, "ok"))
            return out

        monkeypatch.setattr(pillar_mod, "_link_aligned", link)
        failed = skipped = 0
        ends = set()  # how the plans ended: "ok", or the index a failure names
        for (h, ka, kb, high, _), cfg in pairs:
            for tighter in ({}, {"link_expansion_size": 4}, {"pillar_ell_min": 12}):
                rc = RunConfig(d=cfg.d, overrides={**cfg.overrides, **tighter}).resolve(h.n)
                args = (h, ka, kb, high, rc)
                plans.clear()
                pillar, count, last_error = pillar_mod._link_pair(*args)
                assert (pillar, last_error) == ref_link_pair(*args)
                order = [_rotate_kraken(kb, shift, reflect).cycle.vertices
                         for reflect in (False, True) for shift in range(kb.k)]
                first_failed = {order.index(al) for al, at in plans if at == 0} & set(range(kb.k))
                want = [al for i, al in enumerate(order) if i - kb.k not in first_failed]
                if pillar is not None:
                    want = want[:want.index(plans[-1][0]) + 1]
                assert [al for al, _ in plans] == want and count == len(plans)
                ends.update(at for _, at in plans)
                failed += pillar is None
                skipped += 2 * kb.k - count if pillar is None else 0
        assert len(pairs) == 23 and failed >= 30 and skipped >= 100
        assert {"ok", 0, 1, None} <= ends  # None: link-length names no index


class TestCarvedKrakens:
    """find_pillar carves one round's collection and links inside it: a
    change that finishes the round or carves a second one fails here."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_regular_carves_two(self, carves, no_finish, seed):
        g = random_regular(2000, 12, seed)
        assert verify_pillar(g, find_pillar(g, RunConfig(d=12), seed)).valid
        assert len(carves) == 2

    def test_planted_prism_carves_two(self, carves, no_finish):
        g = planted_prism_with_noise(8, 5, 40, seed=0)
        assert verify_pillar(g, find_pillar(g, _planted_config(), seed=0)).valid
        assert len(carves) == 2


@pytest.mark.parametrize("seed, outcome", enumerate(["ok", "assembly", "assembly", "ok",
                                                      "assembly"]))
def test_even_torus_goes_through_the_fallback(monkeypatch, carves, seed, outcome):
    """No pair of torus(30, 30)'s round-0 collection links, so _finish runs.
    Each round makes its 3 carve attempts once: a search whose first
    _finish raises makes 3, one that links in round 1 makes 6, and seed 0,
    where no alignment of the round-1 pair links, links in round 2 after 9."""
    calls = []
    real = kraken_mod._finish
    monkeypatch.setattr(kraken_mod, "_finish", lambda state: calls.append(1) or real(state))
    g = torus(30, 30)
    try:
        got = "ok" if verify_pillar(g, find_pillar(g, RunConfig(d=4), seed)).valid else "invalid"
    except StageError as exc:
        got = exc.stage
    assert got == outcome
    assert calls
    assert len(carves) == [9, 3, 6, 6, 3][seed]


@pytest.mark.parametrize("seed", range(4))
def test_distinct_cycle_lengths_starve_at_pigeonhole(seed):
    """Round i of cycle_chain's search carves the cycles of lengths 4 + 2i
    and up, at most 3 of them, and each kraken qualifies; no two share a
    length, so no pair is tried, and after 8 rounds (3 krakens each in
    rounds 0-5, then 2 and 1) the search starves at ``pigeonhole``."""
    with pytest.raises(StageError) as err:
        find_pillar(cycle_chain(), RunConfig(d=4, overrides={"k_max": 18}), seed)
    assert err.value.stage == "pigeonhole"
    assert err.value.details == {"lengths": list(range(4, 19, 2)), "carved": 21}


@pytest.mark.parametrize("case, seed", [("torus", 0), ("torus", 1), ("planted", 0),
                                        ("planted", 1), ("rr", 0)])
def test_each_carved_kraken_is_judged_and_checked_once(monkeypatch, case, seed):
    """_carve checks each kraken it carves and its round judges it as it is
    carved; neither happens again where a round ends in _finish (the tori) or
    on its first qualifying kraken (the planted prisms at the default
    separation, and rr(2000, 4) seed 0)."""
    g = {"torus": lambda: torus(30, 30), "planted": lambda: planted_prism_with_noise(8, 5, 40, seed),
         "rr": lambda: random_regular(2000, 4, seed)}[case]()
    carved, judged, checked = [], [], []
    real_carve, real_verify = kraken_mod._carve, kraken_mod.verify_kraken

    def carve(*args):
        carved.append(real_carve(*args))
        return carved[-1]

    def verify(g, kr):
        checked.append(kr)
        return real_verify(g, kr)

    def judge(real):
        return lambda g, kr, *rest: judged.append(kr) or real(g, kr, *rest)

    monkeypatch.setattr(kraken_mod, "_carve", carve)
    monkeypatch.setattr(kraken_mod, "verify_kraken", verify)
    monkeypatch.setattr(kraken_mod, "_qualifies", judge(kraken_mod._qualifies))
    try:
        find_pillar(g, RunConfig(d=4), seed)
    except StageError:
        pass
    for log in (judged, checked):
        assert [sum(x is kr for x in log) for kr in carved] == [1] * len(carved)


def test_non_bipartite_host_searches_its_max_cut():
    """subdivided_prism(5, 5)'s 5-cycles make it non-bipartite, so
    find_pillar carves in its max-cut host, where the krakens find too
    little room."""
    with pytest.raises(StageError, match="no unclaimed neighbour of cycle vertex 22 has "
                                         "room for a leg") as err:
        find_pillar(subdivided_prism(5, 5), RunConfig(d=3), seed=0)
    assert err.value.stage == "kraken-collection"


@pytest.mark.parametrize("branch", ["cube", "linked"])
def test_one_exit_checks_the_pillar_in_g(monkeypatch, branch):
    """Whether a cube or a linked pair gives the pillar, find_pillar checks
    it in g at one exit: rungs out of order are the same internal error."""
    if branch == "cube":
        real_cube = pillar_mod.pillar_from_q3

        def reversed_rungs(cert):
            cube = real_cube(cert)
            return dataclasses.replace(cube, paths=cube.paths[::-1])

        monkeypatch.setattr(pillar_mod, "pillar_from_q3", reversed_rungs)
        g, cfg = hypercube(3), RunConfig(d=4)
    else:
        real_link = pillar_mod._link_aligned

        def reversed_paths(*args):
            ell, paths = real_link(*args)
            return ell, paths[::-1]

        monkeypatch.setattr(pillar_mod, "_link_aligned", reversed_paths)
        g, cfg = planted_prism_with_noise(8, 5, 40, seed=0), _planted_config()
    with pytest.raises(InternalError,
                       match=r"^internal: pillar invalid in g \(invalid: \[path-endpoint-cycle1\]"):
        find_pillar(g, cfg, seed=0)


class TestLinkPairContract:
    @pytest.mark.parametrize("seed", range(5))
    def test_broken_kraken_contract_is_an_internal_error(self, monkeypatch, seed):
        # a round's kraken is one that qualifies, and so meets every clause
        # of the pair check; a _qualifies that accepts every kraken breaks
        # that, and the break is a bug in the library, not bad input
        monkeypatch.setattr(kraken_mod, "_qualifies", lambda *args: True)
        g = planted_prism_with_noise(8, 5, 40, seed=seed)
        with pytest.raises(InternalError, match="link check.*apart"):
            find_pillar(g, RunConfig(d=4), seed=seed)

    def test_link_knobs_follow_the_linked_graph(self, monkeypatch):
        # 10 000 isolated vertices: the linked graph h is the 88-vertex
        # prism piece of a 10 088-vertex g, and linking on h plans from the
        # run's pillar_ell_min up
        prism = planted_prism_with_noise(8, 5, 40, seed=0)
        g = Graph(prism.n + 10_000, prism.edges())
        cfg = RunConfig(d=4, overrides={"pillar_ell_min": 7, "separation": 1})
        calls, refused, planned = [], [], []
        real = pillar_mod._link_aligned

        def spy(h, ka, kb, high, rc):
            calls.append((h.n, max(rc.pillar_ell_min, rc.ell_min)))  # the window's low end
            try:
                ell, paths = real(h, ka, kb, high, rc)
            except StageError as exc:
                refused.append(exc.details.get("cores"))
                raise
            planned.append(ell)
            return ell, paths

        monkeypatch.setattr(pillar_mod, "_link_aligned", spy)
        with pytest.raises(StageError, match="no alignment linked"):
            find_pillar(g, cfg, seed=0)
        assert calls[0] == (prism.n, 7) and prism.n == 88
        # the prism's rungs have length 5 and no even cycle to hang a
        # detour on, so a plan that builds all eight cores finds no length
        assert [5] * 8 in refused and not planned
        # rr(2000, 12) links at 5 by default, and here no lower than 7
        g = random_regular(2000, 12, 0)
        pillar = find_pillar(g, RunConfig(d=12, overrides={"pillar_ell_min": 7}), seed=0)
        assert pillar.ell == planned[-1] >= 7 and verify_pillar(g, pillar).valid
