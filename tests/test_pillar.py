import gc
import time

import pytest

from pillarkit import kraken as kraken_mod
from pillarkit import pillar as pillar_mod
from pillarkit.config import RunConfig
from pillarkit.errors import (InternalError, LengthNotRealizedError, PreconditionError,
                              StageError)
from pillarkit.generators import (cycle_graph, hypercube, random_regular,
                                  subdivided_prism, subdivided_prism_rungs)
from pillarkit.graph import Cycle, Graph, Path
from pillarkit.kraken import Kraken
from pillarkit.pillar import (Adjuster, Detour, Pillar, _check_link_pair,
                              _rotate_kraken, connect_fixed_length,
                              find_pillar, link_krakens, pillar_from_q3,
                              verify_pillar)
from pillarkit.primitives import Expansion, find_q3_bruteforce

from util import all_simple_path_lengths, planted_prism_with_noise, torus

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
        with pytest.raises(LengthNotRealizedError):
            connect_fixed_length(g, Expansion(0, frozenset({0}), 0),
                                 Expansion(4, frozenset({4}), 0), 4, {1, 7}, self.CFG)

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


class TestLinkKrakens:
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
        paths = link_krakens(g, ka, kb, 5, frozenset(), cfg)
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
        paths = link_krakens(g, ka, kb, 5, frozenset({8}), RunConfig(d=4))
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
        paths = link_krakens(big, ka, kb, 5, frozenset({28}), RunConfig(d=4))
        assert (0, "first", 3) in cases
        assert verify_pillar(big, Pillar(4, 5, ka.cycle, kb.cycle, tuple(paths))).valid

    def test_invalid_link_output_is_an_internal_error(self, monkeypatch):
        # link_krakens checks the pillar its paths form before returning them
        g, ka, kb = self.build_prism_krakens()
        real = pillar_mod._link_aligned
        monkeypatch.setattr(pillar_mod, "_link_aligned", lambda *args: real(*args)[::-1])
        with pytest.raises(InternalError, match="linked pillar invalid"):
            link_krakens(g, ka, kb, 5, frozenset(), RunConfig(d=4))

    def test_cycle_length_mismatch(self):
        g, ka, kb = self.build_prism_krakens()
        short = Kraken(Cycle(kb.cycle.vertices[:3]), kb.ends[:3], kb.legs[:3],
                       kb.paths[:3], kb.s, kb.t)
        with pytest.raises(PreconditionError):
            link_krakens(g, ka, short, 5, frozenset(), RunConfig(d=4))

    def test_wrong_parity_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        with pytest.raises(PreconditionError, match="parity"):
            link_krakens(g, ka, kb, 4, frozenset(), RunConfig(d=4))

    def test_invalid_kraken_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        # singleton legs cannot be expansions of t = 2 vertices
        bad = Kraken(ka.cycle, ka.ends, ka.legs, ka.paths, ka.s, 2)
        with pytest.raises(PreconditionError, match="first kraken invalid"):
            link_krakens(g, bad, kb, 5, frozenset(), RunConfig(d=4))

    def test_legs_closer_than_separation_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        cfg = RunConfig(d=4)
        cfg.overrides["separation"] = 4  # legs on one rung are 3 apart
        with pytest.raises(PreconditionError, match="low-degree legs only 3 apart"):
            link_krakens(g, ka, kb, 5, frozenset(), cfg)

    def test_krakens_in_different_components_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        two = Graph(2 * g.n, g.edges() + [(u + g.n, v + g.n) for u, v in g.edges()])
        shift = lambda vs: tuple(v + g.n for v in vs)
        far = Kraken(Cycle(shift(kb.cycle.vertices)), shift(kb.ends),
                     tuple(Expansion(leg.center + g.n, frozenset(shift(leg.members)),
                                     leg.radius) for leg in kb.legs),
                     tuple(Path(shift(p.vertices)) for p in kb.paths), kb.s, kb.t)
        with pytest.raises(PreconditionError, match="different components"):
            link_krakens(two, ka, far, 5, frozenset(), RunConfig(d=4))

    def test_non_bipartite_host_rejected(self):
        g, ka, kb = self.build_prism_krakens()
        n = g.n
        odd = Graph(n + 3, g.edges() + [(n, n + 1), (n + 1, n + 2), (n + 2, n)])
        with pytest.raises(PreconditionError, match="bipartite"):
            link_krakens(odd, ka, kb, 5, frozenset(), RunConfig(d=4))

    def test_output_paths_disjoint_and_internal(self):
        g, ka, kb = self.build_prism_krakens()
        paths = link_krakens(g, ka, kb, 5, frozenset(), RunConfig(d=4))
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


def _is_index0_disconnection(exc: Exception) -> bool:
    return (isinstance(exc, StageError) and exc.stage == "link-connect"
            and exc.details["index"] == 0 and exc.details["cause"] == "NoPathError")


class TestLinkSkips:
    """The two skips of find_pillar's linking loop rest on premises that
    these tests check on the criterion-9 prisms: the pair check gives one
    outcome for every alignment, and an index-0 disconnection repeats at
    every length find_pillar would try next."""

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

    @pytest.mark.parametrize("seed", range(10))
    def test_index0_disconnection_fails_every_length(self, monkeypatch, seed):
        h, ka, kb, high, rc = _linked_pair(monkeypatch, seed)
        cfg = _planted_config()
        disconnected = 0
        for al in _alignments(kb):
            ell = rc.pillar_ell_min
            if ell % 2 != pillar_mod.parity(h, ka.cycle.vertices[0], al.cycle.vertices[0]):
                ell += 1
            with pytest.raises(StageError) as first:
                link_krakens(h, ka, al, ell, high, cfg)
            if not _is_index0_disconnection(first.value):
                continue
            disconnected += 1
            # no nearest lengths come with a disconnection, so find_pillar
            # would step by 2 for the rest of its retries
            for retry in range(1, pillar_mod._LINK_RETRIES):
                with pytest.raises(StageError) as later:
                    link_krakens(h, ka, al, ell + 2 * retry, high, cfg)
                assert _is_index0_disconnection(later.value)
                assert str(later.value) == str(first.value)
        assert disconnected


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

    monkeypatch.setattr(pillar_mod, "_finish", refuse)


class TestLinkWork:
    # both prisms link on their sixteenth and last alignment, at its second
    # length; every alignment but one before it is disconnected at index 0
    @pytest.mark.parametrize("seed, n_attempts, n_stops", [(0, 22, 12), (2, 23, 13)])
    def test_pair_checked_once_and_no_retry_after_disconnection(
            self, monkeypatch, seed, n_attempts, n_stops):
        verified = []
        real_verify = pillar_mod.verify_kraken
        monkeypatch.setattr(pillar_mod, "verify_kraken",
                            lambda g, kr: verified.append(kr) or real_verify(g, kr))
        attempts = []
        real_link = pillar_mod._link_aligned

        def link(g, ka, kb, ell, *rest):
            try:
                out = real_link(g, ka, kb, ell, *rest)
            except StageError as exc:
                attempts.append((kb.cycle.vertices, ell, exc))
                raise
            attempts.append((kb.cycle.vertices, ell, None))
            return out

        monkeypatch.setattr(pillar_mod, "_link_aligned", link)
        g = planted_prism_with_noise(8, 5, 40, seed=seed)
        p = find_pillar(g, _planted_config(), seed=seed)
        assert verify_pillar(g, p).valid
        assert not verified  # _carve verified both krakens as it carved them
        assert len(attempts) == n_attempts and attempts[-1][2] is None
        stops = 0
        for (cycle, _, exc), (next_cycle, _, _) in zip(attempts, attempts[1:]):
            if exc is not None and _is_index0_disconnection(exc):
                stops += 1
                assert next_cycle != cycle
        assert stops == n_stops

    def test_next_pair_links_when_the_first_pair_fails(self, monkeypatch, carves, no_finish):
        # every attempt on collection krakens 0 and 1 fails; kraken 2 links with 0
        real_link = pillar_mod._link_aligned
        first: list[tuple] = []

        def link(g, ka, kb, ell, *rest):
            pair = (ka.cycle.vertex_set(), kb.cycle.vertex_set())
            if not first:
                first.append(pair)
            if pair == first[0]:
                raise StageError("link-connect", "index 1: stub",
                                 {"index": 0, "nearest": None, "cause": "NoPathError"})
            return real_link(g, ka, kb, ell, *rest)

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

    @pytest.mark.parametrize("index, cause, per_alignment", [
        (1, "LengthNotRealizedError", 8),  # every retry is made
        (0, "NoPathError", 1),             # the first attempt ends the alignment
    ])
    def test_link_failure_reports_alignments_and_attempts(self, monkeypatch, index,
                                                          cause, per_alignment):
        def fail(g, ka, kb, ell, *rest):
            raise StageError("link-connect", f"index {index + 1}: stub",
                             {"index": index, "nearest": None, "cause": cause})

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
        assert err.value.details["alignments"] == 2 * 2 * k
        assert err.value.details["attempts"] == 2 * 2 * k * per_alignment


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
    _finish raises makes 3, and one that reaches round 1 makes 6."""
    calls = []
    real = pillar_mod._finish
    monkeypatch.setattr(pillar_mod, "_finish", lambda state: calls.append(1) or real(state))
    g = torus(30, 30)
    try:
        got = "ok" if verify_pillar(g, find_pillar(g, RunConfig(d=4), seed)).valid else "invalid"
    except StageError as exc:
        got = exc.stage
    assert got == outcome
    assert calls
    assert len(carves) == [6, 3, 6, 6, 3][seed]


def test_non_bipartite_host_stops_at_parity():
    """subdivided_prism(5, 5) is too sparse to extract from, so find_pillar
    searches it as it is; its collection holds two 5-cycle krakens, and the
    odd cycles leave their pair no parity."""
    with pytest.raises(StageError, match="parity unavailable") as err:
        find_pillar(subdivided_prism(5, 5), RunConfig(d=3), seed=0)
    assert err.value.stage == "link"


class TestLinkPairContract:
    @pytest.mark.parametrize("seed", range(5))
    def test_broken_kraken_contract_is_an_internal_error(self, monkeypatch, seed):
        # _finish guarantees every clause of the pair check; a
        # _qualifies that accepts every kraken breaks that, and the break
        # is a bug in the library, not bad input
        monkeypatch.setattr(kraken_mod, "_qualifies", lambda *args: True)
        g = planted_prism_with_noise(8, 5, 40, seed=seed)
        with pytest.raises(InternalError, match="link check.*apart"):
            find_pillar(g, RunConfig(d=4), seed=seed)

    def test_link_knobs_follow_the_linked_graph(self, monkeypatch):
        # 10 000 isolated vertices: the linked graph h is the 88-vertex
        # prism piece of a 10 088-vertex g, and linking on h starts at the
        # run's pillar_ell_min
        prism = planted_prism_with_noise(8, 5, 40, seed=0)
        g = Graph(prism.n + 10_000, prism.edges())
        cfg = RunConfig(d=4, overrides={"pillar_ell_min": 7, "separation": 1})
        calls = []
        real = pillar_mod._link_aligned

        def spy(h, ka, kb, ell, *rest):
            calls.append((h.n, ell))
            return real(h, ka, kb, ell, *rest)

        monkeypatch.setattr(pillar_mod, "_link_aligned", spy)
        try:
            find_pillar(g, cfg, seed=0)
        except StageError:
            pass
        h_n, ell = calls[0]
        assert h_n == prism.n == 88
        assert ell in (7, 8)  # the first length, raised to the pair's parity
