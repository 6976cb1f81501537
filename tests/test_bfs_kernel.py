"""Every search built on ``graph.bfs_layers`` against a slow FIFO-queue
reference from ``util``: same results, and where order is visible, same
order.  The graphs are small, often disconnected and often not bipartite.
The kraken shortcut round is checked against its first version on tori,
the one-search separation rule against pairwise set distances, the cycle
search against its version with a depth map, and the source against
``graph.py``'s list of walks off the kernel."""

import ast
import copy
import random
import re
from itertools import combinations
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings, strategies as st

import pillarkit
from pillarkit import graph as graph_mod
from pillarkit import kraken as kraken_mod
from pillarkit.config import RunConfig
from pillarkit.errors import PreconditionError, StageError
from pillarkit.expander import greedy_max_cut_sides
from pillarkit.generators import random_regular
from pillarkit.graph import (Graph, Path, ball, bfs_layers, distances_from, set_distance,
                             shortest_set_path)
from pillarkit.kraken import _bfs_prefix, robust_kraken
from pillarkit.pillar import _alt_route, find_pillar
from pillarkit.primitives import Expansion, restrict_and_trim, trim_expansion

from util import (planted_prism_with_noise, ref_alt_route, ref_bfs_layers, ref_distances_from,
                  ref_greedy_max_cut_sides, ref_leg_growth, ref_set_distance, ref_shortcut_round,
                  ref_shortest_cycle_from, ref_shortest_set_path, torus)


@st.composite
def search_case(draw):
    """A graph, a source list (repeats allowed), and target, avoid and
    within sets drawn independently, plus a cap that may be None or below 0."""
    n = draw(st.integers(1, 16))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    subset = st.sets(ids, max_size=n).map(frozenset)
    return (Graph(n, edges), draw(st.lists(ids, min_size=1, max_size=4)), draw(subset),
            draw(subset), draw(subset), draw(st.none() | st.integers(-1, n)))


def _outside(g: Graph, keep) -> frozenset[int]:
    return frozenset(range(g.n)) - keep


def _avoid_within(g: Graph, avoid, within, sources) -> frozenset[int]:
    """What a search in g minus avoid, inside within, never steps onto or
    starts from: sources outside within are still used as given."""
    return avoid | (_outside(g, within) - set(sources))


@settings(max_examples=250, deadline=None)
@given(search_case())
def test_stop_cuts_the_full_layers_just_after_the_first_hit(case):
    g, sources, targets, avoid, within, _ = case
    full, ref_parents = ref_bfs_layers(g, sources, avoid | _outside(g, within))
    hits = [(d, i) for d, layer in enumerate(full) if d for i, w in enumerate(layer) if w in targets]
    want = full[:hits[0][0]] + [full[hits[0][0]][:hits[0][1] + 1]] if hits else full
    parents: dict = {}
    assert list(bfs_layers(g, sources, avoid, within, parents, stop=targets)) == want
    assert list(parents.items()) == [(w, ref_parents[w]) for layer in want for w in layer]


# 0 - 1 - 2 - 3, and 0 - 4 - 5 - 3: the first target BFS meets ends the walk
_TWO_ROUTES = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)])


def test_a_source_in_stop_is_no_hit():
    assert list(bfs_layers(_TWO_ROUTES, [0, 2], stop={0, 2, 4})) == [[0, 2], [1, 4]]
    assert shortest_set_path(_TWO_ROUTES, [0], {0, 3}) == Path((0,))


def test_a_hit_layer_with_several_targets_ends_at_the_first_discovered():
    parents: dict = {}
    assert list(bfs_layers(_TWO_ROUTES, [0], stop={5, 2}, parents=parents)) == [[0], [1, 4], [2]]
    assert parents == {0: None, 1: 0, 4: 0, 2: 1}
    assert shortest_set_path(_TWO_ROUTES, [0], {5, 2}) == Path((0, 1, 2))
    assert shortest_set_path(_TWO_ROUTES, [0], {5, 2}, within={0, 4, 5}) == Path((0, 4, 5))
    assert set_distance(_TWO_ROUTES, [0], {5, 2}, avoid={1}) == 2


@pytest.mark.parametrize("cap, found", [(3, True), (2, False)])
def test_cap_at_the_hit_depth_still_finds_it(cap, found):
    assert (shortest_set_path(_TWO_ROUTES, [0], {3}, cap=cap) == Path((0, 1, 2, 3))) is found
    assert set_distance(_TWO_ROUTES, [0], {3}, cap=cap) == (3 if found else None)
    # the other route from 0 to 1 has length 5: its last step is onto b
    route = _alt_route(_TWO_ROUTES, 0, 1, {0, 1}, cap + 2)
    assert (route == Path((0, 4, 5, 3, 2, 1))) is found


@settings(max_examples=250, deadline=None)
@given(search_case())
def test_distances_from_same_dict_same_order(case):
    g, sources, _, avoid, within, _ = case
    got = distances_from(g, sources, avoid)
    assert list(got.items()) == list(ref_distances_from(g, sources, avoid).items())
    got = distances_from(g, sources, avoid, within=within)
    ref = ref_distances_from(g, sources, _avoid_within(g, avoid, within, sources))
    assert list(got.items()) == list(ref.items())


@settings(max_examples=250, deadline=None)
@given(search_case())
def test_set_distance(case):
    g, sources, targets, avoid, _, cap = case
    assert set_distance(g, sources, targets, avoid, cap) == ref_set_distance(g, sources, targets, avoid, cap)


@settings(max_examples=250, deadline=None)
@given(search_case())
def test_shortest_set_path_same_path(case):
    g, sources, targets, avoid, within, cap = case
    assert shortest_set_path(g, sources, targets, avoid, cap) == \
        ref_shortest_set_path(g, sources, targets, avoid, cap)
    assert shortest_set_path(g, sources, targets, avoid, cap, within=within) == \
        ref_shortest_set_path(g, sources, targets, _avoid_within(g, avoid, within, sources), cap)


@settings(max_examples=250, deadline=None)
@given(search_case())
def test_path_within_is_a_path_avoiding_the_outside(case):
    g, sources, targets, _, within, _ = case
    s = sources[0]
    assert shortest_set_path(g, [s], targets, within=within) == \
        ref_shortest_set_path(g, [s], targets, _outside(g, within) - {s})


@settings(max_examples=250, deadline=None)
@given(search_case(), st.integers(1, 6))
def test_leg_growth_same_members_and_radius(case, size):
    g, sources, _, avoid, within, cap = case
    start, radius = sources[0], g.n if cap is None else max(cap, 0)
    members, depth = _bfs_prefix(g, start, size, radius, avoid=avoid, within=within)
    assert members == ref_leg_growth(g, start, size, radius, avoid | _outside(g, within))
    if len(members) == size:
        inside = ref_distances_from(g, [start], _outside(g, frozenset(members)))
        assert depth == max(inside.values())


@settings(max_examples=250, deadline=None)
@given(search_case(), st.integers(0, 4), st.integers(1, 16))
def test_trim_and_restrict_same_members(case, r, d_target):
    g, sources, _, avoid, _, _ = case
    center = sources[0]
    members = frozenset(ref_distances_from(g, [center], cap=r))
    e = Expansion(center, members, r)
    order = list(ref_distances_from(g, [center], _outside(g, members)))
    if d_target <= e.size:
        assert trim_expansion(g, e, d_target).members == frozenset(order[:d_target])
    got = restrict_and_trim(g, e, d_target, avoid)
    dist = {} if center in avoid else ref_distances_from(g, [center], _outside(g, members - avoid))
    if len(dist) < d_target:
        assert got is None
    else:
        kept = sorted(dist, key=lambda v: (dist[v], v))[:d_target]
        assert (got.members, got.radius) == (frozenset(kept), max(dist[v] for v in kept))


def test_restrict_keeps_the_cut_layer_in_id_order():
    # 0's second layer is found as [3, 2] (3 through 1) but kept as [2, 3]
    g = Graph(6, [(0, 1), (0, 5), (1, 3), (2, 5), (2, 4)])
    e = Expansion(0, frozenset(range(6)), 3)
    got = restrict_and_trim(g, e, 4, ())
    assert (got.members, got.radius) == ({0, 1, 5, 2}, 2)
    got = restrict_and_trim(g, e, 3, {5})
    assert (got.members, got.radius) == ({0, 1, 3}, 2)
    assert restrict_and_trim(g, e, 5, {5}) is None


@pytest.mark.parametrize("d_target", [0, -1])
def test_restrict_refuses_an_empty_target(d_target):
    e = Expansion(0, frozenset({0, 1}), 1)
    with pytest.raises(PreconditionError):
        restrict_and_trim(Graph(2, [(0, 1)]), e, d_target, ())


@settings(max_examples=250, deadline=None)
@given(search_case(), st.integers(0, 8))
def test_alt_route_same_path(case, max_len):
    g, _, _, avoid, _, _ = case
    edges = g.edges()
    if not edges:
        return
    a, b = edges[len(avoid) % len(edges)]
    blocked = set(avoid) | {a, b}
    assert _alt_route(g, a, b, blocked, max_len) == ref_alt_route(g, a, b, blocked, max_len)


@settings(max_examples=200, deadline=None)
@given(search_case())
def test_max_cut_sides_follow_bfs_order(case):
    g = case[0]
    order, seen = [], set()
    for root in range(g.n):
        if root not in seen:
            layer = list(ref_distances_from(g, [root]))
            order += layer
            seen.update(layer)
    assert greedy_max_cut_sides(g) == ref_greedy_max_cut_sides(g, order)


# rr, torus and planted hosts for the one-search separation rule
_SEPARATION_HOSTS = [random_regular(60, 3, 0), random_regular(200, 12, 1), torus(8, 8),
                     planted_prism_with_noise(8, 5, 40, seed=0)]


def _separation_cases(count: int):
    """Seeded cases on each host: up to 5 sets of 1 or 2 ids and a high-degree
    set L of up to 4, all drawn from the ball of radius 3 about a random vertex
    (so they lie a few steps apart, and some overlap) or from every vertex,
    and a separation of 1 to 5."""
    rng = random.Random(0)
    for _ in range(count):
        g = rng.choice(_SEPARATION_HOSTS)
        ids = rng.choice([sorted(ball(g, [rng.randrange(g.n)], 3)), range(g.n)])
        sets = [frozenset(rng.sample(ids, rng.randint(1, 2))) for _ in range(rng.randint(0, 5))]
        yield g, sets, frozenset(rng.sample(ids, rng.randint(0, 4))), rng.randint(1, 5)


def test_one_separation_search_is_the_least_pairwise_gap():
    seen = set()
    for g, sets, high, separation in _separation_cases(3000):
        gaps = [d for a, b in combinations(sets, 2)
                if (d := ref_set_distance(g, a, b, avoid=high, cap=separation - 1)) is not None]
        want = min(gaps, default=None)  # every gap here is under separation
        assert kraken_mod._under_separation(g, sets, high, separation) == want
        seen.add((separation, want))
    # every gap under every separation, and none, came up
    assert seen == {(sep, gap) for sep in range(1, 6) for gap in [None, *range(sep)]}


def test_cycle_search_same_cycle_as_with_depths(monkeypatch):
    """The cycle search against its version with a depth map: the carves of
    ten planted searches, then random starts and dead sets on rr(2000, 3)
    and rr(2000, 12)."""
    cases = []
    real = kraken_mod._shortest_cycle_from
    monkeypatch.setattr(kraken_mod, "_shortest_cycle_from",
                        lambda *args: cases.append(args) or real(*args))
    cfg = RunConfig(d=4)
    cfg.overrides["separation"] = 1
    for seed in range(10):
        find_pillar(planted_prism_with_noise(8, 5, 40, seed=seed), cfg, seed)
    monkeypatch.undo()
    planted = len(cases)
    rng = random.Random(0)
    for g in (random_regular(2000, 3, 0), random_regular(2000, 12, 0)):
        for _ in range(300):
            dead = frozenset(rng.sample(range(g.n), rng.choice([0, 20, 200, 800])))
            start = rng.choice([v for v in range(g.n) if v not in dead])
            cases.append((g, start, dead))
    assert planted >= 400 and len(cases) >= 1000
    found = 0
    for g, start, dead in cases:
        cycle = real(g, start, dead)
        assert cycle == ref_shortest_cycle_from(g, start, dead)
        found += cycle is not None
    assert found >= 900


# robust_kraken's overrides on tori; {anchor_count 2, leg_size 4} makes rewrites at every side
_SHORTCUT_OVERRIDES = [{}, {"anchor_count": 4, "leg_size": 3, "separation": 2}, {"leg_size": 3},
                       {"anchor_count": 2, "leg_size": 4}, {"separation": 3, "leg_size": 3},
                       {"ell0": 5, "leg_size": 3}]


def test_shortcut_round_same_rewrite(monkeypatch):
    """Each state robust_kraken hands the shortcut round, copied twice: the
    round and its reference return the same answer and leave the same links."""
    real = kraken_mod._shortcut_round
    answers = []

    def both(state):
        ours, ref = (copy.deepcopy(state, {id(state.graph): state.graph}) for _ in range(2))
        answers.append(real(ours))
        assert ref_shortcut_round(ref) == answers[-1]
        assert ours.links == ref.links
        return real(state)

    monkeypatch.setattr(kraken_mod, "_shortcut_round", both)
    for a in (20, 24, 26, 30):
        g = torus(a, a)
        for overrides in _SHORTCUT_OVERRIDES:
            for seed in range(8):
                try:
                    robust_kraken(g, frozenset(), RunConfig(d=4, overrides=dict(overrides)),
                                  seed=seed, q3_free=True)
                except StageError:
                    pass
    assert answers.count(True) >= 10


def _marked_walks(path: FilePath) -> set[str]:
    """The functions of a module with a "Not on bfs_layers" comment, by
    qualified name, prefixed with the module's name outside graph.py."""
    text = path.read_text(encoding="utf-8")
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    spans.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(text), "" if path.stem == "graph" else f"{path.stem}.")
    return {max((s for s in spans if s[0] <= no <= s[1]), key=lambda s: s[0])[2]
            for no, line in enumerate(text.splitlines(), 1)
            if line.lstrip().startswith("# Not on bfs_layers")}


def test_walks_off_the_kernel_are_the_ones_graph_lists():
    """Every walk that does not run on bfs_layers says why in a comment, and
    graph.py's docstring names exactly those walks."""
    doc = graph_mod.__doc__
    listed = set(re.findall(r"``([\w.]+)``", doc[doc.index("walks stay separate"):]))
    marked = set().union(*map(_marked_walks, FilePath(pillarkit.__file__).parent.glob("*.py")))
    assert listed == marked == {"Graph._adopt", "kraken._shortest_cycle_from",
                                "expander._sample_connected", "expander._peel"}
