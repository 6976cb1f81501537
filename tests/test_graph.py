import tracemalloc
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pillarkit import generators
from pillarkit.errors import GraphParseError, PreconditionError
from pillarkit.generators import (MAX_PAIRS, cycle_graph, hypercube, path_graph, prism,
                                  random_bipartite, random_regular,
                                  subdivided_prism, subdivided_prism_rungs)
from pillarkit.expander import _max_cut_graph, greedy_max_cut_sides
import pillarkit.graph as graph_module
from pillarkit.graph import (MAX_VERTICES, Graph, _parse_lines, ball, induced_degree,
                             induced_subgraph, largest_component, load_graph,
                             parity, save_graph)

from util import (all_simple_path_lengths, random_connected_graph, ref_graph,
                  ref_random_regular, ref_subdivided_prism, to_nx)

class TestLoadGraph:
    def test_path_with_bipartition(self):
        g = load_graph("0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert g.side is not None
        # {0,2} on one side, {1} on the other
        assert g.side[0] == g.side[2] != g.side[1]

    def test_triangle_not_bipartite(self):
        g = load_graph("0 1\n1 2\n2 0")
        assert g.side is None

    def test_duplicate_edges_collapse(self):
        assert load_graph("0 1\n0 1") == load_graph("0 1")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            load_graph("0 1\n2 2")

    def test_malformed_line_numbered(self):
        with pytest.raises(GraphParseError) as err:
            load_graph("0 1\n1 x")
        assert err.value.line_no == 2

    def test_leading_zeros_and_tabs_load_as_decimal(self):
        assert load_graph("007\t2\n 0 1 \n") == load_graph("7 2\n0 1\n")

    def test_comments_and_blank_lines(self):
        g = load_graph("# header\n0 1\n\n1 2  # trailing\n")
        assert g.m == 2

    def test_isolated_vertex_line(self):
        g = load_graph("0 1\n5")
        assert g.n == 6 and g.degree(5) == 0

    def test_empty_text(self):
        g = load_graph("")
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize("text", [f"{MAX_VERTICES}", f"0 1\n2 {MAX_VERTICES}", "0 -1"])
    def test_id_out_of_range_rejected(self, text):
        # the limit itself: rejected before any row is allocated
        with pytest.raises(GraphParseError) as err:
            load_graph(text)
        assert err.value.line_no == text.count("\n") + 1


class TestRoundTrip:
    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_random_graph_round_trip(self, seed):
        g = random_connected_graph(2 + seed % 11, seed % 7, seed)
        assert load_graph(save_graph(g)) == g

    def test_isolated_vertices_survive(self):
        g = Graph(4, [(0, 2)])
        assert load_graph(save_graph(g)) == g

    def test_byte_exact(self):
        g = random_regular(30, 3, seed=1)
        assert save_graph(load_graph(save_graph(g))) == save_graph(g)


class TestBall:
    def test_path_radius_two(self):
        g = path_graph(4)
        assert ball(g, {0}, 2) == {0, 1, 2}

    def test_avoid_disconnects(self):
        g = path_graph(4)
        assert ball(g, {0}, 3, {1}) == {0}

    def test_q3_radius_three_covers(self):
        g = hypercube(3)
        for v in range(8):
            assert ball(g, {v}, 3) == set(range(8))

    def test_empty_seed(self):
        assert ball(path_graph(3), set(), 2) == set()

    def test_seed_in_avoid_rejected(self):
        with pytest.raises(PreconditionError):
            ball(path_graph(3), {0}, 1, {0})

    @given(st.integers(0, 500), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_radius(self, seed, r):
        g = random_connected_graph(3 + seed % 10, seed % 5, seed)
        avoid = {v for v in range(g.n) if v % 3 == 2 and v != 0}
        assert ball(g, {0}, r, avoid) <= ball(g, {0}, r + 1, avoid)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_stabilizes_at_reachable_set(self, seed):
        g = random_connected_graph(3 + seed % 10, seed % 5, seed)
        avoid = {v for v in range(1, g.n) if v % 4 == 1}
        full = ball(g, {0}, g.n)if 0 not in avoid else set()
        if 0 not in avoid:
            full = ball(g, {0}, g.n, avoid)
            assert ball(g, {0}, g.n + 3, avoid) == full


class TestParity:
    def test_edge(self):
        assert parity(load_graph("0 1"), 0, 1) == 1

    def test_c4_antipodal(self):
        assert parity(cycle_graph(4), 0, 2) == 0

    def test_q3_antipodal_matches_all_paths(self):
        # oracle: enumerate every simple path between antipodes
        g = hypercube(3)
        lengths = all_simple_path_lengths(g, 0, 7, 7)
        assert lengths == {3, 5, 7}          # frozen from the enumeration
        assert {l % 2 for l in lengths} == {1}
        assert parity(g, 0, 7) == 1

    def test_not_bipartite_errors(self):
        with pytest.raises(PreconditionError):
            parity(cycle_graph(3), 0, 1)

    def test_disconnected_errors(self):
        g = load_graph("0 1\n2 3")
        with pytest.raises(PreconditionError):
            parity(g, 0, 3)

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_bfs_path_parity(self, seed):
        g = random_connected_graph(3 + seed % 8, 0, seed)  # trees are bipartite
        lengths = all_simple_path_lengths(g, 0, g.n - 1, g.n)
        assert all(l % 2 == parity(g, 0, g.n - 1) for l in lengths)


class TestGenerators:
    def test_prism4_is_q3(self):
        g = prism(4)
        assert (g.n, g.m) == (8, 12)
        from util import nx_has_q3
        assert nx_has_q3(g)

    def test_subdivided_prism_identity(self):
        assert subdivided_prism(4, 1) == prism(4)

    @pytest.mark.parametrize("s", range(3, 10))
    def test_subdivided_prism_from_its_rungs(self, s):
        for ell in range(1, 7):
            assert subdivided_prism(s, ell) == ref_subdivided_prism(s, ell)

    def test_subdivided_prism_counts(self):
        g = subdivided_prism(6, 3)
        assert g.n == 6 + 6 + 6 * 2 == 24
        for rung in subdivided_prism_rungs(6, 3):
            assert len(rung) == 4  # length-3 paths

    def test_random_regular_is_regular_and_seeded(self):
        g = random_regular(100, 4, seed=9)
        assert all(g.degree(v) == 4 for v in range(100))
        assert g == random_regular(100, 4, seed=9)
        assert g != random_regular(100, 4, seed=10)

    def test_random_regular_odd_product_rejected(self):
        with pytest.raises(PreconditionError):
            random_regular(5, 3, seed=0)

    def test_random_bipartite_sides(self):
        g = random_bipartite(4, 6, 0.5, seed=3)
        for u, v in g.edges():
            assert (u < 4) != (v < 4)

    def test_path_cycle_ranges(self):
        with pytest.raises(PreconditionError):
            cycle_graph(2)
        assert path_graph(1).n == 1

    @pytest.mark.parametrize("make, args", [
        (path_graph, (MAX_VERTICES + 1,)),
        (cycle_graph, (MAX_VERTICES + 1,)),
        (hypercube, (MAX_VERTICES.bit_length(),)),  # 2^20 > 10^6 >= 2^19
        (prism, (MAX_VERTICES // 2 + 1,)),
        (subdivided_prism, (MAX_VERTICES // 4 + 1, 3)),
        (random_bipartite, (MAX_VERTICES, 1, 0.0, 0)),
        (random_regular, (MAX_VERTICES + 2, 0, 0)),
    ], ids=["path", "cycle", "hypercube", "prism", "subdivided-prism", "random-bipartite",
            "random-regular"])
    def test_more_than_max_vertices_rejected_before_allocating(self, make, args):
        """One vertex (or one dimension) past what load_graph accepts: the
        generator refuses before it builds an edge list."""
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=str(MAX_VERTICES)):
                make(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


    @pytest.mark.parametrize("make, args", [
        (random_bipartite, (MAX_VERTICES // 2, MAX_VERTICES // 2, 0.0, 0)),
        (random_bipartite, (MAX_PAIRS // 4000 + 1, 4000, 1.0, 0)),
        (random_regular, (MAX_VERTICES, 100_000, 0)),
        (random_regular, (MAX_VERTICES, 14, 0)),
    ], ids=["bipartite-1e11", "bipartite-one-row-over", "regular-d1e5", "regular-d14"])
    def test_too_much_work_rejected_before_allocating(self, make, args):
        """a*b cross pairs or n*d stubs past MAX_PAIRS: refused before any
        draw or stub list."""
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=str(MAX_PAIRS)):
                make(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_max_pairs_admits_the_largest_regular_input(self, monkeypatch):
        # rr(10^6, 12) and 3000 x 4000 pairs pass every check: the stand-ins
        # for the pairing and the draws stop each call right after them
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(generators, "_pair_stubs", reached)
        monkeypatch.setattr(generators, "random", SimpleNamespace(Random=reached))
        with pytest.raises(Reached):
            random_regular(MAX_VERTICES, 12, 0)
        with pytest.raises(Reached):
            random_bipartite(3000, 4000, 0.5, 0)
        assert 3000 * 4000 == MAX_VERTICES * 12 == MAX_PAIRS


class TestInducedDegree:
    def test_star_center(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        assert induced_degree(g, 0, {1, 2, 3}) == 3

    def test_isolated(self):
        g = Graph(3, [(0, 1)])
        assert induced_degree(g, 2, {0, 1}) == 0

    def test_q3_own_neighborhood(self):
        g = hypercube(3)
        assert induced_degree(g, 0, set(g.neighbors(0))) == 3


class TestSubgraphs:
    def test_induced_ids_follow_the_sorted_keep_set(self):
        """Vertex i of an induced subgraph is the i-th smallest kept id,
        whatever order the keep set comes in."""
        g = cycle_graph(8)
        keep = [6, 1, 0, 7, 2, 1]
        ids = sorted(set(keep))  # [0, 1, 2, 6, 7]
        h = induced_subgraph(g, keep)
        assert h.n == 5 and h.edges() == [(0, 1), (0, 4), (1, 2), (3, 4)]
        assert all(g.has_edge(ids[a], ids[b]) for a, b in h.edges())

    def test_largest_component(self):
        g = load_graph("0 1\n1 2\n3 4")
        assert largest_component(g).n == 3


# -- derived graphs against the validating constructor -------------------


@st.composite
def graph_and_keep(draw):
    """Small graphs (often disconnected, non-bipartite or with isolated
    vertices) and a keep set that is empty, complete or arbitrary."""
    n = draw(st.integers(0, 12))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          max_size=30)) if n > 1 else []
    g = Graph(n, edges)
    keep = draw(st.just(set()) | st.just(set(range(n))) | st.sets(ids, max_size=n))
    return g, keep


def _reference_induced(g: Graph, keep) -> Graph:
    """The induced subgraph built edge by edge through ``Graph.__init__``."""
    keep = sorted(keep)
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(keep), edges)


def _fields(g: Graph):
    return g.n, g._adj, g.m, g.side, g.comp


class TestRowConstructor:
    @settings(max_examples=300, deadline=None)
    @given(graph_and_keep())
    def test_induced_subgraph_matches_reference(self, case):
        g, keep = case
        assert _fields(induced_subgraph(g, keep)) == _fields(_reference_induced(g, keep))

    @settings(max_examples=300, deadline=None)
    @given(graph_and_keep())
    def test_largest_component_matches_reference(self, case):
        g, _ = case
        h = largest_component(g)
        if g.n == 0 or nx.is_connected(to_nx(g)):
            assert h is g
            return
        comps = nx.connected_components(to_nx(g))
        best = max(comps, key=lambda c: (len(c), -min(c)))
        assert _fields(h) == _fields(_reference_induced(g, best))

    @settings(max_examples=300, deadline=None)
    @given(graph_and_keep())
    def test_max_cut_graph_matches_reference(self, case):
        g, _ = case
        cut = _max_cut_graph(g)
        if g.is_bipartite():
            assert cut is g
            return
        side = greedy_max_cut_sides(g)
        ref = Graph(g.n, [(u, v) for u, v in g.edges() if side[u] != side[v]])
        assert _fields(cut) == _fields(ref)

    @pytest.mark.parametrize("g", [random_regular(2000, 12, 0), Graph(7, [(0, 1), (1, 2), (2, 0),
                                                                        (3, 4), (4, 5), (5, 3)])],
                             ids=["rr", "two-triangles-and-a-point"])
    def test_max_cut_graph_hands_in_its_coloring(self, monkeypatch, g):
        """The greedy sides and g's components are the host's: building it
        walks the host no second time."""
        def refuse(self, rows):
            raise AssertionError("the max-cut host ran Graph._adopt")

        monkeypatch.setattr(Graph, "_adopt", refuse)
        cut = _max_cut_graph(g)
        assert not g.is_bipartite() and cut.is_bipartite() and cut.comp == g.comp

    def test_outside_edges_still_validated(self):
        with pytest.raises(PreconditionError):
            Graph(3, [(1, 1)])
        with pytest.raises(PreconditionError):
            Graph(3, [(0, 3)])
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1 and g.neighbors(0) == (1,)


# -- the input path against the code it replaced -------------------------


@st.composite
def edge_lists(draw):
    """n and an edge list with duplicates in both orientations; ids are
    either valid or may also be self-loops and out-of-range ids."""
    n = draw(st.integers(0, 8))
    valid = n > 1 and draw(st.booleans())
    ids = st.integers(0, n - 1) if valid else st.integers(-1, n)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: not valid or e[0] != e[1]),
                          max_size=30))
    flips = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, draw(st.permutations(edges + [(v, u) for u, v in flips]))


def _built(build, *args):
    try:
        return _fields(build(*args))
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_graph_matches_set_row_reference(case):
    n, edges = case
    assert _built(Graph, n, edges) == _built(ref_graph, n, edges)


@pytest.mark.parametrize("n, d, seed, restarts", [
    (10, 3, 26, 14), (2000, 3, 1, 2), (200, 12, 5, 1), (2000, 12, 1, 1), (2000, 12, 0, 0),
    (20, 17, 0, 2), (30, 5, 1, 1), (60, 59, 1, 0), (600, 599, 0, 0), (10, 0, 0, 0),
])
def test_random_regular_matches_shuffle_reference(n, d, seed, restarts):
    ref, attempts = ref_random_regular(n, d, seed)
    assert attempts == restarts  # the pairing restarts after a dead end
    assert _fields(random_regular(n, d, seed)) == _fields(ref)


@settings(max_examples=200, deadline=None)
@given(graph_and_keep())
def test_save_graph_lists_sorted_edges_then_isolated_vertices(case):
    g, _ = case
    lines = [f"{u} {v}" for u, v in sorted(g.edges())]
    lines += [str(v) for v in range(g.n) if g.degree(v) == 0]
    assert save_graph(g) == "".join(line + "\n" for line in lines)


def _loaded(parse, text):
    try:
        return _fields(parse(text))
    except GraphParseError as exc:
        return exc.line_no, str(exc)


_plain_line = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(lambda e: f"{e[0]} {e[1]}")
_odd_line = st.sampled_from([
    "", "# note", "0 1 # c", "3\t4", " 4 5", "4  5", "4 5 ", "7", "0 1 2",
    "007 2", "000001 3", "0000001 3", "1234567 1", f"{MAX_VERTICES} 0",
    "١ 2", "2 ²", "1_0 2", "+2 3", "x", "6 6", "06 6", "0 1\x0b", "0 1",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_plain_line | _odd_line, max_size=12), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_load_graph_matches_line_parser(lines, newline, trailing):
    text = newline.join(lines) + (newline if trailing and lines else "")
    assert _loaded(load_graph, text) == _loaded(_parse_lines, text)


def _big_text() -> str:
    text = save_graph(random_regular(3000, 6, 0))
    assert len(text) > 64 * 1024
    return text


@pytest.mark.parametrize("bad", ["12 x", "5 5", "1 2 3", "9", "1\t2", "1 2\r", "0000001 2"])
def test_load_graph_bad_line_past_the_first_chunk(bad):
    lines = _big_text().splitlines()
    lines.insert(8000, bad)
    text = "\n".join(lines) + "\n"
    assert len("\n".join(lines[:8000])) > 64 * 1024
    assert _loaded(load_graph, text) == _loaded(_parse_lines, text)


def test_plain_text_skips_the_line_parser(monkeypatch):
    text = _big_text()
    expected = _parse_lines(text)

    def refuse(_text):
        raise AssertionError("plain text went to the line parser")

    monkeypatch.setattr(graph_module, "_parse_lines", refuse)
    assert _fields(load_graph(text)) == _fields(expected)
    assert _fields(load_graph(text.rstrip("\n"))) == _fields(expected)

    # isolated vertices are single-id lines at the end: only the chunk
    # holding them, not the plain chunks before it, goes to the line parser
    g = random_regular(3000, 6, 0)
    text = save_graph(Graph(g.n + 2, g.edges()))
    expected = _parse_lines(text)
    seen = []

    def record(tail, ends, first_line):
        seen.append((tail, first_line))
        return _parse_lines(tail, ends, first_line)

    monkeypatch.setattr(graph_module, "_parse_lines", record)
    assert _fields(load_graph(text)) == _fields(expected)
    [(tail, first_line)] = seen
    assert tail.endswith("3000\n3001\n") and text.endswith(tail)
    assert len(tail) < len(text) // 2
    assert text[:-len(tail)].count("\n") + 1 == first_line
