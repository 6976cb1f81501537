import math

import pytest
from hypothesis import given, settings, strategies as st

from pillarkit.errors import PreconditionError
from pillarkit.expander import ExpanderParams, epsilon, greedy_max_cut_sides
from pillarkit.generators import random_bipartite


class TestEpsilon:
    P = ExpanderParams(0.1, 0.2, 10)  # k = 2

    def test_zero_below_fifth(self):
        assert epsilon(self.P.k / 6, self.P) == 0.0

    def test_at_fifth(self):
        assert epsilon(self.P.k / 5, self.P) == pytest.approx(0.1 / math.log(3) ** 2)

    def test_at_k(self):
        assert epsilon(self.P.k, self.P) == pytest.approx(0.1 / math.log(15) ** 2)

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            epsilon(-1.0, self.P)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.2), st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_above_half_k(self, eps1, eps2, d):
        p = ExpanderParams(eps1, eps2, d)
        xs = [p.k / 2 * (1.02 ** i) for i in range(40)]
        vals = [epsilon(x, p) for x in xs]
        for a, b, xa, xb in zip(vals, vals[1:], xs, xs[1:]):
            assert b <= a + 1e-12
            assert xb * b >= xa * a - 1e-12


class TestParams:
    def test_valid(self):
        p = ExpanderParams(0.5, 0.2, 8)
        assert p.k == pytest.approx(1.6)

    @pytest.mark.parametrize("eps1,eps2,d", [(0.0, 0.2, 1), (1.0, 0.2, 1),
                                             (0.1, 0.0, 1), (0.1, 0.25, 1),
                                             (0.1, 0.2, 0)])
    def test_invalid(self, eps1, eps2, d):
        with pytest.raises(PreconditionError):
            ExpanderParams(eps1, eps2, d)


class TestGreedyMaxCut:
    """The greedy max-cut that gives find_pillar its bipartite host."""

    def test_greedy_cut_recovers_bipartition(self):
        g = random_bipartite(20, 20, 0.4, seed=4)
        sides = greedy_max_cut_sides(g)
        assert all(sides[u] != sides[v] for u, v in g.edges())
