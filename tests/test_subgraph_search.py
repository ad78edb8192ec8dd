"""The subgraph searches against the plain search over every subset.

``contains_complete_bipartite`` searches the subsets of one side's vertices of
large enough degree for enough common neighbours, and ``contains_join`` one m-subset per color; both refuse a
search of more than ``SUBSET_SEARCH_CAP`` subsets before it starts
(``test_caps.py``). The double loop over side subsets and the loop over
every color pick that they replace stay here as the oracles.
"""

import itertools
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from balrig.combinat import BalancedComplex, BipartiteGraph, complete_edges, is_face
from balrig.shifting import SUBSET_SEARCH_CAP, contains_complete_bipartite, contains_join


def random_graph(rng: random.Random, n: int, m: int, density: float) -> BipartiteGraph:
    """Each edge of K_{n,m} with probability ``density``."""
    edges = frozenset(e for e in sorted(complete_edges(n, m)) if rng.random() < density)
    return BipartiteGraph(n, m, edges)


def double_loop_complete_bipartite(g: BipartiteGraph, r: int, s: int) -> bool:
    """Whether some r-subset of A and s-subset of B span a complete graph,
    by trying every pair of subsets."""
    for asub in itertools.combinations(range(1, g.a_size + 1), r):
        for bsub in itertools.combinations(range(1, g.b_size + 1), s):
            if all((i, j) in g.edges for i in asub for j in bsub):
                return True
    return False


def every_pick_join(k: BalancedComplex, m: int) -> bool:
    """Whether some m vertices per color span a join in k, by trying every
    pick."""
    colors = range(1, k.n_colors + 1)
    choices = [list(itertools.combinations(range(1, n + 1), m)) for n in k.color_sizes]
    return any(
        all(is_face(k, frozenset(zip(colors, combo))) for combo in itertools.product(*picks))
        for picks in itertools.product(*choices)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(0.2, 1.0),
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_the_side_search_agrees_with_the_double_loop(n, m, density, seed, r, s):
    rng = random.Random(seed)
    g = random_graph(rng, n, m, density)
    want = r <= n and s <= m and double_loop_complete_bipartite(g, r, s)
    assert contains_complete_bipartite(g, r, s) == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.floats(0.2, 1.0),
    st.integers(0, 10**6),
    st.integers(1, 3),
)
def test_the_join_search_agrees_with_every_pick(sizes, density, seed, m):
    rng = random.Random(seed)
    picks = list(itertools.product(*[range(1, n + 1) for n in sizes]))
    chosen = [pick for pick in picks if rng.random() < density] or picks[:1]
    k = BalancedComplex(tuple(sizes), frozenset(frozenset(enumerate(p, 1)) for p in chosen))
    want = all(n >= m for n in sizes) and every_pick_join(k, m)
    assert contains_join(k, m) == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(0.2, 1.0),
    st.integers(0, 10**6),
    st.integers(4, 5),
    st.integers(4, 5),
)
def test_vertices_of_too_small_degree_are_not_searched(n, m, density, seed, r, s):
    # a partial matching on 100 more vertices per side gives them degree at
    # most 1, so no K_{r,s} meets them and the answer is the small graph's,
    # though either side has more r- or s-subsets than the cap allows
    rng = random.Random(seed)
    g = random_graph(rng, n, m, density)
    matching = frozenset((n + i, m + i) for i in range(1, 101) if rng.random() < 0.5)
    padded = BipartiteGraph(n + 100, m + 100, g.edges | matching)
    assert math.comb(100, 4) > SUBSET_SEARCH_CAP
    want = r <= n and s <= m and double_loop_complete_bipartite(g, r, s)
    assert contains_complete_bipartite(padded, r, s) == want


def test_a_search_at_the_cap_runs_and_a_shifted_input_needs_none():
    # vertex i of A misses the vertices j of B with j - i = 0, ..., 10 mod
    # 22, so every vertex has degree 11 and no two vertices of a side share
    # their neighbours: at r = s = 11 all C(22, 11) = 705,432 subsets of a
    # side, under the cap, are searched and none has 11 common neighbours.
    # K_{23,23} is shifted, so its answer is one edge membership.
    assert math.comb(22, 11) <= SUBSET_SEARCH_CAP < math.comb(23, 12)
    band = frozenset(
        (i, j) for i in range(1, 23) for j in range(1, 23) if (j - i) % 22 >= 11
    )
    g = BipartiteGraph(22, 22, band)
    assert not contains_complete_bipartite(g, 11, 11)
    assert contains_complete_bipartite(g, 1, 11)
    assert contains_complete_bipartite(BipartiteGraph(23, 23, complete_edges(23, 23)), 12, 12)
    # the fewer subsets are searched: one vertex of B has degree 12 or more,
    # so its 1-subsets, not C(22, 12) subsets of A
    star = BipartiteGraph(23, 23, frozenset((i, 1) for i in range(1, 24)) - {(1, 1)})
    assert contains_complete_bipartite(star, 12, 1)
    assert not contains_complete_bipartite(star, 12, 2)
