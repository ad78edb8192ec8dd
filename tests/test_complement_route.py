"""Ranks and stress bases through the complement in the complete join,
against elimination.

At every draw whose blocks are unit upper triangular, the stress space of
K_{A,B} is N_A ⊗ N_B, so the rank of a subgraph G is its edge count less
its far edges (a > k and b > l) plus the rank of the products u_a ⊗ v_b of
its near non-edges on its far edges; a pure subcomplex of the complete join
of its color classes has the same formula, color by color. The elimination
of ``GenericMatrix.rank`` shares nothing with that route beyond the echelon
kernel, and stays here as its oracle, on every draw and prime, small ones
included, whether or not the input takes the route. A stress basis read
off the complement is the reverse-reduced basis the left kernel returns,
and the dense left kernel of the natural layout is its oracle.

``inject_rank`` corrupts the one rank dispatch both routes share, after it
has ranked the draw by its own route, and records that route; the other
test modules use it to reach the invariant checks behind either route.
``sheared_draws`` makes every draw fail the complement's guard without
changing any rank, which sends a graph that takes the route to elimination.
``watch_left_kernels`` records the matrices whose left kernel runs, so a
stress basis that records none was read off the complement.
"""

import itertools
import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balrig import families as fam
from balrig import rigidity
from balrig.combinat import BalancedComplex, BipartiteGraph, complete_edges
from balrig.exactla import DEFAULT_PRIME, GenericMatrix, TrialPolicy, kernel_rows, sample_theta
from balrig.rigidity import (
    _complement,
    _complement_stresses,
    _dense,
    _picks,
    _rank,
    _stresses,
    analyze,
    build_M,
    build_rigidity_matrix,
    max_rank,
    rows_independent_M,
    stress_space,
)

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def inject_rank(monkeypatch, corrupt) -> list[str]:
    """Make the rank dispatch return ``corrupt(rank)`` for the rank it
    computed, and return the routes it took, one per draw: "complement", or
    "elimination" when it built the matrix."""
    routes = []
    dispatch = rigidity._rank

    def corrupted(complement, blocks, p, build):
        built = []
        rank = dispatch(complement, blocks, p, lambda: built.append(1) or build())
        routes.append("elimination" if built else "complement")
        return corrupt(rank)

    monkeypatch.setattr(rigidity, "_rank", corrupted)
    return routes


def shear(block: list[list[int]]) -> list[list[int]]:
    """The block with row 0 added to row 1: an invertible change of the
    vertex vectors' coordinates, which keeps every rank at every prime, but
    no longer triangular. A one-row block is left as it is."""
    if len(block) < 2:
        return block
    return [block[0], [x + y for x, y in zip(block[1], block[0])], *block[2:]]


def sheared_draws(monkeypatch) -> None:
    """Shear every block the verdict calls draw."""
    draw = rigidity.sample_theta
    monkeypatch.setattr(rigidity, "sample_theta", lambda *a, **kw: list(map(shear, draw(*a, **kw))))


@st.composite
def subgraphs(draw):
    """(g, k, l, p, seed): a subgraph of K_{A,B}, sides 1-7, at k and l
    up to two past their sides."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k, l = draw(st.integers(1, n + 2)), draw(st.integers(1, m + 2))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 0.95, 1.0)))
    edges = frozenset(e for e in complete_edges(n, m) if draw(st.floats(0, 1)) < density)
    p, seed = draw(st.sampled_from(PRIMES)), draw(st.integers(0, 99))
    return BipartiteGraph(n, m, edges), k, l, p, seed


@st.composite
def subcomplexes(draw):
    """(kx, l, p, seed): a pure subcomplex of the complete join of 2-4
    color classes of 1-4 vertices, at l from 1 to 3."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    picks = list(itertools.product(*[range(1, n + 1) for n in sizes]))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    chosen = [q for q in picks if draw(st.floats(0, 1)) < density] or picks[-1:]
    kx = BalancedComplex(sizes, frozenset(frozenset(enumerate(q, start=1)) for q in chosen))
    return kx, draw(st.integers(1, 3)), draw(st.sampled_from(PRIMES)), draw(st.integers(0, 99))


def graph_complement(g, k, l, ruled=False):
    """g's complement at (k,l), whether or not g takes the route; when
    ``ruled``, as ``analyze`` and ``stress_space`` ask for it, None unless
    g takes the route."""
    return _complement((g.a_size, g.b_size), (k, l), g.edges, ruled)


def complex_complement(kx, l, ruled=False):
    """kx's complement at l, whether or not kx takes the route; when
    ``ruled``, as ``rows_independent_M`` asks for it."""
    picks = frozenset(tuple(i for _, i in sorted(f)) for f in kx.facets)
    assert picks == _picks(kx)
    return _complement(kx.color_sizes, (l,) * kx.n_colors, picks, ruled)


@settings(max_examples=300, deadline=None)
@given(subgraphs())
def test_the_graph_complement_ranks_as_elimination_does(case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    want = build_rigidity_matrix(g, k, l, theta, p).rank()
    assert graph_complement(g, k, l).rank(p, theta) == want
    routed = graph_complement(g, k, l, ruled=True)
    assert _rank(routed, theta, p, lambda: build_rigidity_matrix(g, k, l, theta, p)) == want


@settings(max_examples=200, deadline=None)
@given(subcomplexes())
def test_the_complex_complement_ranks_as_elimination_does(case):
    kx, l, p, seed = case
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    want = build_M(kx, l, theta, p).rank()
    assert complex_complement(kx, l).rank(p, theta) == want
    routed = complex_complement(kx, l, ruled=True)
    assert _rank(routed, theta, p, lambda: build_M(kx, l, theta, p)) == want


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_rows_span_the_kernel_of_the_block(p):
    # row a < m of the basis, with the unit rows below it, makes each basis
    # vector e_j - T^{-1} X e_j, which the block maps to zero
    for n, m in [(1, 1), (5, 1), (5, 2), (7, 3), (4, 4), (3, 5)]:
        (block,) = sample_theta(p, n + m, (n,), rows=(m,))
        ys = kernel_rows(p, block)
        lead = min(m, n)
        assert len(ys) == lead and all(len(y) == n - lead for y in ys)
        for j in range(n - lead):
            u = [y[j] for y in ys] + [int(i == j) for i in range(n - lead)]
            assert all(sum(x * v for x, v in zip(row, u)) % p == 0 for row in block)


@pytest.mark.parametrize("p", PRIMES)
def test_a_block_that_is_not_triangular_falls_back_and_keeps_the_rank(p):
    g = BipartiteGraph(6, 6, complete_edges(6, 6) - {(1, 1), (2, 5), (6, 1), (4, 4)})
    complement = graph_complement(g, 2, 2, ruled=True)
    assert complement is not None
    for seed in range(10):
        theta = sample_theta(p, seed, (6, 6), rows=(2, 2))
        sheared = [shear(theta[0]), theta[1]]
        assert kernel_rows(p, sheared[0]) is None and complement.rank(p, sheared) is None
        want = build_rigidity_matrix(g, 2, 2, theta, p).rank()
        built = []

        def build():
            built.append(1)
            return build_rigidity_matrix(g, 2, 2, sheared, p)

        assert _rank(complement, sheared, p, build) == want == complement.rank(p, theta)
        assert built == [1]


@pytest.fixture(scope="module")
def oracle():
    """``test_kernel_oracle``, which imports this module's helpers."""
    import test_kernel_oracle

    return test_kernel_oracle


@settings(max_examples=200, deadline=None)
@given(case=subgraphs())
def test_the_complement_reads_the_stress_basis_of_the_natural_layout(oracle, case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    natural = oracle.natural_rigidity_rows(g, k, l, theta)
    want = oracle.dense_left_kernel(natural, p, l * g.a_size + k * g.b_size)
    n = g.n_edges
    assert [_dense(w, n) for w in _complement_stresses(g, k, l, theta, p)] == want
    routed = graph_complement(g, k, l, ruled=True) is not None
    assert [_dense(w, n) for w in _stresses(routed, g, k, l, theta, p)] == want


def watch_left_kernels(monkeypatch) -> list:
    """The matrices whose left kernel the verdict calls compute."""
    kernels = []
    left_kernel = GenericMatrix.left_kernel

    def watching(self):
        kernels.append(self)
        return left_kernel(self)

    monkeypatch.setattr(GenericMatrix, "left_kernel", watching)
    return kernels


@pytest.mark.parametrize("p", PRIMES)
def test_a_sheared_draw_falls_back_to_the_left_kernel(monkeypatch, p):
    g = BipartiteGraph(6, 6, complete_edges(6, 6) - {(1, 1), (2, 5), (6, 1), (4, 4)})
    assert graph_complement(g, 2, 2, ruled=True) is not None
    kernels = watch_left_kernels(monkeypatch)
    for seed in range(10):
        theta = sample_theta(p, seed, (6, 6), rows=(2, 2))
        sheared = [theta[0], shear(theta[1])]
        assert _complement_stresses(g, 2, 2, sheared, p) is None
        matrix = build_rigidity_matrix(g, 2, 2, sheared, p)
        want = matrix.left_kernel()
        kernels.clear()
        assert [_dense(w, g.n_edges) for w in _stresses(True, g, 2, 2, sheared, p)] == want
        assert kernels == [matrix]


def test_a_zero_pivot_fails_the_guard():
    # a diagonal entry 0 mod p, or an entry before it, is not unit triangular
    assert kernel_rows(5, [[1, 2, 3], [0, 5, 4]]) is None
    assert kernel_rows(5, [[1, 2, 3], [3, 1, 4]]) is None
    # the guard reads the values as drawn: a diagonal of 2 is refused, and
    # so is an unreduced 6, though it is 1 mod 5 ...
    assert kernel_rows(5, [[2, 2, 3], [0, 1, 4]]) is None
    assert kernel_rows(5, [[6, 2, 3], [0, 1, 4]]) is None
    # ... and the draw with a 6 for a 1, the same matrix mod 5, then ranks
    # by elimination, to the rank the complement reads at the drawn form
    g = BipartiteGraph(6, 6, complete_edges(6, 6) - {(1, 1), (2, 5), (6, 1), (4, 4)})
    complement = graph_complement(g, 2, 2, ruled=True)
    for seed in range(10):
        theta = sample_theta(5, seed, (6, 6), rows=(2, 2))
        unreduced = [[[6, *theta[0][0][1:]], theta[0][1]], theta[1]]
        assert complement.rank(5, unreduced) is None
        matrix = build_rigidity_matrix(g, 2, 2, unreduced, 5)
        want = matrix.rank()
        assert _rank(complement, unreduced, 5, lambda: matrix) == want
        assert want == complement.rank(5, theta) == build_rigidity_matrix(g, 2, 2, theta, 5).rank()


def watch_layouts(monkeypatch) -> list:
    """The inputs whose layouts the verdict calls build."""
    built = []
    layout = rigidity._layout

    def building(x, *args):
        built.append(x)
        return layout(x, *args)

    monkeypatch.setattr(rigidity, "_layout", building)
    return built


def test_routed_verdicts_build_no_layout(monkeypatch):
    built = watch_layouts(monkeypatch)
    kernels = watch_left_kernels(monkeypatch)
    k88 = fam.complete_bipartite(8, 8)
    assert analyze(k88, 4, 4).rank == max_rank(k88, 4, 4) == 48
    cp6 = fam.cross_polytope_boundary(6)
    assert rows_independent_M(cp6, 1).rank == 2**6 - 1
    # a stress space reads its basis off the complement, and ranks there
    assert stress_space(k88, 4, 4, TrialPolicy(trials=3)).dim == 16
    assert built == [] and kernels == []


@pytest.mark.parametrize(
    "g, k, l",
    [
        (fam.random_quadrangulation(16, seed=3), 2, 2),  # E = max_rank
        (fam.random_tree(6, 7, seed=2), 1, 1),  # E < max_rank
    ],
)
def test_graphs_outside_the_rule_stay_on_elimination(monkeypatch, g, k, l):
    assert graph_complement(g, k, l, ruled=True) is None
    routes = inject_rank(monkeypatch, lambda rank: rank)
    analyze(g, k, l)
    assert routes == ["elimination"] * 3


def test_above_a_side_every_vertex_of_that_side_is_near(monkeypatch):
    # K_{2,2} at (3,3): no edge is far, so the rank is E = 4, above the
    # formula's 3, and no matrix is built
    g = fam.complete_bipartite(2, 2)
    complement = graph_complement(g, 3, 3, ruled=True)
    assert complement.rows == () and complement.base == 4
    # with no product to rank, the guard still runs
    theta = sample_theta(DEFAULT_PRIME, 0, (2, 2), rows=(3, 3))
    assert complement.rank(DEFAULT_PRIME, theta) == 4
    assert complement.rank(DEFAULT_PRIME, [shear(theta[0]), theta[1]]) is None
    routes = inject_rank(monkeypatch, lambda rank: rank)
    report = analyze(g, 3, 3)
    assert report.rank == 4 > report.max_rank == 3 and report.warnings
    assert routes == ["complement"] * 3


def entries(complement) -> int:
    return sum(len(columns) for columns, _ in complement.rows)


@settings(max_examples=300, deadline=None)
@given(subgraphs())
def test_the_graph_rule_counts_the_entries_it_would_list(case):
    # with a far edge, so within the sides, the route is E > max_rank
    # within E(k + l) entries, which the rule counts before it lists a product
    g, k, l, p, seed = case
    free = graph_complement(g, k, l)
    far = g.n_edges - free.base
    budget = g.n_edges * (min(k, g.a_size) + min(l, g.b_size))
    takes = not far or (g.n_edges > max_rank(g, k, l) and entries(free) <= budget)
    routed = graph_complement(g, k, l, ruled=True)
    assert (routed is not None) == takes
    assert routed is None or routed == free


@settings(max_examples=200, deadline=None)
@given(subcomplexes())
def test_the_complex_rule_counts_the_entries_it_would_list(case):
    kx, l, p, seed = case
    sizes = kx.color_sizes
    free = complex_complement(kx, l)
    far = len(kx.facets) - free.base
    near = prod(sizes) - prod(n - min(l, n) for n in sizes)
    missing = near - free.base
    budget = len(kx.facets) * sum(min(l, n) for n in sizes)
    takes = not far or (missing < far and entries(free) <= budget)
    routed = complex_complement(kx, l, ruled=True)
    assert (routed is not None) == takes
    assert routed is None or routed == free


def test_a_half_dense_graph_whose_complement_outweighs_its_matrix_stays_on_elimination():
    # more edges than max_rank, but the near non-edges' products hold more
    # entries than the rigidity matrix's E(k + l)
    rng = random.Random(1)
    pairs = sorted(complete_edges(24, 30))
    g = BipartiteGraph(24, 30, frozenset(rng.sample(pairs, 360)))
    assert g.n_edges > max_rank(g, 4, 4)
    entries = sum(len(columns) for columns, _ in graph_complement(g, 4, 4).rows)
    assert entries == 3306 > g.n_edges * 8 and graph_complement(g, 4, 4, ruled=True) is None


@settings(max_examples=100, deadline=None)
@given(subgraphs())
def test_a_graph_with_no_far_edge_is_stress_free(case):
    # no edge beyond the first k A- and l B-vertices: the complement meets
    # no far edge, so the rank is the edge count at every guarded draw
    g, k, l, p, seed = case
    near = frozenset((a, b) for a, b in g.edges if a <= k or b <= l)
    g = BipartiteGraph(g.a_size, g.b_size, near)
    complement = graph_complement(g, k, l)
    assert complement.rows == () and complement.base == g.n_edges
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    assert build_rigidity_matrix(g, k, l, theta, p).rank() == g.n_edges


@settings(max_examples=100, deadline=None)
@given(subcomplexes())
def test_a_complex_with_no_far_facet_has_independent_rows(case):
    kx, l, p, seed = case
    near = [f for f in kx.facets if any(i <= l for _, i in f)]
    assume(near)
    kx = BalancedComplex(kx.color_sizes, near)
    complement = complex_complement(kx, l, ruled=True)
    assert complement is not None and complement.rows == () and complement.base == len(kx.facets)
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    assert build_M(kx, l, theta, p).rank() == len(kx.facets)


def test_the_cross_polytope_ranks_in_closed_form():
    # the cross-polytope is the complete join of 2-vertex classes: at l = 1
    # it has one far facet and no near non-facet
    for d in range(2, 9):
        complement = complex_complement(fam.cross_polytope_boundary(d), 1, ruled=True)
        assert complement.rows == () and complement.base == 2**d - 1


def test_the_golden_corpus_takes_the_route():
    from test_golden import complement_complexes, complement_graphs

    assert all(graph_complement(g, k, l, ruled=True) for g, k, l in complement_graphs())
    routed = [complex_complement(kx, l, ruled=True) for kx, l in complement_complexes()]
    assert sum(complement is not None for complement in routed) == 17
