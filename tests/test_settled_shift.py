"""Settled shift components against the dense candidate expansion.

A color component whose faces are down-closed selects exactly its faces on
unit upper triangular blocks, so the shifting trial settles it without
building a candidate row. These tests hold the trial to the dense greedy of
``test_shift_oracle`` on inputs made mostly of down-sets, check that a
settled component inserts no row, and inject blocks that break the premise
(one nonzero entry below the diagonal, or a zero on it) to see the trial
fall back to the greedy and still match the oracle.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balrig import exactla, shifting
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    complete_edges,
    maximal_faces,
)
from balrig.errors import BalrigError, InvariantError
from balrig.exactla import DEFAULT_PRIME, sample_theta
from balrig.shifting import _edge_trial, _face_trial
from test_shift_oracle import dense_shift_edges, dense_shift_faces, merged_order

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def down_closed(picks) -> bool:
    """Whether every pick below one of ``picks`` in every coordinate is one,
    checked against all smaller picks, not by the one-step rule."""
    return all(
        smaller in picks
        for pick in picks
        for smaller in itertools.product(*[range(1, v + 1) for v in pick])
    )


def components(k: BalancedComplex) -> dict[tuple, set]:
    """k's nonempty faces as picks, grouped by color support."""
    out: dict[tuple, set] = {}
    for f in k.face_set.closure:
        if f:
            t, pick = zip(*sorted(f))
            out.setdefault(t, set()).add(pick)
    return out


@st.composite
def down_set_heavy_complexes(draw):
    """(complex, order): the union of a few down-sets, each the picks below
    one random pick of a random color set, plus a few stray picks, with the
    interleaved or a shuffled order."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    colors = list(range(1, len(sizes) + 1))
    color_sets = st.lists(st.sampled_from(colors), min_size=1, unique=True).map(sorted)

    def random_pick(t):
        return tuple(draw(st.integers(1, sizes[c - 1])) for c in t)

    faces = set()
    for _ in range(draw(st.integers(1, 3))):
        t = draw(color_sets)
        below = itertools.product(*[range(1, v + 1) for v in random_pick(t)])
        faces.update(frozenset(zip(t, pick)) for pick in below)
    for _ in range(draw(st.integers(0, 2))):
        t = draw(color_sets)
        faces.add(frozenset(zip(t, random_pick(t))))
    k = BalancedComplex(sizes, maximal_faces(faces))
    if draw(st.booleans()):
        order = VertexOrder.interleaved_complex(sizes)
    else:
        order = draw(merged_order(tuple(enumerate(sizes, start=1))))
    return k, order


@st.composite
def shifted_heavy_graphs(draw):
    """(graph, order): a staircase of edges, down-closed, plus at most one
    stray edge, with the interleaved, an admissible or a shuffled order."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    heights = sorted(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)), reverse=True)
    edges = {(i, j) for i, h in enumerate(heights, start=1) for j in range(1, h + 1)}
    if draw(st.booleans()):
        edges.add((draw(st.integers(1, n)), draw(st.integers(1, m))))
    kind = draw(st.sampled_from(("interleaved", "admissible", "shuffled")))
    if kind == "interleaved":
        order = VertexOrder.interleaved_graph(n, m)
    elif kind == "admissible":
        order = VertexOrder.admissible_graph(n, m, draw(st.integers(0, n)), draw(st.integers(0, m)))
    else:
        order = draw(merged_order((("A", n), ("B", m))))
    return BipartiteGraph(n, m, frozenset(edges)), order


@settings(max_examples=300, deadline=None)
@given(down_set_heavy_complexes(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_face_trial_on_down_sets_matches_the_dense_oracle(case, p, seed):
    k, order = case
    blocks = sample_theta(p, seed, k.color_sizes)
    assert _face_trial(k, order)(p, seed) == dense_shift_faces(k, order, p, blocks)


@settings(max_examples=300, deadline=None)
@given(shifted_heavy_graphs(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_edge_trial_on_shifted_graphs_matches_the_dense_oracle(case, p, seed):
    g, order = case
    blocks = sample_theta(p, seed, (g.a_size, g.b_size))
    assert _edge_trial(g, order)(p, seed) == dense_shift_edges(g, order, p, blocks)


@settings(max_examples=100, deadline=None)
@given(down_set_heavy_complexes(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_a_settled_component_inserts_no_row(case, p, seed):
    # every offered candidate belongs to a component that is not
    # down-closed, and each offer inserts one row
    k, order = case
    offered, inserted = [], []
    offer, insert = exactla.GreedyBasis.offer, exactla.Echelon.insert

    def watching_offer(self, tag, row):
        offered.append(tag)
        return offer(self, tag, row)

    def watching_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    with mock.patch.object(exactla.GreedyBasis, "offer", watching_offer), \
            mock.patch.object(exactla.Echelon, "insert", watching_insert):
        _face_trial(k, order)(p, seed)
    unsettled = {t for t, picks in components(k).items() if not down_closed(picks)}
    assert {tuple(sorted(c for c, _ in tag)) for tag in offered} <= unsettled
    assert len(inserted) == len(offered)


def test_only_the_component_that_is_not_down_closed_eliminates():
    # two vertices of each of two colors, and the edges 11' and 22': both
    # colors' vertex sets are down-closed, the edges are not
    k = BalancedComplex(
        (2, 2),
        frozenset({frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)})}),
    )
    order = VertexOrder.interleaved_complex((2, 2))
    offered = []
    offer = exactla.GreedyBasis.offer

    def watching_offer(self, tag, row):
        offered.append(tag)
        return offer(self, tag, row)

    with mock.patch.object(exactla.GreedyBasis, "offer", watching_offer):
        selected = _face_trial(k, order)(DEFAULT_PRIME, 0)
    assert offered and all(len(tag) == 2 for tag in offered)
    blocks = sample_theta(DEFAULT_PRIME, 0, (2, 2))
    assert selected == dense_shift_faces(k, order, DEFAULT_PRIME, blocks)


def outcome(run):
    """What ``run()`` returns, or the error class it raises."""
    try:
        return run()
    except BalrigError:
        return BalrigError


@st.composite
def injected_draws(draw):
    """(complex, order, p, blocks): the complex whose facets are the picks
    below one pick, so that every component is down-closed, and a draw with
    one entry changed inside the leading rows and columns of a color, up to
    its largest vertex: a nonzero below the diagonal, or a zero on it."""
    sizes = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    c = draw(st.integers(1, len(sizes)))
    tops = [draw(st.integers(2 if d == c else 1, sizes[d - 1])) for d in range(1, len(sizes) + 1)]
    picks = itertools.product(*[range(1, top + 1) for top in tops])
    k = BalancedComplex(sizes, frozenset(frozenset(enumerate(pick, start=1)) for pick in picks))
    assert all(down_closed(picks) for picks in components(k).values())
    order = draw(merged_order(tuple(enumerate(sizes, start=1))))
    p = draw(st.sampled_from(PRIMES))
    blocks = sample_theta(p, draw(st.integers(0, 10**6)), sizes)
    r = draw(st.integers(1, tops[c - 1] - 1))
    if draw(st.booleans()):
        blocks[c - 1][r][draw(st.integers(0, r - 1))] = draw(st.integers(1, min(p - 1, 10**6)))
    else:
        blocks[c - 1][r][r] = 0
    return k, order, p, blocks


@settings(max_examples=300, deadline=None)
@given(injected_draws())
@example(
    (
        BalancedComplex((2,), frozenset({frozenset({(1, 2)})})),
        VertexOrder.interleaved_complex((2,)),
        2,
        [[[1, 1], [1, 1]]],
    )
)
def test_a_block_that_fails_the_guard_falls_back_to_the_oracle(case):
    k, order, p, blocks = case
    inserted = []
    insert = exactla.Echelon.insert

    def watching_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    with mock.patch.object(shifting, "sample_theta", lambda p, seed, sizes: blocks), \
            mock.patch.object(exactla.Echelon, "insert", watching_insert):
        got = outcome(lambda: _face_trial(k, order)(p, 0))
    assert inserted
    assert got == outcome(lambda: dense_shift_faces(k, order, p, blocks))


def test_an_entry_below_the_diagonal_can_break_the_span():
    # at p = 5 the block [[1, 2], [3, 1]] is singular: settling the path
    # 11', 21' would claim both edges, the greedy finds the span broken
    g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 1)}))
    order = VertexOrder.interleaved_graph(2, 2)
    blocks = [[[1, 2], [3, 1]], [[1, 4], [0, 1]]]
    assert len(dense_shift_edges(g, order, 5, blocks)) < g.n_edges
    with mock.patch.object(shifting, "sample_theta", lambda p, seed, sizes: blocks):
        with pytest.raises(InvariantError):
            _edge_trial(g, order)(5, 0)


def settles(g: BipartiteGraph, blocks) -> bool:
    """Whether the greedy trial settles g, down-closed, on the injected
    blocks: it inserts no candidate row, where the greedy would."""
    inserted = []
    insert = exactla.Echelon.insert

    def watching_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    order = VertexOrder.interleaved_graph(g.a_size, g.b_size)
    with mock.patch.object(shifting, "sample_theta", lambda p, seed, sizes: blocks), \
            mock.patch.object(exactla.Echelon, "insert", watching_insert):
        outcome(lambda: _edge_trial(g, order)(5, 0))
    return not inserted


def test_the_triangular_extent_stops_at_the_first_failing_row():
    # a component settles on the leading rows of each block that pass
    # ``exactla.unit_row``, up to the first that fails (``unit_extent``),
    # so K_{m,4} settles
    # on a first block with m such rows and not on one with fewer; the
    # rule reads the values as drawn, so a diagonal of 2 fails, and so
    # does an unreduced 6, though it is 1 mod 5
    (tri, other) = sample_theta(5, 3, (4, 4))
    below = [row[:] for row in tri]
    below[2][1] = 7
    flat = [row[:] for row in tri]
    flat[3][3] = 0
    doubled = [row[:] for row in tri]
    doubled[1][1] = 2
    unreduced = [row[:] for row in tri]
    unreduced[3][3] = 6
    for block, extent in [(tri, 4), (below, 2), (flat, 3), (doubled, 1), (unreduced, 3)]:
        passing = [exactla.unit_row(row, r) for r, row in enumerate(block)]
        assert exactla.unit_extent(block) == [*passing, False].index(False) == extent
        for m in range(1, 5):
            g = BipartiteGraph(4, 4, complete_edges(m, 4))
            assert settles(g, [block, other]) == (m <= extent)
