"""The route of a graph shift against the facts it rests on.

``shift_graph`` settles a graph that is already shifted with the greedy
trial, which builds no row for it, and walks every other graph. These
properties hold the route to ``check_shifted``, the route's premise to the
settle premise of ``_trial`` (``_down_closed_tops``), the settled route to
the identity at small and large primes, and the walk to the greedy trial,
its oracle, at the default prime.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balrig import exactla, shifting
from balrig.combinat import BipartiteGraph, VertexOrder, complete_edges
from balrig.exactla import DEFAULT_PRIME, TrialPolicy
from balrig.shifting import (
    _down_closed_tops,
    _edge_trial,
    _graph_trial,
    check_shifted,
    shift_graph,
)
from test_shift_oracle import merged_order


@st.composite
def routed_graphs(draw):
    """(graph, order) on sides of at most 6 vertices: random edge sets,
    staircases (shifted), and staircases with one edge added or removed,
    with the interleaved or a shuffled order that extends the natural one
    on each side."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        pairs = sorted(complete_edges(n, m))
        edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    else:
        heights = sorted(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)), reverse=True)
        edges = {(i, j) for i, h in enumerate(heights, start=1) for j in range(1, h + 1)}
        edit = draw(st.sampled_from(("none", "add", "remove")))
        if edit == "add":
            edges.add((draw(st.integers(1, n)), draw(st.integers(1, m))))
        elif edit == "remove" and edges:
            edges.discard(draw(st.sampled_from(sorted(edges))))
    if draw(st.booleans()):
        order = VertexOrder.interleaved_graph(n, m)
    else:
        order = draw(merged_order((("A", n), ("B", m))))
    return BipartiteGraph(n, m, frozenset(edges)), order


@settings(max_examples=300, deadline=None)
@given(routed_graphs())
def test_the_route_is_the_greedy_exactly_on_shifted_graphs(case):
    g, order = case
    routes = []
    with mock.patch.object(shifting, "_edge_trial", lambda *a: routes.append("greedy")), \
            mock.patch.object(shifting, "_prefix_trial", lambda *a: routes.append("walk")):
        _graph_trial(g, order)
    assert routes == ["greedy" if check_shifted(g) else "walk"]


@settings(max_examples=300, deadline=None)
@given(routed_graphs())
def test_the_route_and_the_settle_premise_are_one_rule(case):
    g, _ = case
    if g.edges:
        assert check_shifted(g) == (_down_closed_tops(g.edges) is not None)


@settings(max_examples=200, deadline=None)
@given(routed_graphs(), st.sampled_from((2, 3, 101, DEFAULT_PRIME)), st.integers(0, 10**6))
def test_a_routed_shifted_graph_is_its_own_shift_and_inserts_no_row(case, p, seed):
    g, order = case
    assume(check_shifted(g))
    inserted = []
    insert = exactla.Echelon.insert

    def watching_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    with mock.patch.object(exactla.Echelon, "insert", watching_insert):
        shifted = shift_graph(g, order, TrialPolicy(prime=p, seed=seed)).graph
    assert shifted == g
    assert inserted == []


@settings(max_examples=200, deadline=None)
@given(routed_graphs(), st.integers(0, 10**6))
def test_the_walk_matches_the_greedy_trial_at_the_default_prime(case, seed):
    g, order = case
    assume(not check_shifted(g))
    walked = _graph_trial(g, order)(DEFAULT_PRIME, seed)
    assert walked == _edge_trial(g, order)(DEFAULT_PRIME, seed)
