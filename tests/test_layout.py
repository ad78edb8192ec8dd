"""The cached layouts against the loops they replaced.

``oracle_col_labels`` is the column-label loop the rigidity layout ran
before its labels were derived on read, and ``oracle_elimination_order``
the minimum-degree order before its fill became a set union. Both stay
here as references: the labels are part of the matrix's contract, and the
order fixes the columns and so the work elimination does.
"""

from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings

from balrig import families as fam
from balrig.combinat import complete_edges
from balrig.exactla import DEFAULT_PRIME, peel, sample_theta
from balrig.rigidity import _elimination_order, build_M, build_rigidity_matrix
from test_peel import complex_cases, graph_cases, graph_layout


def oracle_elimination_order(edges) -> list:
    """Minimum-degree order, the fill added by a generator per neighbor."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapify(heap)
    order = []
    while heap:
        degree, v = heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) != degree:
            continue
        del adj[v]
        order.append(v)
        for u in nbrs:
            fill = adj[u]
            fill.discard(v)
            fill.update(w for w in nbrs if w != u)
            heappush(heap, (len(fill), u))
    return order


def oracle_col_labels(g, k, l) -> tuple:
    """The rigidity matrix's column labels by the loop that built them:
    the peeled vertices in peel order, then the core's in minimum-degree
    order, then the rest, each as l (A-vertex) or k (B-vertex) slots."""
    n = g.a_size
    ends = [(a - 1, n + b - 1) for a, b in sorted(g.edges)]
    widths = [l] * n + [k] * g.b_size
    order, *_, core = peel(widths, ends, [(v, u) for u, v in ends])
    order += oracle_elimination_order(ends[i] for i in core)
    placed = set(order)
    order += [b for b in range(len(widths)) if b not in placed]
    col_labels = []
    for b in order:
        v = ("A", b + 1) if b < n else ("B", b - n + 1)
        col_labels += [(v, s) for s in range(1, widths[b] + 1)]
    return tuple(col_labels)


@settings(max_examples=200, deadline=None)
@given(graph_cases())
def test_rigidity_column_labels_are_the_label_loops(case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    m = build_rigidity_matrix(g, k, l, theta, p)
    labels = oracle_col_labels(g, k, l)
    assert m.col_labels == labels and m.n_cols == len(labels) == l * g.a_size + k * g.b_size
    # the columns of edge ab' are the slots of a, then those of b'
    for (a, b), columns in zip(m.row_labels, m.layout.columns):
        expected = [(("A", a), s) for s in range(1, l + 1)] + [(("B", b), s) for s in range(1, k + 1)]
        assert [labels[c] for c in columns] == expected


@settings(max_examples=100, deadline=None)
@given(complex_cases())
def test_facet_ridge_column_labels_are_sorted_ridges_by_slot(case):
    kx, l, p, seed = case
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    m = build_M(kx, l, theta, p)
    ridges = sorted(tuple(sorted(f - {v})) for f in kx.facets for v in f)
    labels = tuple((r, s) for r in dict.fromkeys(ridges) for s in range(1, l + 1))
    assert m.col_labels == labels and m.n_cols == len(labels)


@settings(max_examples=200, deadline=None)
@given(graph_cases())
def test_the_set_union_fill_gives_the_oracle_order(case):
    g = case[0]
    edges = [(("A", a), ("B", b)) for a, b in sorted(g.edges)]
    assert _elimination_order(edges) == oracle_elimination_order(edges)


@pytest.mark.parametrize("faces", [16, 48, 64, 96, 128, 256])
def test_quadrangulation_cores_keep_the_oracle_order(faces):
    g = fam.random_quadrangulation(faces, seed=2)
    layout = graph_layout(g, 2, 2)
    ends = [(a - 1, g.a_size + b - 1) for a, b in layout.row_labels]
    core_ends = [ends[i] for i in layout.core]
    assert core_ends
    assert _elimination_order(core_ends) == oracle_elimination_order(core_ends)


def test_complete_graphs_keep_the_oracle_order():
    for n in range(1, 13):
        edges = [(("A", a), ("B", b)) for a, b in sorted(complete_edges(n, n))]
        assert _elimination_order(edges) == oracle_elimination_order(edges)
        # the layout reaches its order only through the core edges, here all
        theta = sample_theta(DEFAULT_PRIME, 0, (n, n), rows=(2, 2))
        m = build_rigidity_matrix(fam.complete_bipartite(n, n), 2, 2, theta, DEFAULT_PRIME)
        assert m.col_labels == oracle_col_labels(fam.complete_bipartite(n, n), 2, 2)
