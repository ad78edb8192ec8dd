"""The cached layouts against the loops they replaced.

``oracle_block_order`` is the order in which the rigidity layout placed
its vertex blocks when it still labeled its columns, and
``oracle_elimination_order`` the minimum-degree order before its fill
became a set union. Both stay here as references: the matrices carry no
labels, but the order fixes the columns and so the work elimination does.
Blocks are numbered as ``_layout`` numbers them: A-vertex a is block a - 1
and B-vertex b block |A| + b - 1, and a complex's ridges are blocks in
sorted order.
"""

from heapq import heapify, heappop, heappush
from itertools import accumulate

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


def oracle_block_order(g, k, l) -> list:
    """The rigidity matrix's blocks in column order, by the loop that
    placed them: the peeled vertices in peel order, then the core's in
    minimum-degree order, then the rest."""
    n = g.a_size
    ends = [(a - 1, n + b - 1) for a, b in sorted(g.edges)]
    widths = [l] * n + [k] * g.b_size
    order, *_, core = peel(widths, ends, [(v, u) for u, v in ends])
    order += oracle_elimination_order(ends[i] for i in core)
    placed = set(order)
    return order + [b for b in range(len(widths)) if b not in placed]


def block_columns(order, widths) -> list:
    """Per block, the columns it holds when the blocks are laid out in
    ``order``, each ``widths[b]`` wide."""
    starts = dict(zip(order, accumulate((widths[b] for b in order), initial=0)))
    return [tuple(range(starts[b], starts[b] + w)) for b, w in enumerate(widths)]


@settings(max_examples=200, deadline=None)
@given(graph_cases())
def test_rigidity_blocks_follow_the_oracle_order(case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    m = build_rigidity_matrix(g, k, l, theta, p)
    widths = [l] * g.a_size + [k] * g.b_size
    order = oracle_block_order(g, k, l)
    assert list(m.layout.col_order) == order and list(m.layout.widths) == widths
    assert m.n_cols == l * g.a_size + k * g.b_size
    # the columns of edge ab', the edges in sorted order, are the l of the
    # block of a, then the k of the block of b'
    blocks = block_columns(order, widths)
    expected = [blocks[a - 1] + blocks[g.a_size + b - 1] for a, b in sorted(g.edges)]
    assert list(m.layout.columns) == expected


@settings(max_examples=100, deadline=None)
@given(complex_cases())
def test_facet_ridge_blocks_are_the_sorted_ridges(case):
    kx, l, p, seed = case
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    m = build_M(kx, l, theta, p)
    ridges = sorted({tuple(sorted(f - {v})) for f in kx.facets for v in f})
    assert list(m.layout.col_order) == list(range(len(ridges)))
    assert list(m.layout.widths) == [l] * len(ridges) and m.n_cols == l * len(ridges)
    # the columns of a facet, the facets as sorted picks, are the blocks of
    # its ridges, from the last color back
    index = {r: j for j, r in enumerate(ridges)}
    blocks = block_columns(range(len(ridges)), [l] * len(ridges))
    expected = [
        sum((blocks[index[tuple(sorted(set(f) - {v}))]] for v in reversed(f)), ())
        for f in sorted(tuple(sorted(f)) for f in kx.facets)
    ]
    assert list(m.layout.columns) == expected


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
    ends = [(a - 1, g.a_size + b - 1) for a, b in sorted(g.edges)]
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
        assert list(m.layout.col_order) == oracle_block_order(fam.complete_bipartite(n, n), 2, 2)
