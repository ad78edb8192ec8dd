"""The cached layouts against the order they are defined to have.

``oracle_block_order`` is the column order of a layout, from its
definition: the peeled blocks in peel order, then the blocks the core rows
meet, those that fewest core rows meet first, then the rest, ties by
block. The matrices carry no labels, but the order fixes the columns and so
the work elimination does. A layout keeps no block order, so the order of
the blocks that rows meet is read off its columns (``met_block_order``);
the columns themselves are checked against the oracle's, block by block,
unmet blocks included. Blocks are numbered as ``_layout`` numbers them:
A-vertex a is block a - 1 and B-vertex b block |A| + b - 1, and a
complex's ridges are blocks in sorted order.
"""

from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings

from balrig import families as fam
from balrig.exactla import DEFAULT_PRIME, lay_out, sample_theta
from balrig.rigidity import build_M, build_rigidity_matrix
from test_peel import complex_cases, graph_cases, graph_layout, met_block_order


def oracle_block_order(widths, row_blocks) -> list:
    """The blocks of a layout in column order, block b ``widths[b]`` wide
    and row i meeting the blocks ``row_blocks[i]``: the peeled blocks in
    the order ``lay_out`` peels them, then the core's by how many core rows
    meet them, then the rest, ties by block. Each row is filled here by the
    ids of its blocks, so each check names the block it peels."""
    layout = lay_out(widths, [*zip(*row_blocks)], row_blocks, len(row_blocks))
    peeled = [check[0] for check in layout.checks]
    met = Counter(b for i in layout.core for b in row_blocks[i])
    rest = [b for b in range(len(widths)) if b not in met and b not in peeled]
    return peeled + sorted(met, key=lambda b: (met[b], b)) + rest


def graph_blocks(g, k, l) -> tuple:
    """The block widths of g's (k,l)-rigidity matrix, and per row, the
    blocks it meets."""
    return [l] * g.a_size + [k] * g.b_size, [(a - 1, g.a_size + b - 1) for a, b in sorted(g.edges)]


def assert_met_blocks_follow_the_oracle(layout, widths, row_blocks) -> None:
    """The blocks that rows meet come in the oracle's order."""
    met = {b for blocks in row_blocks for b in blocks}
    order = [b for b in oracle_block_order(widths, row_blocks) if b in met]
    assert met_block_order(layout, widths, row_blocks) == order


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
    widths, row_blocks = graph_blocks(g, k, l)
    order = oracle_block_order(widths, row_blocks)
    assert m.n_cols == l * g.a_size + k * g.b_size
    assert_met_blocks_follow_the_oracle(m.layout, widths, row_blocks)
    # the columns of edge ab', the edges in sorted order, are the l of the
    # block of a, then the k of the block of b'
    blocks = block_columns(order, widths)
    expected = [blocks[a - 1] + blocks[g.a_size + b - 1] for a, b in sorted(g.edges)]
    assert list(m.layout.columns) == expected


@settings(max_examples=100, deadline=None)
@given(complex_cases())
def test_facet_ridge_blocks_follow_the_oracle_order(case):
    kx, l, p, seed = case
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    m = build_M(kx, l, theta, p)
    ridges = sorted({tuple(sorted(f - {v})) for f in kx.facets for v in f})
    facets = sorted(tuple(sorted(f)) for f in kx.facets)  # the rows, as sorted picks
    # a facet meets the ridges without each of its vertices, from the last
    # color back
    index = {r: j for j, r in enumerate(ridges)}
    row_blocks = [[index[tuple(sorted(set(f) - {v}))] for v in reversed(f)] for f in facets]
    widths = [l] * len(ridges)
    order = oracle_block_order(widths, row_blocks)
    assert m.n_cols == l * len(ridges)
    assert_met_blocks_follow_the_oracle(m.layout, widths, row_blocks)
    # the columns of a facet are the blocks of its ridges, in that order
    blocks = block_columns(order, widths)
    expected = [sum((blocks[b] for b in bs), ()) for bs in row_blocks]
    assert list(m.layout.columns) == expected


@pytest.mark.parametrize("faces", [16, 48, 64, 96, 128, 256])
def test_quadrangulation_cores_keep_the_oracle_order(faces):
    g = fam.random_quadrangulation(faces, seed=2)
    layout = graph_layout(g, 2, 2)
    assert layout.core
    assert_met_blocks_follow_the_oracle(layout, *graph_blocks(g, 2, 2))


def test_complete_graphs_keep_the_oracle_order():
    # at (2,2) K_{n,n} peels whole for n <= 2; above, every row is core
    for n in range(1, 13):
        g = fam.complete_bipartite(n, n)
        theta = sample_theta(DEFAULT_PRIME, 0, (n, n), rows=(2, 2))
        m = build_rigidity_matrix(g, 2, 2, theta, DEFAULT_PRIME)
        assert_met_blocks_follow_the_oracle(m.layout, *graph_blocks(g, 2, 2))
        assert len(m.layout.core) == (0 if n <= 2 else n * n)
