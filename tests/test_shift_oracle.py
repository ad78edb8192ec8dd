"""Sparse triangular shifting against the dense candidate expansion.

``dense_shift_edges`` and ``dense_shift_faces`` are the shifting trials as
they were before the unit upper triangular draw: every candidate monomial is
expanded densely over all edges or faces, for any invertible blocks. They
stay here as a differential oracle. On raw invertible blocks theta, their
greedy selection must equal the library's trial run on L * theta, L lower
triangular and invertible, for every p: the selected set depends only on the
unit upper triangular factor of theta, and that is the form the library
draws. On the library's own draw the two must be identical for the same
(input, order, p, seed). The greedy trial is in turn the oracle of the
prefix walk, which reads the same rows and must pick the same edges whenever
the greedy's set is shifted. The faces of each color set come from the
facet-restriction oracle of ``test_face_oracle``, not from the library's
grouped face set.
"""

import itertools
import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from balrig import shifting
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    complete_edges,
    cone_left,
    cone_right,
)
from balrig.errors import BalrigError
from balrig.exactla import DEFAULT_PRIME, GreedyBasis, greedy_independent_rows, sample_theta
from balrig.shifting import _edge_trial, _face_trial, _prefix_trial, check_shifted
from test_face_oracle import oracle_faces_with_colorset
from test_kernel_oracle import dense_rank

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def raw_blocks(rng, p, sizes):
    """Random invertible square blocks, one per size, as int lists."""
    blocks = []
    for size in sizes:
        while True:
            block = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
            if dense_rank(block, p, size) == size:
                break
        blocks.append(block)
    return blocks


def lower_triangular_times(rng, p, block):
    """L * block for a random lower triangular L with a nonzero diagonal."""
    n = len(block)
    lower = [
        [rng.randrange(p) for _ in range(r)] + [rng.randrange(1, p)] + [0] * (n - r - 1)
        for r in range(n)
    ]
    return [
        [sum(lower[r][s] * block[s][c] for s in range(n)) % p for c in range(n)]
        for r in range(n)
    ]


def dense_shift_edges(g, order, p, blocks):
    basis_edges = g.edge_list()
    if not basis_edges:
        return frozenset()
    theta_a, theta_b = blocks
    candidates = sorted(
        ((i, j) for i in range(1, g.a_size + 1) for j in range(1, g.b_size + 1)),
        key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))),
    )
    greedy = GreedyBasis(p)
    for i, j in candidates:
        row_a = theta_a[i - 1]
        row_b = theta_b[j - 1]
        expansion = [row_a[pp - 1] * row_b[qq - 1] % p for pp, qq in basis_edges]
        greedy.offer((i, j), dict(enumerate(expansion)))
        if greedy.rank == len(basis_edges):
            break
    return frozenset(greedy.selected)


def dense_shift_faces(k, order, p, blocks):
    selected = set()
    colors = range(1, k.n_colors + 1)
    for r in range(1, k.n_colors + 1):
        for t in itertools.combinations(colors, r):
            basis = sorted(oracle_faces_with_colorset(k, t), key=lambda f: sorted(f))
            if not basis:
                continue
            basis_by_color = [dict(f) for f in basis]
            candidates = sorted(
                itertools.product(*[range(1, k.color_sizes[c - 1] + 1) for c in t]),
                key=lambda pick: order.lex_key(zip(t, pick)),
            )
            greedy = GreedyBasis(p)
            for pick in candidates:
                expansion = []
                for face in basis_by_color:
                    coeff = 1
                    for c, v in zip(t, pick):
                        coeff = coeff * blocks[c - 1][v - 1][face[c] - 1] % p
                    expansion.append(coeff)
                greedy.offer(frozenset(zip(t, pick)), dict(enumerate(expansion)))
                if greedy.rank == len(basis):
                    break
            if greedy.rank != len(basis):
                raise BalrigError("candidate monomials failed to span a color component")
            selected.update(greedy.selected)
    return frozenset(selected)


@st.composite
def merged_order(draw, parts):
    """A random order that extends the natural order on every part: a
    shuffle of the parts' index sequences."""
    queues = {part: list(range(1, size + 1)) for part, size in parts}
    seq = []
    while any(queues.values()):
        part = draw(st.sampled_from(sorted(part for part, q in queues.items() if q)))
        seq.append((part, queues[part].pop(0)))
    return VertexOrder(seq)


@st.composite
def graph_cases(draw, max_side=5):
    """(graph, order) with empty, single-edge, complete and random edge sets
    and interleaved, admissible, shuffled and cone orders; a cone adds one
    vertex to a side of at most ``max_side``."""
    n, m = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    pairs = sorted(complete_edges(n, m))
    kind = draw(st.sampled_from(("random", "random", "empty", "single", "complete")))
    if kind == "empty":
        edges = frozenset()
    elif kind == "single":
        edges = frozenset({draw(st.sampled_from(pairs))})
    elif kind == "complete":
        edges = frozenset(pairs)
    else:
        edges = frozenset(e for e in pairs if draw(st.booleans()))
    g = BipartiteGraph(n, m, edges)
    order_kind = draw(st.sampled_from(("interleaved", "admissible", "shuffled")))
    if order_kind == "interleaved":
        order = VertexOrder.interleaved_graph(n, m)
    elif order_kind == "admissible":
        order = VertexOrder.admissible_graph(n, m, draw(st.integers(0, n)), draw(st.integers(0, m)))
    else:
        order = draw(merged_order((("A", n), ("B", m))))
    cone = draw(st.sampled_from((None, "left", "right")))
    if cone == "left":
        g, order = cone_left(g).graph, order.cone_left()
    elif cone == "right":
        g, order = cone_right(g).graph, order.cone_right()
    return g, order


@st.composite
def complex_cases(draw):
    """(pure complex, order): a random nonempty set of colorful picks as
    facets, with the interleaved or a shuffled order."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    picks = list(itertools.product(*[range(1, s + 1) for s in sizes]))
    chosen = [pick for pick in picks if draw(st.booleans())] or [picks[-1]]
    k = BalancedComplex(sizes, frozenset(frozenset(enumerate(pick, start=1)) for pick in chosen))
    if draw(st.booleans()):
        order = VertexOrder.interleaved_complex(sizes)
    else:
        order = draw(merged_order(tuple(enumerate(sizes, start=1))))
    return k, order


@settings(max_examples=200, deadline=None)
@given(graph_cases(), st.sampled_from(PRIMES), st.integers(0, 10**6))
@example((BipartiteGraph(3, 2, frozenset()), VertexOrder.interleaved_graph(3, 2)), 3, 0)
@example((BipartiteGraph(1, 1, frozenset({(1, 1)})), VertexOrder.interleaved_graph(1, 1)), 5, 0)
@example(
    (BipartiteGraph(5, 5, complete_edges(5, 5)), VertexOrder.admissible_graph(5, 5, 2, 2)), 3, 7
)
def test_sparse_edge_shift_matches_dense_oracle(case, p, seed):
    g, order = case
    blocks = sample_theta(p, seed, (g.a_size, g.b_size))
    assert _edge_trial(g, order)(p, seed) == dense_shift_edges(g, order, p, blocks)


def _run_on(trial, blocks, p):
    """``trial`` run with ``shifting.sample_theta`` drawing ``blocks``."""
    with mock.patch.object(shifting, "sample_theta", lambda p, seed, sizes: blocks):
        return trial(p, 0)


@settings(max_examples=200, deadline=None)
@given(graph_cases(), st.sampled_from(PRIMES), st.integers(0, 10**6))
@example(
    (BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)})),
     VertexOrder.interleaved_graph(3, 3)),
    2,
    0,
)
def test_the_edge_trial_on_l_theta_picks_the_dense_greedy_of_theta(case, p, seed):
    # the selected set depends only on the unit upper triangular factor of
    # theta, so a lower triangular row operation changes no pick, at any p
    g, order = case
    rng = random.Random(seed)
    theta = raw_blocks(rng, p, (g.a_size, g.b_size))
    moved = [lower_triangular_times(rng, p, block) for block in theta]
    assert _run_on(_edge_trial(g, order), moved, p) == dense_shift_edges(g, order, p, theta)


@settings(max_examples=100, deadline=None)
@given(complex_cases(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_the_face_trial_on_l_theta_picks_the_dense_greedy_of_theta(case, p, seed):
    k, order = case
    rng = random.Random(seed)
    theta = raw_blocks(rng, p, k.color_sizes)
    moved = [lower_triangular_times(rng, p, block) for block in theta]
    assert _run_on(_face_trial(k, order), moved, p) == dense_shift_faces(k, order, p, theta)


@settings(max_examples=300, deadline=None)
@given(graph_cases(max_side=8), st.sampled_from(PRIMES), st.integers(0, 10**6))
@example((BipartiteGraph(3, 2, frozenset()), VertexOrder.interleaved_graph(3, 2)), 3, 0)
@example(
    (
        BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)})),
        VertexOrder.interleaved_graph(3, 3),
    ),
    2,
    0,
)
@example(
    (BipartiteGraph(9, 9, complete_edges(9, 9)), VertexOrder.admissible_graph(9, 9, 2, 3)),
    DEFAULT_PRIME,
    1,
)
def test_prefix_walk_matches_the_greedy_trial(case, p, seed):
    # the walk reads the greedy's counts on initial segments, from the same
    # rows; they name the greedy's cells when its set is shifted
    g, order = case
    greedy = _edge_trial(g, order)(p, seed)
    walk = _prefix_trial(g, order)(p, seed)
    assert len(walk) == g.n_edges
    if check_shifted(BipartiteGraph(g.a_size, g.b_size, greedy)):
        assert walk == greedy


@settings(max_examples=100, deadline=None)
@given(complex_cases(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_sparse_face_shift_matches_dense_oracle(case, p, seed):
    k, order = case
    blocks = sample_theta(p, seed, k.color_sizes)
    assert _face_trial(k, order)(p, seed) == dense_shift_faces(k, order, p, blocks)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 7), st.integers(0, 10**6))
def test_triangular_rows_keep_every_prefix_span(p, n, seed):
    # a full block is the prefix draw of all its rows, unit upper triangular
    (tri,) = sample_theta(p, seed, (n,))
    assert len(tri) == n
    for r, row in enumerate(tri):
        assert len(row) == n and row[: r + 1] == [0] * r + [1]
        assert all(0 <= v < p for v in row)
        assert sample_theta(p, seed, (n,), rows=(r + 1,)) == [tri[: r + 1]]
        assert dense_rank(tri[: r + 1], p, n) == r + 1


def test_triangular_rows_of_a_generic_block_are_upper_triangular():
    (tri,) = sample_theta(DEFAULT_PRIME, 5, (6,))
    assert [next(c for c, x in enumerate(row) if x) for row in tri] == list(range(6))


def test_dense_and_sparse_rows_select_alike():
    # greedy_independent_rows takes dense rows, GreedyBasis sparse ones
    rows = [[0, 3, 0, 1], [0, 6, 0, 2], [5, 0, 0, 0], [5, 3, 0, 1], [0, 0, 7, 0]]
    sparse = GreedyBasis(101)
    for i, row in enumerate(rows):
        sparse.offer(i, {c: v for c, v in enumerate(row) if v})
    assert greedy_independent_rows(101, list(enumerate(rows))) == sparse.selected == [0, 2, 4]
