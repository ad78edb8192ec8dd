"""Sparse triangular shifting against the dense candidate expansion.

``dense_shift_edges`` and ``dense_shift_faces`` are the shifting trials as
they were before the triangular change of coordinates: every candidate
monomial is expanded densely over all edges or faces, with the raw blocks
the draw keeps. ``raw_blocks`` rebuilds those from prefix draws and a dense
rank test, so the oracle shares no elimination with the library's draw.
They stay here as a differential oracle. The library builds the candidates
sparsely from the triangular rows ``sample_theta`` returns for full blocks,
and its greedy selection must be identical for the same (input, order, p,
seed), degenerate draws at small p included.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    complete_edges,
    cone_left,
    cone_right,
    faces_with_colorset,
)
from balrig.errors import BalrigError
from balrig.exactla import DEFAULT_PRIME, GreedyBasis, sample_theta
from balrig.shifting import _edge_trial, _face_trial
from test_kernel_oracle import dense_rank

PRIMES = (3, 5, 101, DEFAULT_PRIME)


def raw_blocks(p, seed, sizes):
    """The square blocks the full draw keeps before triangularising: block
    c's stream rows, read by prefix draws, each kept when it raises the
    dense rank of the rows kept so far."""
    blocks = []
    for c, size in enumerate(sizes):
        drawn = size
        while True:
            counts = [drawn if d == c else 0 for d in range(len(sizes))]
            stream = sample_theta(p, seed, sizes, rows=counts)[c]
            kept = []
            for row in stream:
                if len(kept) < size and dense_rank(kept + [row], p, size) > len(kept):
                    kept.append(row)
            if len(kept) == size:
                break
            drawn *= 2
        blocks.append(kept)
    return blocks


def dense_shift_edges(g, order, p, seed):
    basis_edges = g.edge_list()
    if not basis_edges:
        return frozenset()
    theta_a, theta_b = raw_blocks(p, seed, (g.a_size, g.b_size))
    candidates = sorted(
        ((i, j) for i in range(1, g.a_size + 1) for j in range(1, g.b_size + 1)),
        key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))),
    )
    greedy = GreedyBasis(p)
    for i, j in candidates:
        row_a = theta_a[i - 1]
        row_b = theta_b[j - 1]
        expansion = [row_a[pp - 1] * row_b[qq - 1] % p for pp, qq in basis_edges]
        greedy.offer((i, j), expansion)
        if greedy.rank == len(basis_edges):
            break
    return frozenset(greedy.selected)


def dense_shift_faces(k, order, p, seed):
    blocks = raw_blocks(p, seed, k.color_sizes)
    selected = set()
    colors = range(1, k.n_colors + 1)
    for r in range(1, k.n_colors + 1):
        for t in itertools.combinations(colors, r):
            basis = sorted(faces_with_colorset(k, t), key=lambda f: sorted(f))
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
                greedy.offer(frozenset(zip(t, pick)), expansion)
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
def graph_cases(draw):
    """(graph, order) with empty, single-edge, complete and random edge sets
    and interleaved, admissible, shuffled and cone orders."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
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
    assert _edge_trial(g, order)(p, seed) == dense_shift_edges(g, order, p, seed)


@settings(max_examples=100, deadline=None)
@given(complex_cases(), st.sampled_from(PRIMES), st.integers(0, 10**6))
def test_sparse_face_shift_matches_dense_oracle(case, p, seed):
    k, order = case
    assert _face_trial(k, order)(p, seed) == dense_shift_faces(k, order, p, seed)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2,) + PRIMES), st.integers(0, 7), st.integers(0, 10**6))
def test_triangular_rows_keep_every_prefix_span(p, n, seed):
    (tri,) = sample_theta(p, seed, (n,))
    (block,) = raw_blocks(p, seed, (n,))
    assert len(tri) == n
    leads = []
    for r, row in enumerate(tri):
        lead = min(row)
        assert row[lead] == 1
        assert all(0 < v < p for v in row.values())
        assert not set(leads) & set(row), "a row is nonzero in an earlier lead column"
        leads.append(lead)
        dense = [[t.get(c, 0) for c in range(n)] for t in tri[: r + 1]]
        assert dense_rank(dense, p, n) == r + 1
        assert dense_rank(dense + block[: r + 1], p, n) == r + 1
    assert len(set(leads)) == n


def test_triangular_rows_of_a_generic_block_are_upper_triangular():
    (tri,) = sample_theta(DEFAULT_PRIME, 5, (6,))
    assert [min(row) for row in tri] == list(range(6))


def test_offer_takes_sparse_and_dense_rows_alike():
    rows = [[0, 3, 0, 1], [0, 6, 0, 2], [5, 0, 0, 0], [5, 3, 0, 1], [0, 0, 7, 0]]
    dense, sparse = GreedyBasis(101), GreedyBasis(101)
    for i, row in enumerate(rows):
        dense.offer(i, row)
        sparse.offer(i, {c: v for c, v in enumerate(row) if v})
    assert dense.selected == sparse.selected == [0, 2, 4]
