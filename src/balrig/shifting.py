"""Balanced shifting of bipartite graphs and balanced complexes.

The shifted object is the support of the greedy lexicographic basis of the
multigraded components of the Stanley-Reisner ring after a random block change
of coordinates. Concretely, for a graph G with a random invertible pair of
blocks (one per side): the (1,1)-component has the edge monomials
{x_p y_q : pq' an edge} as a basis, and the candidate monomial for the pair
ij' expands with coefficient theta_A[i][p] * theta_B[j][q] on the edge pq'.
Candidates are offered in the lexicographic order induced by the vertex
order; the pairs whose expansion is independent of all earlier ones form the
shifted edge set. Complexes work the same way color-set by color-set: the
candidate for one vertex per color in T expands over the faces with color
support T, with a product coefficient per color.

The expansions are computed after a triangular change of coordinates, which
leaves the selected set unchanged for the same draw. Each block theta is
replaced by L * theta with L lower triangular and invertible: row r becomes
row r minus a combination of the earlier rows, scaled to a leading 1. The
full-block draw ``exactla.sample_theta`` returns the blocks in this form,
taken from the elimination its invertibility test runs anyway. The
candidate for ij' then becomes a nonzero multiple of itself plus a
combination of the candidates st' with s <= i and t <= j. A vertex order
extends the natural order on each side (``VertexOrder`` rejects any other),
so the lex order refines this product order and all those candidates come
earlier. By induction every prefix of the candidate sequence spans the same
space as before, and the greedy picks the same candidates, for every draw
and every p, degenerate draws included. Picks of complexes work the same
way, one color at a time. The payoff is sparsity:
row i of a triangular block is zero before its leading column, which is
column i for a generic block, so the candidate ij' touches only the edges pq'
with p >= i and q >= j, and for a complete bipartite graph the candidate rows
arrive already in echelon form. Each candidate row is built from the
triangular rows over the edges or faces present only.

Edge and face counts are preserved deterministically (the candidate monomials
span as soon as the blocks are invertible); shiftedness of the output is a
generic fact and is asserted after every run, under the usual trial policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    all_faces,
    f_vector,
    faces_with_colorset,
    is_face,
)
from .errors import BalrigError, InputError
from .exactla import (
    DEFAULT_POLICY,
    GreedyBasis,
    TrialMeta,
    TrialPolicy,
    run_trials,
    sample_theta,
)


@dataclass(frozen=True)
class ShiftedGraph:
    graph: BipartiteGraph
    order: VertexOrder
    meta: TrialMeta


@dataclass(frozen=True)
class ShiftedComplex:
    complex: BalancedComplex
    order: VertexOrder
    meta: TrialMeta


def _face_index(faces, colors) -> tuple[object, list[dict[int, int]]]:
    """Where each face's column sits, for expanding candidates by color.

    Returns ``(index, slots)``. ``index`` is nested dicts keyed by a face's
    vertex of every color but the last, as a 0-based block row, ending in a
    slot number; with a single color it is just the slot number 0, and
    without faces it is empty. ``slots[s]`` maps the face's vertex of the
    last color to its column.
    """
    root: dict = {}
    slots: list[dict[int, int]] = []
    for col, face in enumerate(faces):
        node, key = root, ()
        for c in colors[:-1]:
            node = node.setdefault(key, {})
            key = face[c] - 1
        if key not in node:
            node[key] = len(slots)
            slots.append({})
        slots[node[key]][face[colors[-1]] - 1] = col
    return root.get((), {}), slots


def _slot_rows(slots, rows) -> list[list[list[tuple[int, int]]]]:
    """For every triangular row of the last color and every slot, the
    ``(column, value)`` pairs of the faces on which the row is nonzero."""
    return [
        [[(col, row[v]) for v, col in slot.items() if v in row] for slot in slots]
        for row in rows
    ]


def _expansion(index, lead_rows, last, p: int) -> dict[int, int]:
    """A candidate's sparse row: the column of each face maps to the product
    of the triangular rows' entries at the face's vertices, ``lead_rows``
    for every color but the last and ``last`` (from ``_slot_rows``) for the
    last one. Only faces on which no row is zero are visited; the values are
    left unreduced below p^2."""
    if not lead_rows:
        return dict(last[index])
    level = [(index, 1)]
    for row in lead_rows[:-1]:
        level = [
            (child, coeff * x % p)
            for node, coeff in level
            for v, x in row.items()
            if (child := node.get(v)) is not None
        ]
    out = {}
    for node, coeff in level:
        for v, x in lead_rows[-1].items():
            slot = node.get(v)
            if slot is not None:
                c = coeff * x % p
                for col, y in last[slot]:
                    out[col] = c * y
    return out


def _edge_trial(g: BipartiteGraph, order: VertexOrder):
    """One shifting trial of g's edges, as a function of (p, seed).

    The candidate order and the edge index do not depend on the draw, so
    they are built once and shared by all trials.
    """
    basis_edges = g.edge_list()
    index, slots = _face_index([{1: i, 2: j} for i, j in basis_edges], (1, 2))
    candidates = sorted(
        ((i, j) for i in range(1, g.a_size + 1) for j in range(1, g.b_size + 1)),
        key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))),
    )

    def trial(p: int, seed: int) -> frozenset[tuple[int, int]]:
        if not basis_edges:
            return frozenset()
        tri_a, tri_b = sample_theta(p, seed, (g.a_size, g.b_size))
        last = _slot_rows(slots, tri_b)
        greedy = GreedyBasis(p)
        for i, j in candidates:
            greedy.offer((i, j), _expansion(index, (tri_a[i - 1],), last[j - 1], p))
            if greedy.rank == len(basis_edges):
                break
        return frozenset(greedy.selected)

    return trial


def shift_graph(
    g: BipartiteGraph,
    order: VertexOrder | None = None,
    policy: TrialPolicy = DEFAULT_POLICY,
) -> ShiftedGraph:
    """Balanced shifting of g with respect to the given vertex order.

    Defaults to the interleaved order. The result has the same number of
    edges, is balanced-shifted, and is reproducible from (seed, prime, order).
    """
    if order is None:
        order = VertexOrder.interleaved_graph(g.a_size, g.b_size)
    if not order.covers_graph(g):
        raise InputError("vertex order does not cover the graph's vertices")
    verdict, meta = run_trials(
        policy,
        _edge_trial(g, order),
        poly_degree=2 * g.n_edges,
        what="shifted edge set",
    )
    shifted = BipartiteGraph(g.a_size, g.b_size, verdict)
    if shifted.n_edges != g.n_edges:
        raise BalrigError("shifting failed to preserve the edge count")
    if not check_shifted(shifted):
        raise BalrigError("shifting produced a non-shifted edge set")
    return ShiftedGraph(shifted, order, meta)


def _face_trial(k: BalancedComplex, order: VertexOrder):
    """One shifting trial of k's faces, as a function of (p, seed).

    Per color set T, the faces with color support T, their index and the
    candidate picks in lex order do not depend on the draw, so they are
    built once and shared by all trials.
    """
    components = []
    colors = range(1, k.n_colors + 1)
    for r in range(1, k.n_colors + 1):
        for t in itertools.combinations(colors, r):
            basis = [dict(f) for f in faces_with_colorset(k, t)]
            if not basis:
                continue
            candidates = sorted(
                itertools.product(
                    *[range(1, k.color_sizes[c - 1] + 1) for c in t]
                ),
                key=lambda pick: order.lex_key(zip(t, pick)),
            )
            components.append((t, *_face_index(basis, t), len(basis), candidates))

    def trial(p: int, seed: int) -> frozenset:
        tri = sample_theta(p, seed, k.color_sizes)
        selected: set = set()
        for t, index, slots, size, candidates in components:
            last = _slot_rows(slots, tri[t[-1] - 1])
            greedy = GreedyBasis(p)
            for pick in candidates:
                lead_rows = [tri[c - 1][v - 1] for c, v in zip(t[:-1], pick)]
                row = _expansion(index, lead_rows, last[pick[-1] - 1], p)
                greedy.offer(frozenset(zip(t, pick)), row)
                if greedy.rank == size:
                    break
            if greedy.rank != size:
                raise BalrigError(
                    "candidate monomials failed to span a color component"
                )
            selected.update(greedy.selected)
        return frozenset(selected)

    return trial


def shift_complex(
    k: BalancedComplex,
    order: VertexOrder | None = None,
    policy: TrialPolicy = DEFAULT_POLICY,
) -> ShiftedComplex:
    """Balanced shifting of a complex, color set by color set.

    Defaults to the color-interleaved order, which is (l,...,l)-admissible for
    every l. Asserts that the selected supports form a complex with the same
    f-vector and that it is balanced-shifted.
    """
    if order is None:
        order = VertexOrder.interleaved_complex(k.color_sizes)
    expected = {
        (c, i) for c in range(1, k.n_colors + 1) for i in range(1, k.color_sizes[c - 1] + 1)
    }
    if set(order.sequence) != expected:
        raise InputError("vertex order does not cover the complex's palette")
    verdict, meta = run_trials(
        policy,
        _face_trial(k, order),
        poly_degree=2 * max(len(all_faces(k)), 1),
        what="shifted face set",
    )
    faces = set(verdict) | {frozenset()}
    for f in verdict:
        for v in f:
            if f - {v} not in faces:
                raise BalrigError("shifted supports are not closed under subsets")
    shifted = BalancedComplex.from_maximal_candidates(k.color_sizes, faces)
    if f_vector(shifted) != f_vector(k):
        raise BalrigError("shifting failed to preserve the f-vector")
    if not check_shifted(shifted):
        raise BalrigError("shifting produced a non-shifted complex")
    return ShiftedComplex(shifted, order, meta)


def check_shifted(obj: BipartiteGraph | BalancedComplex) -> bool:
    """Whether replacing any vertex of any face by a smaller same-side
    (same-color) vertex always yields a face."""
    if isinstance(obj, BipartiteGraph):
        edges = obj.edges
        return all(
            (p, q) in edges
            for i, j in edges
            for p in range(1, i + 1)
            for q in range(1, j + 1)
        )
    faces = all_faces(obj)
    for f in faces:
        for c, i in f:
            for smaller in range(1, i):
                if (f - {(c, i)}) | {(c, smaller)} not in faces:
                    return False
    return True


def contains_complete_bipartite(g: BipartiteGraph, r: int, s: int) -> bool:
    """Whether K_{r,s} (r on side A, s on side B) is a subgraph of g.

    For a balanced-shifted graph this reduces to one edge membership; in
    general it is a brute-force search over side subsets, fine at desk scale.
    """
    if r < 1 or s < 1:
        raise InputError("subgraph sides must be positive")
    if r > g.a_size or s > g.b_size:
        return False
    if check_shifted(g):
        return (r, s) in g.edges
    for asub in itertools.combinations(range(1, g.a_size + 1), r):
        for bsub in itertools.combinations(range(1, g.b_size + 1), s):
            if all((i, j) in g.edges for i in asub for j in bsub):
                return True
    return False


def contains_join(k: BalancedComplex, m: int) -> bool:
    """Whether the join of m points per color is a subcomplex of k.

    For a balanced-shifted complex this is a single facet membership (the
    m-th vertex of every color); in general all ways of picking m vertices
    per color are searched, with early abort.
    """
    if m < 1:
        raise InputError("join size must be positive")
    if any(size < m for size in k.color_sizes):
        return False
    colors = range(1, k.n_colors + 1)
    if check_shifted(k):
        return is_face(k, frozenset((c, m) for c in colors))
    choices = [
        list(itertools.combinations(range(1, k.color_sizes[c - 1] + 1), m))
        for c in colors
    ]
    for picks in itertools.product(*choices):
        if all(
            is_face(k, frozenset(zip(colors, combo)))
            for combo in itertools.product(*picks)
        ):
            return True
    return False
