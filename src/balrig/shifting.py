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

The blocks are drawn unit upper triangular (``exactla.prefix_stream``),
which leaves the selected set generic. Replace a block theta by L * theta
with L lower triangular and invertible: the candidate for ij' becomes a
nonzero multiple of itself plus a combination of the candidates st' with
s <= i and t <= j. A vertex order extends the natural order on each side
(``VertexOrder`` rejects any other), so the lex order refines this product
order and all those candidates come earlier. By induction every prefix of
the candidate sequence spans the same space as before, and the greedy picks
the same candidates, for every draw and every p. Picks of complexes work the
same way, one color at a time. A generic block is L * U with U unit upper
triangular, so the selected set depends on U alone, and drawing U's entries
at random is a random evaluation of the same conditions, of no higher
degree. The payoff is sparsity: row i of a block is zero before column i, so
the candidate ij' touches only the edges pq' with p >= i and q >= j, and a
candidate of a complex only the faces at or above its pick in every color.
The columns list the edges and faces by lex key, a linear extension of
that coordinatewise order, so a candidate whose pick is an edge or face
leads at its own column with the entry 1. Each candidate row is built from
the block rows over the edges or faces present only.

A color component that is already shifted needs no elimination at all.
Call it settled when its faces are down-closed: each stays a face when any
one vertex is replaced by the next smaller vertex of its color, the
one-step rule below applied inside the component. On unit upper triangular
blocks such a component selects exactly its faces, for every draw and every
p, p = 2 included: a face's candidate row is 1 at its own column and zero
on every face not above it, so the face rows are triangular and
independent, while a candidate that is no face has no face at or above it
and its row is zero. The premise is checked at every draw: each block the
component reads must hold its drawn form (``exactla.unit_row``: 0 before
the diagonal, 1 on it) on its leading rows up to the component's largest
vertex of that color; a component whose blocks fail runs the greedy.
Every draw of ``prefix_stream`` passes, so a complete bipartite graph, a
shifted complex and the shifted color sets of any complex build no
candidate row, and the greedy runs only on the components that are not
down-closed (``_trial`` gives the full argument).

Graphs have a second route, the prefix walk, which reads the shifted edge
set off ranks of prefixes, since balanced shifting of a graph is bipartite
rigidity (Babson and Novik 2006; Kalai, Nevo and Novik, "Bipartite
rigidity"). For an initial segment [a] of A and [b] of B in the vertex
order, the greedy picks |Delta ∩ ([a]×B ∪ A×[b])| candidates among those
touching the segments, and that count is the rank of the star rows:
row i <= a of the A-block on the edges of each B-vertex, and row j <= b of
the B-block on the edges of each A-vertex. The candidates touching the first
t vertices of the order form an initial segment of the lex order (candidates
sort first by their smaller position), so the count rises at step t by the
number of cells picked among the pairs whose earlier vertex is the t-th, and
since Delta is shifted those are the first ones. The walk inserts the star
rows into one greedy basis step by step, drawing one row of the prefix
stream per step, and stops when the rank reaches E. No E×E candidate
elimination runs, and a sparse graph is done after a few steps. A graph
that is already shifted is its own shift, and the greedy settles it
without elimination, so such a graph takes the greedy trial and every
other graph the walk.

The walk reads the rows the greedy reads, so for every draw its counts are
the greedy's, and it names the same cells when the greedy's set is shifted.
Its counts are the generic prefix ranks as soon as the E star rows that a
generic draw accepts stay independent: a rank at a point is at most the
generic rank, and those rows keep every prefix at it. That is one E×E minor
of degree E in the drawn entries, so the per-trial failure bound 2E/p of the
greedy, whose candidate entries have degree 2, covers the walk too. Since
every block is invertible, the walk reaches rank E by the last A-step, and
an A-step after b B-steps adds at most |B| - b, B-steps symmetrically; a
walk that breaks either raises ``InvariantError``. Its output is not shifted
by construction, so it is checked as the greedy's is.

That bound also caps each step. An A-step reading row theta_A[a] offers
star rows that span phi(F^|B|), phi(y) being theta_A[a] ⊗ y on the edges;
for each j <= b, phi(theta_B[j]) is B-step j's star rows combined with the
coefficients theta_A[a][p], already in the basis. So when the b B-rows
read so far are independent, the step's remaining star rows are dependent
once its increment reaches |B| - b, and they are not offered. The guard
checks a form that implies that premise at every draw: each row read must
be zero before its own position and 1 at it (``exactla.unit_row``), and a
step is capped only while every row read on the other side passed.
``prefix_stream`` rows always pass; a stream that fails, which only tests
inject, walks uncapped.

The components of a complex are read off its face set, which groups the
faces by color support once (``BalancedComplex.face_set``); a color set that
no face uses has no component.

Edge and face counts are preserved deterministically (the candidate monomials
span as soon as the blocks are invertible), so a miss raises
``InvariantError``. Shiftedness of the output is a generic fact and is
checked after every run by the one-step rule: replacing a vertex by the next
smaller one of its side or color gives an edge or face, which by induction
reaches every smaller vertex. Agreeing trials whose verdict fails it come
from a degenerate draw, which a small prime makes likely, so they raise
``InputError`` naming the prime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    all_faces,
    is_face,
)
from .errors import InputError, InvariantError, check_cap
from .exactla import (
    DEFAULT_POLICY,
    GreedyBasis,
    TrialMeta,
    TrialPolicy,
    prefix_stream,
    run_trials,
    sample_theta,
    unit_extent,
    unit_row,
)


#: Agreeing trials whose verdict is not shifted come from a degenerate draw,
#: which the prime made likely; the input is not at fault.
_TOO_SMALL = (
    "the trials agree on a non-shifted {what}; the prime {p} is too small "
    "for this input, use a larger prime"
)


#: Largest side or color a shift accepts: a graph's prefix walk offers at
#: each of its |A| + |B| steps one star row per vertex of the other side,
#: each over that vertex's edges.
SHIFT_SIDE_CAP = 256
#: Most candidates a complex shift may offer, bounded before any face is
#: derived by the sum over the facets' color sets T of prod(1 + s_c), c in T:
#: every color support of a face is a subset t of some T, and offers
#: prod(s_c), c in t, candidates.
SHIFT_CANDIDATE_CAP = 1 << 18
#: Most subsets a subgraph search of an input that is not shifted may try:
#: for K_{r,s} (``contains_complete_bipartite``), the r-subsets of the
#: A-vertices of degree at least s or the s-subsets of the B-vertices of
#: degree at least r; for the join (``contains_join``), one m-subset of
#: every color. A search of 2^20 tries that finds nothing takes about a
#: second.
SUBSET_SEARCH_CAP = 1 << 20


def _check_shift_size(sizes, color_sets=()) -> None:
    check_cap("shift vertices per side or color", max(sizes, default=0), SHIFT_SIDE_CAP)
    bound = sum(math.prod(1 + sizes[c - 1] for c in t) for t in color_sets)
    check_cap("complex shift candidate bound", bound, SHIFT_CANDIDATE_CAP)


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


def _face_index(columns) -> tuple[object, list[dict[int, int]]]:
    """Where each face's column sits, for expanding candidates by color.

    ``columns`` lists the faces as picks, in column order. Returns
    ``(index, slots)``. ``index`` is nested dicts keyed by a face's vertex
    of every color but the last, as a 0-based block row, ending in a slot
    number; with a single color it is just the slot number 0, and without
    faces it is empty. ``slots[s]`` maps the face's vertex of the last color
    to its column.
    """
    root: dict = {}
    slots: list[dict[int, int]] = []
    for col, pick in enumerate(columns):
        node, key = root, ()
        for v in pick[:-1]:
            node = node.setdefault(key, {})
            key = v - 1
        if key not in node:
            node[key] = len(slots)
            slots.append({})
        slots[node[key]][pick[-1] - 1] = col
    return root.get((), {}), slots


def _slot_rows(slots, rows) -> list[list[list[tuple[int, int]]]]:
    """For every block row of the last color and every slot, the
    ``(column, value)`` pairs of the faces on which the row is nonzero."""
    return [
        [[(col, row[v]) for v, col in slot.items() if v in row] for slot in slots]
        for row in rows
    ]


def _expansion(index, leads, pick, last, p: int) -> dict[int, int]:
    """A candidate's sparse row: the column of each face maps to the product
    of the block rows' entries at the face's vertices. ``leads`` holds the
    block of every color but the last, as sparse rows, and the candidate's
    ``pick`` names its row in each; ``last`` holds its row of the last
    color as ``_slot_rows`` gives it. Only faces on which no row is zero are
    visited; the values are left unreduced below p^2."""
    level = [(index, 1)]
    for block, v in zip(leads, pick):
        level = [
            (child, coeff * x % p)
            for node, coeff in level
            for w, x in block[v - 1].items()
            if (child := node.get(w)) is not None
        ]
    out = {}
    for slot, coeff in level:
        for col, y in last[slot]:
            out[col] = coeff * y
    return out


def _down_closed_tops(picks) -> list[int] | None:
    """The largest vertex of each color among ``picks`` when every pick stays
    one as any of its vertices is replaced by the next smaller vertex of its
    color (``check_shifted``'s one-step rule inside one color set), else
    None. By induction such a set holds every pick below one of its picks
    in every color."""
    tops = [0] * len(next(iter(picks)))
    for pick in picks:
        for i, v in enumerate(pick):
            if v > 1 and pick[:i] + (v - 1,) + pick[i + 1 :] not in picks:
                return None
            tops[i] = max(tops[i], v)
    return tops


def _trial(sizes, components, lex_key, tag):
    """One shifting trial, as a function of (p, seed), over parameter blocks
    of the given sizes, one per color.

    ``components`` lists ``(t, faces)`` per color set t: the faces with
    color support t, as a dict from each face's pick, one vertex per color
    of t, to its tag. The candidates are all picks of t, offered in the
    order of ``lex_key(t, pick)`` and tagged ``tag(t, pick)``; the columns
    list the faces in the same order. The trial returns the tags of the
    selected picks.

    A component whose faces are down-closed (``_down_closed_tops``) is
    settled: it selects exactly its faces, for every draw and every p, as
    long as each block it reads is upper triangular with a nonzero diagonal
    on its leading rows and columns up to the component's largest vertex of
    that color, as a unit upper triangular block is. A candidate's entry on
    a face is a product of one block entry per color. For a candidate within
    those vertices it is zero unless the face lies at or above the pick in
    every color. A face's own candidate then has a nonzero entry at its own
    column and none on the earlier faces of any linear extension of that
    coordinatewise order, so the face candidates are independent; any other
    candidate has no face at or above it, since the faces are down-closed,
    and its row is zero. A candidate past the largest vertex m of a color
    reads its row of that block on the faces' columns, all at most m, where
    it is a combination of the rows up to m; so the candidate's row is a
    combination of those of candidates below it in that color, which the lex
    order offers earlier, and it is rejected. A settled component adds its
    faces' tags and builds no candidate, index or basis. The guard checks
    the drawn form (``exactla.unit_row``) on each block's leading rows at
    every draw; the draws of ``prefix_stream`` always pass, and a component
    whose blocks fail runs the greedy.

    The other components run the greedy basis. Their face index and
    candidates do not depend on the draw, so each is built once, when the
    component first eliminates, and shared by all trials.
    """
    prepared = [(t, faces, _down_closed_tops(faces)) for t, faces in components if faces]
    built: dict[tuple, tuple] = {}

    def greedy_input(t, faces) -> tuple:
        """The face index and the tagged candidates of color set t, built
        when its component first eliminates."""
        if t not in built:
            key = functools.partial(lex_key, t)
            picks = sorted(itertools.product(*[range(1, sizes[c - 1] + 1) for c in t]), key=key)
            candidates = [(pick, tag(t, pick)) for pick in picks]
            built[t] = (*_face_index(sorted(faces, key=key)), candidates)
        return built[t]

    def trial(p: int, seed: int) -> frozenset:
        if not prepared:
            return frozenset()
        theta = sample_theta(p, seed, sizes)
        # per block, how many leading rows are as drawn: how far it settles
        extents = [unit_extent(b) for b in theta]
        blocks = None
        selected: set = set()
        for t, faces, tops in prepared:
            if tops is not None and all(top <= extents[c - 1] for c, top in zip(t, tops)):
                selected.update(faces.values())
                continue
            if blocks is None:
                blocks = [
                    [{j: x for j, x in enumerate(row) if x} for row in block]
                    for block in theta
                ]
            index, slots, candidates = greedy_input(t, faces)
            leads = [blocks[c - 1] for c in t[:-1]]
            last = _slot_rows(slots, blocks[t[-1] - 1])
            greedy = GreedyBasis(p)
            for pick, face in candidates:
                greedy.offer(face, _expansion(index, leads, pick, last[pick[-1] - 1], p))
                if greedy.rank == len(faces):
                    break
            if greedy.rank != len(faces):
                raise InvariantError(
                    "candidate monomials failed to span a color component"
                )
            selected.update(greedy.selected)
        return frozenset(selected)

    return trial


def _edge_trial(g: BipartiteGraph, order: VertexOrder):
    """One shifting trial of g's edges: the complex trial on the color set
    (1, 2), side A as color 1 and side B as color 2, each candidate tagged
    by its pair (i, j)."""
    return _trial(
        (g.a_size, g.b_size),
        [((1, 2), {e: e for e in g.edges})],
        lambda _t, e: order.lex_key((("A", e[0]), ("B", e[1]))),
        lambda _t, e: e,
    )


def _prefix_trial(g: BipartiteGraph, order: VertexOrder):
    """One shifting trial of g's edges by the prefix walk, as a function of
    (p, seed) that returns the shifted edge set.

    The walk visits the vertices in order. At the a-th A-vertex it offers
    one greedy basis the star row of every B-vertex q: row a of the
    A-stream on each edge column pq. B-steps are symmetric. With b
    B-vertices behind it, the step's rank increment inc names the cells
    (a, b+1), ..., (a, b+inc); a B-step names (a+1, b), ..., (a+inc, b).
    The walk stops when the rank reaches E. Invertible blocks keep every
    increment within the cells left in its row or column and bring the
    rank to E, so a walk that breaks either raises ``InvariantError``.

    A step stops offering once its increment reaches the cells left in its
    row or column, since its remaining star rows are then dependent. For an
    A-step after b B-steps, its star rows combined with the entries of B-row
    j as coefficients equal B-step j's star rows combined with the entries
    of the A-row, a vector already in the basis; independent B-rows make
    these b relations independent. The cap is used only while every row
    read on the other side is zero before its position and 1 at it
    (``exactla.unit_row``), which the walk checks as it reads; a row that
    fails (never one of ``prefix_stream``) leaves the other side's steps
    uncapped. The cells and both checks are those of the uncapped walk on
    every draw.

    Edge columns are ordered by the edges' lex keys, latest first, which
    eliminates up to 2.5 times faster than earliest first on random graphs
    of density 0.4 to 0.6. The star lists do not depend on the draw, so
    they are built once and shared by all trials.
    """
    n_edges = g.n_edges
    sizes = (g.a_size, g.b_size)
    columns = sorted(
        g.edges, key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))), reverse=True
    )
    # stars[c]: the stars read on a step of side c, one list of (column,
    # 0-based vertex of side c) pairs per vertex of the other side with edges
    by_b: list[list[tuple[int, int]]] = [[] for _ in range(g.b_size)]
    by_a: list[list[tuple[int, int]]] = [[] for _ in range(g.a_size)]
    for col, (i, j) in enumerate(columns):
        by_b[j - 1].append((col, i - 1))
        by_a[i - 1].append((col, j - 1))
    stars = ([s for s in by_b if s], [s for s in by_a if s])
    steps = [(int(side == "B"), idx) for side, idx in order.sequence]

    def walk(p: int, seed: int) -> frozenset:
        if not n_edges:
            return frozenset()
        streams = [prefix_stream(p, seed, c, size) for c, size in enumerate(sizes)]
        basis = GreedyBasis(p)
        seen = [0, 0]
        # echelon[c]: each row read on side c is as drawn (``unit_row``) at
        # its position, so the rows read there are independent
        echelon = [True, True]
        cells = []
        for c, idx in steps:
            row = next(streams[c])
            echelon[c] = echelon[c] and unit_row(row, seen[c])
            before = basis.rank
            other = seen[1 - c]
            stop = n_edges
            if echelon[1 - c]:
                stop = min(stop, before + sizes[1 - c] - other)
            for star in stars[c]:
                if basis.rank == stop:
                    break
                basis.offer((c, idx), {col: row[v] for col, v in star})
            inc = basis.rank - before
            if other + inc > sizes[1 - c]:
                raise InvariantError(
                    "a walk step named more cells than its row or column has"
                )
            seen[c] += 1
            if c:
                cells += [(i, idx) for i in range(other + 1, other + inc + 1)]
            else:
                cells += [(idx, j) for j in range(other + 1, other + inc + 1)]
            if basis.rank == n_edges:
                return frozenset(cells)
        raise InvariantError("the prefix walk ended below the edge count")

    return walk


def _graph_trial(g: BipartiteGraph, order: VertexOrder):
    """The trial ``shift_graph`` runs: the greedy trial, which settles it,
    when g is already shifted, the prefix walk otherwise."""
    return (_edge_trial if check_shifted(g) else _prefix_trial)(g, order)


def shift_graph(
    g: BipartiteGraph,
    order: VertexOrder | None = None,
    policy: TrialPolicy = DEFAULT_POLICY,
) -> ShiftedGraph:
    """Balanced shifting of g with respect to the given vertex order.

    Defaults to the interleaved order. The result has the same number of
    edges, is balanced-shifted, and is reproducible from (seed, prime, order).
    A shifted g is settled by the greedy trial, any other g takes the
    prefix walk (``_graph_trial``). An order that does not list every
    vertex, then sides over ``SHIFT_SIDE_CAP``, are refused before anything
    is drawn.
    """
    if order is not None and not order.covers_graph(g):
        raise InputError("vertex order does not list every vertex of the graph exactly once")
    _check_shift_size((g.a_size, g.b_size))
    if order is None:
        order = VertexOrder.interleaved_graph(g.a_size, g.b_size)
    verdict, meta = run_trials(
        policy,
        _graph_trial(g, order),
        poly_degree=2 * g.n_edges,
        what="shifted edge set",
    )
    shifted = BipartiteGraph(g.a_size, g.b_size, verdict)
    if shifted.n_edges != g.n_edges:
        raise InvariantError("shifting failed to preserve the edge count")
    if not check_shifted(shifted):
        raise InputError(_TOO_SMALL.format(what="edge set", p=policy.prime))
    return ShiftedGraph(shifted, order, meta)


def _face_trial(k: BalancedComplex, order: VertexOrder):
    """One shifting trial of k's faces, one component per color support
    that k's faces use, each candidate tagged by its face."""
    components = [
        (t, {tuple(v for _, v in sorted(f)): f for f in faces})
        for t, faces in k.face_set.by_colors.items()
        if t  # not the empty face, which every complex has
    ]
    return _trial(
        k.color_sizes,
        components,
        lambda t, pick: order.lex_key(zip(t, pick)),
        lambda t, pick: frozenset(zip(t, pick)),
    )


def shift_complex(
    k: BalancedComplex,
    order: VertexOrder | None = None,
    policy: TrialPolicy = DEFAULT_POLICY,
) -> ShiftedComplex:
    """Balanced shifting of a complex, color set by color set.

    Defaults to the color-interleaved order, which is (l,...,l)-admissible for
    every l. Checks in one pass over the selected supports that they form a
    balanced-shifted complex and reads off its facets, then checks that its
    f-vector is k's. Colors over ``SHIFT_SIDE_CAP`` and candidate bounds over
    ``SHIFT_CANDIDATE_CAP`` are refused before any face is derived.
    """
    _check_shift_size(k.color_sizes, {frozenset(c for c, _ in f) for f in k.facets})
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
        # a candidate entry on a face is a product of one drawn entry per
        # vertex, so each component's minor has degree |t| times its faces
        poly_degree=sum(map(len, all_faces(k))),
        what="shifted face set",
    )
    faces = verdict | {frozenset()}
    facets = _shifted_facets(faces)
    if facets is None:
        raise InputError(_TOO_SMALL.format(what="face set", p=policy.prime))
    if sorted(map(len, faces)) != sorted(map(len, all_faces(k))):
        raise InvariantError("shifting failed to preserve the f-vector")
    return ShiftedComplex(BalancedComplex(k.color_sizes, facets), order, meta)


def _shifted_facets(faces) -> frozenset | None:
    """The facets of ``faces`` when every face stays in it as one vertex
    (c, i) is dropped and as it is replaced by (c, i - 1), else None. By
    induction the second step reaches every smaller vertex of color c. In a
    set closed under the first step a face is a facet exactly when it is no
    face minus a vertex, so the facets come out of the same pass."""
    covered = set()
    for f in faces:
        for c, i in f:
            rest = f - {(c, i)}
            if rest not in faces or (i > 1 and rest | {(c, i - 1)} not in faces):
                return None
            covered.add(rest)
    return faces - covered


def check_shifted(obj: BipartiteGraph | BalancedComplex) -> bool:
    """Whether replacing a vertex of any edge or face by the next smaller
    vertex of its side (color) always yields an edge or face. By induction
    this holds for every smaller vertex."""
    if isinstance(obj, BipartiteGraph):
        edges = obj.edges
        return all(
            (i == 1 or (i - 1, j) in edges) and (j == 1 or (i, j - 1) in edges)
            for i, j in edges
        )
    return _shifted_facets(all_faces(obj)) is not None


def contains_complete_bipartite(g: BipartiteGraph, r: int, s: int) -> bool:
    """Whether K_{r,s} (r on side A, s on side B) is a subgraph of g.

    For a balanced-shifted graph this reduces to one edge membership. In
    general only the A-vertices of degree at least s can lie in a K_{r,s},
    and their r-subsets are searched for s common neighbours, or those of
    the B-vertices of degree at least r for r common neighbours when they
    are fewer; more than ``SUBSET_SEARCH_CAP`` subsets are refused before
    the search.
    """
    if r < 1 or s < 1:
        raise InputError("subgraph sides must be positive")
    if r > g.a_size or s > g.b_size:
        return False
    if check_shifted(g):
        return (r, s) in g.edges
    around_a: dict[int, set[int]] = {}
    around_b: dict[int, set[int]] = {}
    for i, j in g.edges:
        around_a.setdefault(i, set()).add(j)
        around_b.setdefault(j, set()).add(i)
    side = [n for n in around_a.values() if len(n) >= s]
    other = [n for n in around_b.values() if len(n) >= r]
    if math.comb(len(other), s) < math.comb(len(side), r):
        side, r, s = other, s, r
    check_cap("subgraph search side subsets", math.comb(len(side), r), SUBSET_SEARCH_CAP)
    return any(len(set.intersection(*sub)) >= s for sub in itertools.combinations(side, r))


def contains_join(k: BalancedComplex, m: int) -> bool:
    """Whether the join of m points per color is a subcomplex of k.

    For a balanced-shifted complex this is a single facet membership (the
    m-th vertex of every color); in general the m-subsets are searched
    color by color. Given the subsets of the earlier colors, only the
    vertices of the next color that extend every pick of those subsets to
    a face can join it, so only their m-subsets are tried, and at the last
    color they are only counted. More than ``SUBSET_SEARCH_CAP`` ways of
    picking m vertices per color are refused before the search.
    """
    if m < 1:
        raise InputError("join size must be positive")
    sizes = k.color_sizes
    if any(size < m for size in sizes):
        return False
    if check_shifted(k):
        return is_face(k, frozenset((c, m) for c in range(1, k.n_colors + 1)))
    ways = math.prod(math.comb(size, m) for size in sizes)
    check_cap("join search color subsets", ways, SUBSET_SEARCH_CAP)
    closure = k.face_set.closure

    def extends(c: int, partial: list[frozenset]) -> bool:
        """Whether m vertices of each color from c on extend every face in
        ``partial``, one vertex of each earlier color, to the join."""
        if c > len(sizes):
            return True
        vertices = range(1, sizes[c - 1] + 1)
        fits = [i for i in vertices if all(f | {(c, i)} in closure for f in partial)]
        if c == len(sizes):
            return len(fits) >= m
        return any(
            extends(c + 1, [f | {(c, i)} for f in partial for i in subset])
            for subset in itertools.combinations(fits, m)
        )

    return extends(1, [frozenset()])
