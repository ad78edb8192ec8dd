"""Rigidity matrices, stress spaces, sparsity counts, and their reports.

The (k,l)-rigidity matrix of a bipartite graph has one row per edge and one
column block per vertex: l slots for each A-vertex and k slots for each
B-vertex. The row of edge ab' carries, in the block of a, the l random
parameters attached to b', and in the block of b', the k parameters attached
to a; everything else is zero. Rank decides everything: rows independent
means stress-free, rank l|A| + k|B| - kl means rigid.

The facet-ridge matrix of a pure balanced complex is the higher-dimensional
analog: one row per facet, a block of columns per ridge, and the block of
(F, G) is the vector of the vertex F - G when G is a ridge of F. Give color
c a width w_c, the leading rows of its random block that are read, and a
ridge the width of the color it misses. Read a bipartite graph as a 2-color
complex, side A color 1 and side B color 2: its facets are the edges and
its ridges the vertices. At widths (k, l) the row of edge ab' carries the
l-vector of b' in the block of {a} and the k-vector of a in the block of
{b'}: the facet-ridge matrix of that complex at widths (k, l) is the
(k,l)-rigidity matrix of the graph, for k ≠ l as for k = l (as Babson and
Novik's balanced shifting, restricted to graphs, is bipartite rigidity).
Both builders draw their parameters from the
same per-color random blocks, so cross-checks against shifting can share
one draw, and both lay their matrices out with one routine, ``_layout``;
each supplies only its picks (a facet's vertex of each color) and its
ridges (``_graph_join``, ``_complex_join``). ``_layout`` reads them as
blocks, the ridges each row meets and the vectors that fill it, and
``exactla.lay_out`` places every column.

The matrices carry no labels; this is their shape. Rows are the facets in
sorted order: a graph's edges as ``sorted(g.edges)``, a complex's facets
as sorted picks. Columns come in whole blocks, a vertex block of width l
for an A-vertex or k for a B-vertex, or a ridge block of width l, in an
order internal to the layout. ``StressBasis.edges`` names the rows that a
stress vector weighs.

A ridge that at most its block width of the remaining rows meet (l edges
at an A-vertex, k at a B-vertex, w_c facets at a ridge missing color c)
owns columns no other row reaches: the bipartite analogue of undoing a
Henneberg 0-extension. ``exactla.lay_out`` finds these blocks from the
block structure before it places any column, and the cached layout
(``exactla.Layout``) fixes the peel and the column order, for graphs and
complexes alike: the peeled blocks in peel order, then the blocks the
remaining rows meet, those that fewest of them meet first, then the rest.
Side A first, then side B, would fill in one clique per vertex; this
order, which stores no fill to find, ranks a sphere quadrangulation's core
as fast as a minimum-degree order did (CHANGES.md). Ranks do not depend on
the column order, and neither do stress bases, whose vectors each express
a dependent row through the independent rows before it. A builder draws
nothing per row: it hands ``GenericMatrix`` the layout and the trial's
vertex vectors, and each row is its columns and the vectors that fill it.
The block checks read those vectors, and rank and left kernel build and
eliminate only the rows that remain; a tree at (1,1) and the facet-ridge
matrix of a sphere at l = 2 peel whole and build no row.

Every rank query is capped on the parameters and rows it draws and on the
columns of its matrix (``RANK_SIZE_CAP``), before it draws or allocates
anything.

The drawn rows are the leading rows of a unit upper triangular block. A
generic set of rows is an invertible T times such rows, and T, applied to
one side's or one color's rows, acts on either matrix as an invertible
change of the columns of each vertex or ridge block that reads them. So
rank and left kernel are a generic draw's, with the same degree bounds.

A matrix with many rows is ranked through the rows it lacks. With Θ_A the
|A|×k matrix of the A-vertex vectors and N_A = {u : u^T Θ_A = 0}, the
stress space of K_{A,B} is N_A ⊗ N_B: each u ⊗ v is a stress, and the
motions (Θ_A C, -Θ_B C^T), C a k×l matrix, leave no room for more. A
subgraph G keeps the stresses that vanish on its non-edges. Call a vertex
near when it is among the first k of A or the first l of B, far otherwise;
at a unit upper triangular draw the basis row u_a of N_A is a unit vector
for a far a (``exactla.kernel_rows``), so the far non-edges give distinct
unit rows, and rank R(G) is E less the far edges plus the rank of the
products u_a ⊗ v_b of the near non-edges on the far edges. The facet-ridge
matrix of a pure complex inside the complete join of its color classes is
the same, color by color, with left kernel ⊗_c N_c; so its rank is at most
Π n_c − Π (n_c − min(w_c, n_c)) at every draw, which is ``max_rank`` for a
graph within its sides, and the layout keeps that bound. ``_Complement``
ranks those products; a block that is not unit upper triangular fails its
guard and ranks by elimination. ``analyze``, ``rows_independent_M`` and
``stress_space`` take this route by one structural rule (``_complement``),
and both routes meet in ``_rank``, and for stress bases in ``_stresses``.
A left kernel returns the reverse-reduced basis of the stress space in
edge order, which the space alone fixes, so ``_complement_stresses`` reads
the same vectors off N_A ⊗ N_B. Each route hands its basis on as the
``{edge index: residue}`` entries it holds, the equilibrium check reads
only those, and ``stress_space`` builds each dense vector once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, count, product, repeat
from math import inf, prod
from operator import add, gt, itemgetter, mul
from typing import Callable, Iterable, Sequence

from .combinat import BalancedComplex, BipartiteGraph, f_vector
from .errors import InputError, InvariantError, check_cap
from .exactla import (
    DEFAULT_POLICY,
    Echelon,
    GenericMatrix,
    TrialMeta,
    TrialPolicy,
    kernel_rows,
    lay_out,
    run_trials,
    sample_theta,
    unit_upper,
)
from .shifting import contains_join, shift_complex


#: Most parameters a rank query draws, each drawn row counted as one more
#: (a row is drawn even for an empty side), and most columns its matrix has.
RANK_SIZE_CAP = 1 << 18


#: Most entries a stress basis is sure to return: E times the least
#: dimension, E - (l|A| + k|B|). K_{70,70} at (2,2) returns 22.6 million in
#: 1.5 s at a peak of 191 MiB (about 8 bytes an entry, nearly all of them
#: zeros; 3 trials, two ranks and one basis through the complement), so the
#: cap is about a quarter of a GiB of such entries, more where a basis is
#: dense.
STRESS_OUTPUT_CAP = 1 << 25


def _check_rank_size(drawn: int, columns: int) -> None:
    """Refuse a rank query before it draws or allocates anything per row,
    vertex or column."""
    check_cap("rank query parameters and rows drawn", drawn, RANK_SIZE_CAP)
    check_cap("rank query columns", columns, RANK_SIZE_CAP)


def _check_parameters(**values) -> None:
    """Refuse a k or l, named by its keyword, that is not an int (a bool or
    a float included) or is below 1, before any cap or draw reads it."""
    for name, value in values.items():
        if type(value) is not int:
            raise InputError(f"{name} must be an integer, not {type(value).__name__}")
    if min(values.values()) < 1:
        raise InputError(f"{' and '.join(values)} must be positive")


def max_rank(g: BipartiteGraph, k: int, l: int) -> int:
    """l|A| + k|B| - kl, the rank of the complete graph on the same sides."""
    return l * g.a_size + k * g.b_size - k * l


@lru_cache(maxsize=8)
def _layout(x, widths: tuple[int, ...], join: Callable):
    """The ``exactla.Layout`` of the facet-ridge matrix of the pure complex
    that ``join`` reads ``x`` as (``_graph_join``, ``_complex_join``),
    color c reading the leading ``widths[c]`` rows of its block. Cached,
    bounded, so that every trial of a verdict call reads one layout.

    ``join(x)`` gives the color sizes, the facets as sorted picks (one
    vertex index per color) and the ridges. A ridge is a pick with ``inf``
    for the vertex it lacks, so ridges sort as their vertices do; None
    stands for the ridges the facets meet, sorted. Each ridge is a block
    with the width of the color it misses, and blocks are numbered in ridge
    order. The row of pick q meets the ridge q less its vertex of each
    color, from the last color back, and that vertex's vector fills it
    there; the vectors are numbered color by color. ``exactla.lay_out``
    peels, orders and places the columns from that block structure alone.
    The rank is at most the join bound Π n_c − Π (n_c − min(w_c, n_c)) at
    every draw (module docstring), which the layout keeps as its
    ``rank_bound``.
    """
    sizes, picks, ridges = join(x)
    at = list(zip(*picks)) or [()] * len(sizes)  # per color, the picks' vertices
    colors = range(len(sizes) - 1, -1, -1)
    lacking = [inf] * len(picks)
    if ridges is None:
        ridges = sorted({r for c in colors for r in zip(*at[:c], lacking, *at[c + 1 :])})
    index = dict(zip(ridges, count()))
    by_color = [[*map(index.__getitem__, zip(*at[:c], lacking, *at[c + 1 :]))] for c in colors]
    first = [*accumulate(sizes, initial=-1)]  # vector first[c] + i is vertex i of color c
    # on no color, each pick is one empty row
    fills = tuple(zip(*[map(add, at[c], repeat(first[c])) for c in colors])) or ((),) * len(picks)
    bound = prod(sizes) - prod(n - min(w, n) for n, w in zip(sizes, widths))
    return lay_out([widths[r.index(inf)] for r in ridges], by_color, fills, bound)


def _graph_join(g: BipartiteGraph) -> tuple:
    """g as a 2-color complex for ``_layout``: side A is color 1 and side
    B color 2, the edges are the picks, and the vertices, isolated ones
    included, are the ridges, so A-vertex a is block a - 1 and B-vertex b
    block |A| + b - 1."""
    a, b = range(1, g.a_size + 1), range(1, g.b_size + 1)
    ridges = [*zip(a, repeat(inf)), *zip(repeat(inf), b)]
    return (g.a_size, g.b_size), tuple(g.edge_list()), ridges


def build_rigidity_matrix(
    g: BipartiteGraph, k: int, l: int, theta: tuple, p: int
) -> GenericMatrix:
    """The (k,l)-rigidity matrix of g for the given per-side blocks.

    ``theta`` is the pair (A-block, B-block) as produced by sample_theta for
    the side sizes of g, with at least k and l rows. Rows are the edges in
    sorted order. The columns of edge ab' are the l of the block of a, then
    the k of the block of b'. The order of the blocks is internal, the one
    ``exactla.lay_out`` gives. Only the vertex vectors are read here, and no
    row is built; the layout, with its peel and column order, is the
    facet-ridge layout of g's 2-color complex at widths (k, l)
    (``_layout``).
    """
    return _matrix(g, (g.a_size, g.b_size), (k, l), _graph_join, theta, p)


def _matrix(x, sizes: tuple, widths: tuple, join: Callable, theta: Sequence, p: int) -> GenericMatrix:
    """The facet-ridge matrix of the ``_layout`` of x at the draw ``theta``,
    one block per color: the vector of vertex i of color c is column i of
    the leading ``widths[c]`` rows of block c. Only the vertex vectors are
    read here, and no row is built."""
    if any(map(gt, widths, map(len, theta))):
        raise InputError("the matrix needs the leading rows of every block that it reads")
    vectors = [list(zip(*block[:w]))[:n] for block, w, n in zip(theta, widths, sizes)]
    if tuple(map(len, vectors)) != sizes:
        raise InputError("the matrix needs a block column per vertex of its side or color")
    return GenericMatrix(p, _layout(x, widths, join), list(chain.from_iterable(vectors)))


# ---------------------------------------------------------------------------
# Ranks through the complement in the complete join
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Complement:
    """The rank of a rigidity or facet-ridge matrix at a draw, read off the
    picks of the complete join that are not its rows (module docstring).

    A pick is one vertex per side or color, numbered from 1; a vertex is
    near when it is among the first ``leads`` of its side or color, and far
    otherwise. ``base`` is the row count less the far rows. ``rows`` holds
    each near pick that is not a row and meets a far row, sparsest first,
    as its product's entries on the far rows: their columns, and per near
    color c of the pick, ``(c, i, offsets)``, the entries being the
    products of row i of color c's kernel rows at those offsets.
    ``n_columns`` counts the far rows that some product meets, which bound
    the rank of the products.
    """

    base: int
    rows: tuple[tuple[tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...]], ...]
    n_columns: int

    def rank(self, p: int, blocks: Sequence[Sequence[Sequence[int]]]) -> int | None:
        """The rank at the draw ``blocks``, one per side or color with the
        leading rows its matrix reads: ``base`` plus the rank of the
        ``rows``. None when a block fails the guard of ``kernel_rows``,
        whose premise the identity needs; with no rows, only the guard
        runs."""
        if not self.rows:
            return self.base if all(map(unit_upper, blocks)) else None
        kernels = [kernel_rows(p, block) for block in blocks]
        if None in kernels:
            return None
        echelon = Echelon(p)
        pivots = echelon.pivots
        for columns, ((c, i, offsets), *more) in self.rows:
            if len(pivots) == self.n_columns:
                break  # every later row is dependent
            values = map(kernels[c][i].__getitem__, offsets)
            for c, i, offsets in more:
                values = map(mul, values, map(kernels[c][i].__getitem__, offsets))
            echelon.insert(dict(zip(columns, values)))
        return self.base + len(pivots)


def _near_sets(sizes: Sequence[int], leads: Sequence[int]) -> Iterable[tuple]:
    """Per set of near colors, most colors first: those colors, a pick's
    vertices at the other colors, and every pick near at exactly those."""
    colors = range(len(leads))
    for size in range(len(leads), 0, -1):
        for near in combinations(colors, size):
            off = [c for c in colors if c not in near]
            ranges = [
                range(1, m + 1) if c in near else range(m + 1, n + 1)
                for c, (n, m) in enumerate(zip(sizes, leads))
            ]
            yield near, itemgetter(*off) if off else itemgetter(slice(0)), product(*ranges)


@lru_cache(maxsize=8)
def _complement(
    sizes: tuple[int, ...], widths: tuple[int, ...], picks: frozenset, ruled: bool = True
) -> _Complement | None:
    """The ``_Complement`` of the matrix whose rows are the set ``picks``
    in the complete join of the given sizes, color c reading ``widths[c]``
    rows, so that its first min(widths[c], sizes[c]) vertices are near.
    Above a side or color, every vertex of it is near. Cached, bounded, as
    the layouts are, so that the verdict calls on one input share it.

    When ``ruled``, the input takes this route, and else gets None, when it
    has no far row, or more rows than near picks, which is fewer near
    non-rows than far rows, and their products hold at most the entries of
    its matrix, the rows times the sum of the leads. For a graph within its
    sides, ``max_rank`` counts the near pairs, so more rows is E > max_rank.

    A near pick's product meets the far rows that agree with it at its far
    vertices, so the far rows are counted by their vertices off each set of
    near colors, and every product's count goes into the budget before any
    row is listed. A near pick near in every color meets every far row. The
    columns that some product meets go by how many products meet them,
    fewest first, as a pivot then leads where few rows reach.
    """
    leads = tuple(map(min, widths, sizes))
    n_near = prod(sizes) - prod(n - m for n, m in zip(sizes, leads))
    if ruled and len(picks) <= n_near and any(all(map(gt, pick, leads)) for pick in picks):
        return None
    far = list(picks)
    for c, lead in enumerate(leads):  # keep the picks whose every vertex is far
        far = [pick for pick in far if pick[c] > lead]
    budget = len(picks) * sum(leads) if ruled else inf
    sets, entries = {}, 0  # per set of near colors: the projection, the near non-rows by key
    for near, project, near_picks in _near_sets(sizes, leads) if far else ():
        absent = defaultdict(list)
        for pick in near_picks:
            if pick not in picks:
                absent[project(pick)].append(pick)
        if absent:
            # a pick near in every color meets every far row
            counts = Counter(map(project, far)) if len(near) < len(leads) else {(): len(far)}
            entries += sum(counts.get(key, 0) * len(ps) for key, ps in absent.items())
            if entries > budget:
                return None
            sets[near] = project, absent
    met: dict[tuple, list] = {}  # per near colors and far vertices, the far rows met
    touched: Counter = Counter()
    for near, (project, absent) in sets.items():
        for q in far:
            key = project(q)
            if key in absent:
                met.setdefault((near, key), []).append(q)
                touched[q] += len(absent[key])
    column = {q: j for j, q in enumerate(sorted(touched, key=lambda q: (touched[q], q)))}
    rows = []
    for (near, key), qs in met.items():
        qs.sort(key=column.__getitem__)
        columns = tuple(map(column.__getitem__, qs))
        offsets = {c: tuple(q[c] - leads[c] - 1 for q in qs) for c in near}
        rows += [
            (columns, tuple((c, pick[c] - 1, offsets[c]) for c in near))
            for pick in sets[near][1][key]
        ]
    rows.sort(key=lambda row: len(row[0]))
    return _Complement(len(picks) - len(far), tuple(rows), len(column))


def _rank(
    complement: _Complement | None,
    blocks: Sequence,
    p: int,
    build: Callable[[], GenericMatrix],
) -> int:
    """The rank at one draw, the dispatch of both routes: through the
    complement when the input takes that route and the draw passes its
    guard, else by eliminating the matrix ``build`` returns."""
    rank = None if complement is None else complement.rank(p, blocks)
    return build().rank() if rank is None else rank


def _complement_stresses(
    g: BipartiteGraph, k: int, l: int, theta: Sequence, p: int
) -> list[dict[int, int]] | None:
    """The stress basis ``left_kernel`` returns at the draw ``theta``, read
    off N_A ⊗ N_B, each vector as ``{edge index: residue}`` on the edges
    it may weigh; None when a block fails the guard of ``kernel_rows``.

    A stress of g is Σ c_ab u_a ⊗ v_b over its far edges ab, with weight
    c_ab there, that vanishes on every near non-edge xy: the products
    u_x[a] v_y[b] of the far edges whose box (the near vertices and a, by
    the near vertices and b) holds xy cancel. The far edges go into one
    echelon in edge order, each a row of those products with a tag column
    of its own, as the rows of ``left_kernel`` do, so a far edge that
    depends on the earlier ones gives the c with 1 there and the rest on
    earlier independent far edges. The last edge that a nonzero stress
    weighs is far, so this is the same reverse-reduced basis.

    The near vertices are split as ``_complement`` splits them, but
    the boxes are listed here, not read off the cached ``_Complement``: its
    products run per near non-edge across the far edges, in pivot order,
    and a basis needs their transpose, far edge by far edge in edge order,
    with each box's edges to expand c on, which no rank reads.
    """
    kernels = [kernel_rows(p, block[:n]) for block, n in zip(theta, (k, l))]
    if None in kernels:
        return None
    (ya, yb), edges = kernels, g.edge_list()
    ka, lb, width = min(k, g.a_size), min(l, g.b_size), g.b_size + 1
    index = {e: i for i, e in enumerate(edges)}
    echelon, boxes, basis = Echelon(p), {}, []  # boxes: of the independent far edges
    for f, (a, b) in enumerate(e for e in edges if e[0] > ka and e[1] > lb):
        row = {f: 1}  # the products on the near non-edges, the tag at f
        box = boxes[f] = []
        for x, u in [*zip(range(1, ka + 1), [y[a - ka - 1] for y in ya]), (a, 1)]:
            for y, v in [*zip(range(1, lb + 1), [y[b - lb - 1] for y in yb]), (b, 1)]:
                i = index.get((x, y))
                if i is None:
                    row[-x * width - y] = u * v  # below every tag
                else:
                    box.append((i, u * v))
        c = row  # with no product, u_a ⊗ v_b is a stress of g
        if len(row) > 1:
            lead = echelon.insert(row)
            if lead < 0:
                continue  # independent of the earlier far edges
            c, value, _ = echelon.drop(lead)
            c[lead] = value
        weights = defaultdict(int)
        for j, cj in c.items():
            for i, x in boxes[j]:
                weights[i] += cj * x
        basis.append({i: x % p for i, x in weights.items()})
        del boxes[f]  # a dependent far edge is in no later c
    return basis


def _stresses(
    routed: bool, g: BipartiteGraph, k: int, l: int, theta: Sequence, p: int
) -> list[dict[int, int]]:
    """A stress basis at one draw, the kernel's dispatch: read off the
    complement when g takes that route (``_complement``) and the draw
    passes its guard, else the left kernel of the matrix, whose vectors
    are put in the same ``{edge index: residue}`` form. Both give the
    same vectors."""
    basis = _complement_stresses(g, k, l, theta, p) if routed else None
    if basis is None:
        kernel = build_rigidity_matrix(g, k, l, theta, p).left_kernel()
        basis = [{i: x for i, x in enumerate(w) if x} for w in kernel]
    return basis


def _dense(support: dict[int, int], n: int) -> tuple[int, ...]:
    """The vector of length n with the entries ``support``, zero elsewhere."""
    w = [0] * n
    for i, x in support.items():
        w[i] = x
    return tuple(w)


@dataclass(frozen=True)
class RigidityReport:
    """Verdicts for one graph and one (k, l) pair."""

    k: int
    l: int
    rank: int
    max_rank: int
    n_edges: int
    is_rigid: bool
    is_stress_free: bool
    stress_dim: int
    meta: TrialMeta
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "l": self.l,
            "rank": self.rank,
            "is_rigid": self.is_rigid,
            "is_stress_free": self.is_stress_free,
            "stress_dim": self.stress_dim,
            "max_rank": self.max_rank,
        }
        out.update(self.meta.to_json_dict())
        out["warnings"] = list(self.warnings)
        return out


def analyze(
    g: BipartiteGraph, k: int, l: int, policy: TrialPolicy = DEFAULT_POLICY
) -> RigidityReport:
    """Rank the (k,l)-rigidity matrix of g and fill in all verdicts.

    k or l exceeding a side size is permitted; the rank and the max-rank
    formula are applied verbatim and a warning is recorded, ahead of the
    trial meta's warnings. Each trial ranks through the complement when g
    takes that route (``_complement``), else by elimination. The
    parameters and rows drawn, k(|A| + 1) + l(|B| + 1), and the columns,
    l|A| + k|B|, are capped at ``RANK_SIZE_CAP``.
    """
    _check_parameters(k=k, l=l)
    _check_rank_size(k * (g.a_size + 1) + l * (g.b_size + 1), l * g.a_size + k * g.b_size)

    complement = _complement((g.a_size, g.b_size), (k, l), g.edges)

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
        return _rank(complement, theta, p, lambda: build_rigidity_matrix(g, k, l, theta, p))

    rank, meta = run_trials(
        policy,
        one_trial,
        poly_degree=min(g.n_edges, l * g.a_size + k * g.b_size),
        what=f"rank of the ({k},{l})-rigidity matrix",
    )
    oversized = k > g.a_size or l > g.b_size
    warnings = meta.warnings
    if oversized:
        oversize = "k or l exceeds a side size; verdicts use the formula verbatim"
        warnings = (oversize,) + warnings
    target = max_rank(g, k, l)
    if rank > g.n_edges:
        raise InvariantError(f"rank {rank} exceeds the edge count {g.n_edges}")
    if not oversized and rank > target:
        # holds for every draw: a rank at a point never exceeds the generic
        # rank, and the rows embed in the complete graph's matrix, whose
        # generic kernel contains the kl relation vectors
        raise InvariantError(f"rank {rank} exceeds the maximal rank {target}")
    return RigidityReport(
        k=k,
        l=l,
        rank=rank,
        max_rank=target,
        n_edges=g.n_edges,
        is_rigid=rank == target,
        is_stress_free=rank == g.n_edges,
        stress_dim=g.n_edges - rank,
        meta=meta,
        warnings=warnings,
    )


@dataclass(frozen=True)
class StressBasis:
    """Basis of the left kernel of the rigidity matrix, labeled by edges."""

    k: int
    l: int
    edges: tuple[tuple[int, int], ...]
    vectors: tuple[tuple[int, ...], ...]
    meta: TrialMeta

    @property
    def dim(self) -> int:
        return len(self.vectors)


def stress_space(
    g: BipartiteGraph, k: int, l: int, policy: TrialPolicy = DEFAULT_POLICY
) -> StressBasis:
    """Self-stresses of g: edge weightings with every vertex in equilibrium.

    The dimension, E minus the rank, must agree across trials; the basis is
    the one left kernel, of the first trial, in seed order, with the agreed
    dimension (after an escalation, an earlier trial may have another one).
    The first trial computes its basis and reads its dimension off it, and
    the other trials only rank, as ``analyze`` does, so a second basis is
    computed only when the agreed dimension is not the first trial's. Each
    basis and rank is read off the complement when g takes that route
    (``_stresses``, ``_rank``), with no matrix laid out, else eliminated.
    Every basis vector is re-verified against the vertex equilibrium
    equations of the induced embedding. Capped as ``analyze`` is, and on
    the entries the basis is sure to hold (``STRESS_OUTPUT_CAP``), before
    any draw.
    """
    _check_parameters(k=k, l=l)
    columns = l * g.a_size + k * g.b_size
    _check_rank_size(k * (g.a_size + 1) + l * (g.b_size + 1), columns)
    check_cap(
        "stress basis entries", g.n_edges * max(0, g.n_edges - columns), STRESS_OUTPUT_CAP
    )
    complement = _complement((g.a_size, g.b_size), (k, l), g.edges)
    routed = complement is not None
    # per dimension, the first trial's theta, with its basis when the trial
    # computed one; a ranking trial builds no matrix
    first_of_dim: dict[int, tuple] = {}

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
        if first_of_dim:
            dim = g.n_edges - _rank(
                complement, theta, p, lambda: build_rigidity_matrix(g, k, l, theta, p)
            )
            first_of_dim.setdefault(dim, (theta, None))
        else:
            basis = _stresses(routed, g, k, l, theta, p)
            dim = len(basis)
            first_of_dim[dim] = (theta, basis)
        return dim

    dim, meta = run_trials(
        policy,
        one_trial,
        poly_degree=min(g.n_edges, l * g.a_size + k * g.b_size),
        what="stress space dimension",
    )
    theta, basis = first_of_dim[dim]
    if basis is None:
        basis = _stresses(routed, g, k, l, theta, policy.prime)
    if len(basis) != dim:
        raise InvariantError(f"a stress basis of {len(basis)} vectors, not the agreed {dim}")
    edges = tuple(g.edge_list())  # the rows, in the order the basis reads them
    _verify_equilibrium(k, l, theta, policy.prime, edges, basis)
    return StressBasis(
        k=k,
        l=l,
        edges=edges,
        vectors=tuple(_dense(w, len(edges)) for w in basis),
        meta=meta,
    )


def _verify_equilibrium(k, l, theta, p, edge_labels, supports):
    """Each stress must cancel at every vertex of the induced embedding.

    At an A-vertex a the embedded neighbors are the l-vectors of the incident
    B-vertices, so the condition is sum(w_ab * theta_B[s][b]) = 0 per slot s;
    symmetrically at B-vertices. This recomputes the conditions directly
    instead of trusting the elimination. Each stress comes as the
    ``{edge index: residue}`` entries its producer holds (``_stresses``),
    every nonzero entry among them, and they are grouped by vertex: a
    vertex with no edge there has an empty, trivially satisfied sum. So the
    check of w costs O(|entries| * (k + l)), whatever E is.
    """
    theta_a, theta_b = theta
    for w in supports:
        at_a: dict[int, list[tuple[int, int]]] = defaultdict(list)
        at_b: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for idx, x in w.items():
            a, b = edge_labels[idx]
            at_a[a].append((x, b - 1))
            at_b[b].append((x, a - 1))
        for at, rows, where in (at_a, theta_b[:l], "an A-vertex"), (at_b, theta_a[:k], "a B-vertex"):
            for incident in at.values():
                for row in rows:
                    if sum(x * row[j] for x, j in incident) % p:
                        raise InvariantError(f"stress fails equilibrium at {where}")


# ---------------------------------------------------------------------------
# Sparsity counts
# ---------------------------------------------------------------------------

LAMAN_SIZE_CAP = 24


@dataclass(frozen=True)
class LamanReport:
    """Outcome of the hereditary sparsity check.

    ``witness`` names the first induced subgraph violating the subgraph count,
    as a pair of sorted index tuples; it is present exactly when that
    condition fails. A failing global count is reported separately.
    """

    k: int
    l: int
    holds: bool
    global_count_ok: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    subgraphs_checked: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "holds": self.holds,
            "global_count_ok": self.global_count_ok,
            "witness": None
            if self.witness is None
            else {"a": list(self.witness[0]), "b": list(self.witness[1])},
            "subgraphs_checked": self.subgraphs_checked,
        }


def laman_check(g: BipartiteGraph, k: int, l: int) -> LamanReport:
    """Exact-count condition plus hereditary sparsity on induced subgraphs.

    Brute force over all side subsets with |A'| >= k and |B'| >= l, masks in
    ascending numeric order (colex), stopping at the first violator. Inputs
    beyond the documented size cap are rejected.
    """
    _check_parameters(k=k, l=l)
    if g.a_size < k or g.b_size < l:
        raise InputError("sparsity check needs |A| >= k and |B| >= l")
    check_cap("sparsity brute force vertices", g.n_vertices, LAMAN_SIZE_CAP)
    global_ok = g.n_edges == max_rank(g, k, l)
    adj = [0] * (g.a_size + 1)
    for i, j in g.edges:
        adj[i] |= 1 << (j - 1)
    witness = None
    checked = 0
    for a_mask in range(1, 1 << g.a_size):
        if a_mask.bit_count() < k:
            continue
        a_rows = [adj[i + 1] for i in range(g.a_size) if a_mask >> i & 1]
        na = len(a_rows)
        for b_mask in range(1, 1 << g.b_size):
            nb = b_mask.bit_count()
            if nb < l:
                continue
            checked += 1
            count = sum((row & b_mask).bit_count() for row in a_rows)
            if count > l * na + k * nb - k * l:
                witness = (
                    tuple(i + 1 for i in range(g.a_size) if a_mask >> i & 1),
                    tuple(j + 1 for j in range(g.b_size) if b_mask >> j & 1),
                )
                return LamanReport(
                    k, l, False, global_ok, witness, checked
                )
    return LamanReport(k, l, global_ok, global_ok, None, checked)


# ---------------------------------------------------------------------------
# Facet-ridge matrices of balanced complexes
# ---------------------------------------------------------------------------


def _picks(kx: BalancedComplex) -> frozenset:
    """The facets of a pure complex as picks, each its vertex indices in
    color order."""
    return frozenset(tuple(i for _, i in sorted(f)) for f in kx.facets)


def _complex_join(kx: BalancedComplex) -> tuple:
    """kx for ``_layout``: its facets as sorted picks, and the ridges they
    meet, which ``_layout`` lists."""
    if not kx.is_pure():
        raise InputError("the facet-ridge matrix needs a pure complex")
    return kx.color_sizes, sorted(_picks(kx)), None


def build_M(kx: BalancedComplex, l: int, theta: list, p: int) -> GenericMatrix:
    """Facet-by-(ridge x l-slots) matrix of a pure balanced complex.

    ``theta`` holds one block per color (as from sample_theta on the color
    sizes, with at least l rows); the l-vector of vertex (c, i) is column i
    of the first l rows of block c. The block of facet F at ridge G is that
    vector for the vertex F - G when G is contained in F, else zero. Rows
    are the facets as sorted picks, and the columns are one block of l per
    ridge the facets meet, in an internal order. Only the vertex vectors
    are read here, and no row is built; the layout, with its peel, is kx's
    at width l in every color (``_layout``).
    """
    return _matrix(kx, kx.color_sizes, (l,) * kx.n_colors, _complex_join, theta, p)


@dataclass(frozen=True)
class MIndependenceReport:
    l: int
    independent: bool
    rank: int
    n_facets: int
    meta: TrialMeta

    def to_json_dict(self) -> dict:
        out = {
            "l": self.l,
            "rows_independent": self.independent,
            "rank": self.rank,
            "n_facets": self.n_facets,
        }
        out.update(self.meta.to_json_dict())
        return out


def rows_independent_M(
    kx: BalancedComplex, l: int, policy: TrialPolicy = DEFAULT_POLICY
) -> MIndependenceReport:
    """Whether the facet-ridge matrix has independent rows.

    By the shifting criterion this holds exactly when the shifted complex
    avoids the join of l+1 points per color; the cross-check lives in the
    test suite. Each trial ranks through the complement when kx takes that
    route (``_complement``), else by elimination. The parameters
    and rows drawn, l per vertex and color of the palette, and the columns,
    at most l per vertex of each facet, are capped at ``RANK_SIZE_CAP``.
    """
    _check_parameters(l=l)
    _check_rank_size(l * (sum(kx.color_sizes) + kx.n_colors), l * sum(map(len, kx.facets)))

    complement = _complement(kx.color_sizes, (l,) * kx.n_colors, _picks(kx)) if kx.is_pure() else None

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
        return _rank(complement, theta, p, lambda: build_M(kx, l, theta, p))

    rank, meta = run_trials(
        policy,
        one_trial,
        poly_degree=len(kx.facets),
        what="facet-ridge matrix rank",
    )
    return MIndependenceReport(
        l=l,
        independent=rank == len(kx.facets),
        rank=rank,
        n_facets=len(kx.facets),
        meta=meta,
    )


@dataclass(frozen=True)
class HeawoodReport:
    """Top-to-ridge face count comparison after shifting."""

    avoids_triple_join: bool
    inequality_holds: bool
    f_top: int
    f_ridge: int


def heawood_check(
    kx: BalancedComplex, policy: TrialPolicy = DEFAULT_POLICY
) -> HeawoodReport:
    """Shift with a (2,...,2)-admissible order and compare f_d with 2 f_{d-1}.

    When the shifted complex avoids the join of three points per color, every
    top face contains one of the two least vertices of some color, so dropping
    the least vertex maps top faces at most 2:1 onto ridges and the inequality
    f_d <= 2 f_{d-1} is forced. That counting argument needs the top faces to
    be colorful on the whole palette, so the check (an ``InvariantError``)
    fires only for pure complexes whose palette has exactly dim+1 colors; the
    report's fields are computed regardless.
    """
    fv = f_vector(kx)
    f_top = fv[-1]
    f_ridge = fv[-2] if len(fv) >= 2 else 0
    inequality = f_top <= 2 * f_ridge
    shifted = shift_complex(kx, policy=policy)
    avoids = not contains_join(shifted.complex, 3)
    if avoids and kx.is_pure() and kx.n_colors == kx.dim + 1 and not inequality:
        raise InvariantError("counting bound violated on a join-avoiding complex")
    return HeawoodReport(
        avoids_triple_join=avoids,
        inequality_holds=inequality,
        f_top=f_top,
        f_ridge=f_ridge,
    )
