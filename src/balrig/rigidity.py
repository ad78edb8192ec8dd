"""Rigidity matrices, stress spaces, sparsity counts, and their reports.

The (k,l)-rigidity matrix of a bipartite graph has one row per edge and one
column block per vertex: l slots for each A-vertex and k slots for each
B-vertex. The row of edge ab' carries, in the block of a, the l random
parameters attached to b', and in the block of b', the k parameters attached
to a; everything else is zero. Rank decides everything: rows independent
means stress-free, rank l|A| + k|B| - kl means rigid.

The facet-ridge matrix of a pure balanced complex is the higher-dimensional
analog: one row per facet, l columns per ridge, and the block of (F, G) is
the l-vector of the vertex F - G when G is a ridge of F. For 1-dimensional
complexes it coincides with the (l,l)-rigidity matrix of the underlying
graph, and both constructions draw their parameters from the same per-side
(per-color) random blocks, so cross-checks against shifting can share one
draw.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .combinat import (
    BalancedComplex,
    BipartiteGraph,
    f_vector,
    ridges as complex_ridges,
)
from .errors import InputError, InvariantError, SizeCapError
from .exactla import (
    DEFAULT_POLICY,
    GenericMatrix,
    TrialMeta,
    TrialPolicy,
    run_trials,
    sample_theta,
)
from .shifting import contains_join, shift_complex


def max_rank(g: BipartiteGraph, k: int, l: int) -> int:
    """l|A| + k|B| - kl, the rank of the complete graph on the same sides."""
    return l * g.a_size + k * g.b_size - k * l


def build_rigidity_matrix(
    g: BipartiteGraph, k: int, l: int, theta: tuple, p: int
) -> GenericMatrix:
    """The (k,l)-rigidity matrix of g for the given per-side blocks.

    ``theta`` is the pair (A-block, B-block) as produced by sample_theta for
    the side sizes of g, with at least k and l rows. Column labels are
    (vertex, slot) pairs, slots 1-based; rows are edges in sorted order.
    """
    theta_a, theta_b = theta
    col_labels = [(("A", a), s) for a in range(1, g.a_size + 1) for s in range(1, l + 1)]
    col_labels += [(("B", b), s) for b in range(1, g.b_size + 1) for s in range(1, k + 1)]
    row_labels = g.edge_list()
    entries = []
    for a, b in row_labels:
        a_col = (a - 1) * l  # first column of a's block
        b_col = l * g.a_size + (b - 1) * k  # first column of b's block
        entries.append(
            tuple((a_col + s, theta_b[s][b - 1]) for s in range(l))
            + tuple((b_col + s, theta_a[s][a - 1]) for s in range(k))
        )
    return GenericMatrix(p, entries, row_labels, col_labels)


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
    formula are applied verbatim and a warning is recorded.
    """
    if k < 1 or l < 1:
        raise InputError("k and l must be positive")

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
        return build_rigidity_matrix(g, k, l, theta, p).rank()

    rank, meta = run_trials(
        policy,
        one_trial,
        poly_degree=min(g.n_edges, l * g.a_size + k * g.b_size),
        what=f"rank of the ({k},{l})-rigidity matrix",
    )
    warnings = []
    if k > g.a_size or l > g.b_size:
        warnings.append("k or l exceeds a side size; verdicts use the formula verbatim")
    target = max_rank(g, k, l)
    if rank > g.n_edges:
        raise InvariantError(f"rank {rank} exceeds the edge count {g.n_edges}")
    if not warnings and rank > target:
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
        warnings=tuple(warnings),
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

    The dimension must agree across trials; the returned basis comes from
    the first trial, in seed order, whose kernel has the agreed dimension
    (after an escalation, an earlier trial may have another one). Every
    basis vector is re-verified against the vertex equilibrium equations of
    the induced embedding.
    """
    if k < 1 or l < 1:
        raise InputError("k and l must be positive")
    first_of_dim: dict[int, tuple] = {}

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
        matrix = build_rigidity_matrix(g, k, l, theta, p)
        basis = matrix.left_kernel()
        first_of_dim.setdefault(len(basis), (theta, matrix, basis))
        return len(basis)

    dim, meta = run_trials(
        policy,
        one_trial,
        poly_degree=min(g.n_edges, l * g.a_size + k * g.b_size),
        what="stress space dimension",
    )
    if dim not in first_of_dim:
        raise InvariantError(f"no trial has a stress basis of the agreed dimension {dim}")
    theta, matrix, basis = first_of_dim[dim]
    _verify_equilibrium(k, l, theta, policy.prime, matrix.row_labels, basis)
    return StressBasis(
        k=k,
        l=l,
        edges=matrix.row_labels,
        vectors=tuple(tuple(v) for v in basis),
        meta=meta,
    )


def _verify_equilibrium(k, l, theta, p, edge_labels, basis):
    """Each stress must cancel at every vertex of the induced embedding.

    At an A-vertex a the embedded neighbors are the l-vectors of the incident
    B-vertices, so the condition is sum(w_ab * theta_B[s][b]) = 0 per slot s;
    symmetrically at B-vertices. This recomputes the conditions directly
    instead of trusting the elimination. Edges are grouped by vertex once, so
    the check costs O(dim * E * (k + l)); isolated vertices have only empty,
    trivially satisfied sums.
    """
    theta_a, theta_b = theta
    at_a: dict[int, list[tuple[int, int]]] = defaultdict(list)
    at_b: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for idx, (a, b) in enumerate(edge_labels):
        at_a[a].append((idx, b - 1))
        at_b[b].append((idx, a - 1))
    for w in basis:
        for incident in at_a.values():
            for s in range(l):
                row = theta_b[s]
                if sum(w[idx] * row[b] for idx, b in incident) % p:
                    raise InvariantError("stress fails equilibrium at an A-vertex")
        for incident in at_b.values():
            for s in range(k):
                row = theta_a[s]
                if sum(w[idx] * row[a] for idx, a in incident) % p:
                    raise InvariantError("stress fails equilibrium at a B-vertex")


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
    if k < 1 or l < 1:
        raise InputError("k and l must be positive")
    if g.a_size < k or g.b_size < l:
        raise InputError("sparsity check needs |A| >= k and |B| >= l")
    if g.n_vertices > LAMAN_SIZE_CAP:
        raise SizeCapError(
            f"sparsity brute force capped at {LAMAN_SIZE_CAP} vertices; "
            f"got {g.n_vertices}"
        )
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


def build_M(kx: BalancedComplex, l: int, theta: list, p: int) -> GenericMatrix:
    """Facet-by-(ridge x l-slots) matrix of a pure balanced complex.

    ``theta`` holds one block per color (as from sample_theta on the color
    sizes, with at least l rows); the l-vector of vertex (c, i) is column i
    of the first l rows of block c. The block of facet F at ridge G is that
    vector for the vertex F - G when G is contained in F, else zero.
    """
    if not kx.is_pure():
        raise InputError("the facet-ridge matrix needs a pure complex")
    facet_list = [frozenset(f) for f in kx.sorted_facets()]
    ridge_list = sorted(complex_ridges(kx), key=lambda r: sorted(r))
    ridge_base = {r: idx * l for idx, r in enumerate(ridge_list)}
    col_labels = [(tuple(sorted(r)), s) for r in ridge_list for s in range(1, l + 1)]
    entries = []
    for f in facet_list:
        entries.append(
            tuple(
                (ridge_base[f - {(c, i)}] + s, theta[c - 1][s][i - 1])
                for c, i in f
                for s in range(l)
            )
        )
    return GenericMatrix(p, entries, [tuple(sorted(f)) for f in facet_list], col_labels)


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
    test suite.
    """
    if l < 1:
        raise InputError("l must be positive")

    def one_trial(p: int, seed: int) -> int:
        theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
        return build_M(kx, l, theta, p).rank()

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

    def to_json_dict(self) -> dict:
        return {
            "avoids_triple_join": self.avoids_triple_join,
            "inequality_holds": self.inequality_holds,
            "f_top": self.f_top,
            "f_ridge": self.f_ridge,
        }


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
