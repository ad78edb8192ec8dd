"""The sparse echelon kernel against a dense reference elimination.

``dense_forward_eliminate`` is the dense row echelon that rank, greedy bases
and left kernels used to run on. It stays here as a differential oracle: the
two routes share no code, so a disagreement on rank, on the greedy
selection, or on the kernel exposes a bug in one of them.

``natural_rigidity_rows`` is the rigidity matrix in the layout it had
before its column blocks were reordered by the layout: every A-vertex
block before every B-vertex block, in index order. Ranks and stress bases
must not depend on the layout.

``dense_equilibrium`` is the stress check as it ran on the dense vectors,
finding each support among all E entries; the library checks the entries
its producers hold, and the dense check stays here as the oracle on every
vector of the golden stress cases.
"""

import os
import subprocess
import sys
import textwrap
from heapq import heappop
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balrig
from balrig import exactla, rigidity
from balrig.combinat import BipartiteGraph, complete_edges
from balrig.families import random_quadrangulation, random_tree
from balrig.errors import InvariantError
from balrig.exactla import (
    DEFAULT_PRIME,
    GreedyBasis,
    TrialPolicy,
    sample_theta,
)
from balrig.rigidity import (
    _dense,
    _verify_equilibrium,
    analyze,
    build_rigidity_matrix,
    max_rank,
    stress_space,
)
from explicit_rows import from_entries, unpeeled
from test_complement_route import graph_complement, inject_rank, sheared_draws, watch_left_kernels

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def dense_forward_eliminate(rows: list[list[int]], p: int, ncols: int) -> list[int]:
    """In-place row echelon of the first ``ncols`` columns of ``rows``.

    Pivoting is by position (first nonzero entry scanning down), which is
    exact over F_p. Returns the list of pivot columns; its length is the rank.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = pow(prow[c], p - 2, p)
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[c]:
                f = row[c] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def dense_rank(rows, p, ncols) -> int:
    return len(dense_forward_eliminate([list(r) for r in rows], p, ncols))


def dense_left_kernel(rows, p, ncols) -> list[tuple[int, ...]]:
    """One vector per row that depends on the independent rows before it:
    coefficient 1 on that row, and on the earlier independent rows the
    unique solution of the linear system that cancels it, by dense
    elimination and back-substitution. Zero elsewhere."""
    basis, kept = [], []
    for i, row in enumerate(rows):
        if dense_rank([rows[j] for j in kept] + [row], p, ncols) > len(kept):
            kept.append(i)
            continue
        # columns of the system: the kept rows, then the right-hand side -row
        system = [[rows[j][c] for j in kept] + [-row[c] % p] for c in range(ncols)]
        n = len(kept)
        assert dense_forward_eliminate(system, p, n) == list(range(n))
        x = [0] * n
        for r in reversed(range(n)):
            rest = system[r][n] - sum(system[r][j] * x[j] for j in range(r + 1, n))
            x[r] = rest * pow(system[r][r], -1, p) % p
        w = [0] * len(rows)
        w[i] = 1
        for j, xj in zip(kept, x):
            w[j] = xj
        basis.append(tuple(w))
    return basis


def dense_greedy(rows, p, ncols) -> list[int]:
    """Indices where the rank of the leading rows goes up."""
    selected, rank = [], 0
    for i in range(len(rows)):
        if dense_rank(rows[: i + 1], p, ncols) > rank:
            selected.append(i)
            rank += 1
    return selected


@st.composite
def matrices(draw):
    """(p, rows, ncols) with zero rows, repeated rows, scaled copies and
    empty shapes mixed in."""
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(0, 3), st.integers(0, p - 1))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "copy")))
        if kind == "zero" or (kind == "copy" and not rows):
            rows.append([0] * ncols)
        elif kind == "copy":
            src = draw(st.sampled_from(rows))
            scale = draw(st.integers(1, p - 1))
            rows.append([scale * v % p for v in src])
        else:
            rows.append([draw(entry) % p for _ in range(ncols)])
    return p, rows, ncols


def as_matrix(p, rows, ncols):
    return from_entries(p, [tuple((c, v) for c, v in enumerate(r) if v) for r in rows], ncols)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((2, [], 4))
@example((3, [[], [], []], 0))
@example((101, [], 0))
@example((DEFAULT_PRIME, [[0, 0, 0], [5, 0, 7], [0, 0, 0], [5, 0, 7]], 3))
def test_sparse_kernel_matches_dense_oracle(case):
    p, rows, ncols = case
    m = as_matrix(p, rows, ncols)
    rank = dense_rank(rows, p, ncols)
    assert m.rank() == rank

    greedy = GreedyBasis(p)
    for i, row in enumerate(rows):
        greedy.offer(i, dict(enumerate(row)))
    assert greedy.selected == dense_greedy(rows, p, ncols)
    assert greedy.rank == rank

    kernel = m.left_kernel()
    assert kernel == dense_left_kernel(rows, p, ncols)
    assert len(kernel) == len(rows) - rank
    for w in kernel:
        assert len(w) == len(rows)
        for c in range(ncols):
            assert sum(wi * row[c] for wi, row in zip(w, rows)) % p == 0
    # the kernel vectors are a basis, not just annihilators
    assert dense_rank(kernel, p, len(rows)) == len(kernel)


def dense_equilibrium(k, l, theta, p, edge_labels, basis):
    """Each dense stress w cancels at every vertex of the induced
    embedding: at an A-vertex a, sum(w_ab * theta_B[s][b]) = 0 per slot s,
    and symmetrically at B-vertices, over the support found among all E
    entries."""
    theta_a, theta_b = theta
    for w in basis:
        at_a: dict[int, list[tuple[int, int]]] = {}
        at_b: dict[int, list[tuple[int, int]]] = {}
        for idx, x in enumerate(w):
            if x:
                a, b = edge_labels[idx]
                at_a.setdefault(a, []).append((x, b - 1))
                at_b.setdefault(b, []).append((x, a - 1))
        for incident in at_a.values():
            for row in theta_b[:l]:
                if sum(x * row[b] for x, b in incident) % p:
                    raise InvariantError("stress fails equilibrium at an A-vertex")
        for incident in at_b.values():
            for row in theta_a[:k]:
                if sum(x * row[a] for x, a in incident) % p:
                    raise InvariantError("stress fails equilibrium at a B-vertex")


def supports(vectors) -> list[dict[int, int]]:
    """Dense vectors as the ``{edge index: residue}`` entries the library
    checks."""
    return [{i: x for i, x in enumerate(w) if x} for w in vectors]


def _k33_stresses():
    return stress_space(BipartiteGraph(3, 3, complete_edges(3, 3)), 1, 1, TrialPolicy(seed=4))


#: The library's check on the entries its producers hold, and the dense
#: oracle, each with the form of the vectors it reads
CHECKS = [(_verify_equilibrium, supports), (dense_equilibrium, list)]


def test_corrupted_stress_fails_equilibrium():
    basis = _k33_stresses()
    assert basis.dim == 4
    p = basis.meta.prime
    theta = sample_theta(p, TrialPolicy(seed=4).trial_seed(0), (3, 3), rows=(1, 1))
    bad = [list(v) for v in basis.vectors]
    bad[0][0] = (bad[0][0] + 1) % p
    for verify, as_checked in CHECKS:
        verify(1, 1, theta, p, basis.edges, as_checked(basis.vectors))
        with pytest.raises(InvariantError):
            verify(1, 1, theta, p, basis.edges, as_checked(bad))


def test_equilibrium_is_checked_at_both_sides():
    # w_11 = theta_B(2), w_12 = -theta_B(1) cancels at A-vertex 1 but not at
    # B-vertex 1; its mirror image cancels at B-vertex 1 but not at A-vertex 1
    p = DEFAULT_PRIME
    edges = tuple(sorted(complete_edges(3, 3)))
    (theta_a,), (theta_b,) = theta = sample_theta(p, 4, (3, 3), rows=(1, 1))
    at_a = [0] * 9
    at_a[edges.index((1, 1))], at_a[edges.index((1, 2))] = theta_b[1], -theta_b[0] % p
    at_b = [0] * 9
    at_b[edges.index((1, 1))], at_b[edges.index((2, 1))] = theta_a[1], -theta_a[0] % p
    for verify, as_checked in CHECKS:
        with pytest.raises(InvariantError, match="at a B-vertex"):
            verify(1, 1, theta, p, edges, as_checked([at_a]))
        with pytest.raises(InvariantError, match="at an A-vertex"):
            verify(1, 1, theta, p, edges, as_checked([at_b]))


def golden_stress_cases() -> list:
    from test_golden import STRESS_DIGESTS

    return list(STRESS_DIGESTS)


@pytest.mark.parametrize("case, seed", golden_stress_cases())
def test_golden_stresses_pass_the_dense_check_on_the_entries_checked(monkeypatch, case, seed):
    # the entries the library checks hold every nonzero entry of the
    # returned vectors, and every returned vector passes the dense check at
    # the draw it was checked at
    from test_golden import POLICIES, STRESS_CASES

    checked = []
    verify = rigidity._verify_equilibrium
    monkeypatch.setattr(rigidity, "_verify_equilibrium", lambda *a: checked.append(a) or verify(*a))
    g, k, l = STRESS_CASES[case]()
    basis = stress_space(g, k, l, POLICIES[seed])
    ((_, _, theta, p, edges, entries),) = checked
    assert edges == basis.edges and [_dense(w, len(edges)) for w in entries] == list(basis.vectors)
    dense_equilibrium(k, l, theta, p, edges, basis.vectors)


def test_corrupted_kernel_vector_raises(monkeypatch):
    # the basis is corrupted at the kernel's dispatch, on both routes: K_{3,3}
    # reads it off the complement, and the same edges with five isolated
    # vertices on each side, fewer than the maximal rank, eliminate
    kernels = watch_left_kernels(monkeypatch)
    dispatch = rigidity._stresses

    def corrupted(*args):
        basis = dispatch(*args)
        if basis:
            first = min(basis[0])
            basis[0] = {**basis[0], first: basis[0][first] + 1}
        return basis

    monkeypatch.setattr(rigidity, "_stresses", corrupted)
    for n, route in [(3, "complement"), (8, "elimination")]:
        kernels.clear()
        with pytest.raises(InvariantError):
            stress_space(BipartiteGraph(n, n, complete_edges(3, 3)), 1, 1, TrialPolicy(seed=4))
        assert ("elimination" if kernels else "complement") == route


def test_invariant_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from balrig import BipartiteGraph, InvariantError, analyze
        from balrig.exactla import GenericMatrix
        GenericMatrix.rank = lambda self: self.n_rows + 1
        try:
            analyze(BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)})), 1, 1)
        except InvariantError as exc:
            print("caught", exc.exit_code)
        """
    )
    src = Path(balrig.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "caught 6"


def test_max_rank_bound_is_checked():
    # K_{3,3} at (1,1) has 9 edges but a maximal rank of 5; a claimed rank of
    # 6 passes the edge bound and must fail the max-rank bound. Every graph
    # with more edges than its maximal rank takes the complement, so draws
    # sheared off the triangular form reach elimination; K_{3,3} at (2,2),
    # 9 edges and a maximal rank of 8, shears
    g = BipartiteGraph(3, 3, complete_edges(3, 3))
    for k, sheared in [(1, False), (2, False), (2, True)]:
        with pytest.MonkeyPatch.context() as mp:
            if sheared:
                sheared_draws(mp)
            routes = inject_rank(mp, lambda rank: max_rank(g, k, k) + 1)
            with pytest.raises(InvariantError, match="maximal rank"):
                analyze(g, k, k)
        assert routes == ["elimination" if sheared else "complement"] * 3


def natural_rigidity_rows(g, k, l, theta) -> list[list[int]]:
    """Dense rows of the (k,l)-rigidity matrix, edges in sorted order, the
    l slots of A-vertex a at columns (a-1)l.., then the k slots of B-vertex
    b at l|A| + (b-1)k.."""
    theta_a, theta_b = theta
    rows = []
    for a, b in sorted(g.edges):
        row = [0] * (l * g.a_size + k * g.b_size)
        for s in range(l):
            row[(a - 1) * l + s] = theta_b[s][b - 1]
        for s in range(k):
            row[l * g.a_size + (b - 1) * k + s] = theta_a[s][a - 1]
        rows.append(row)
    return rows


@st.composite
def rigidity_cases(draw):
    """(g, k, l, p, seed): sides of 0-8 vertices, isolated vertices among
    them, and k or l at times above a side."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 1.0)))
    edges = frozenset(e for e in pairs if draw(st.floats(0, 1)) < density)
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return BipartiteGraph(n, m, edges), k, l, draw(st.sampled_from(PRIMES)), draw(st.integers(0, 99))


@settings(max_examples=100, deadline=None)
@given(rigidity_cases())
def test_elimination_layout_keeps_ranks_and_stress_bases(case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    natural = natural_rigidity_rows(g, k, l, theta)
    ncols = l * g.a_size + k * g.b_size
    m = build_rigidity_matrix(g, k, l, theta, p)
    # row i is the i-th edge in sorted order, filled by its B-vertex's and
    # then its A-vertex's vector
    assert m.n_cols == ncols
    assert m.layout.fills == tuple((g.a_size + b - 1, a - 1) for a, b in sorted(g.edges))
    assert m.rank() == dense_rank(natural, p, ncols)
    assert m.left_kernel() == as_matrix(p, natural, ncols).left_kernel()


def test_stress_space_returns_the_natural_layouts_basis():
    g = BipartiteGraph(4, 4, complete_edges(4, 4) - {(1, 1), (2, 3)})
    policy = TrialPolicy(seed=8)
    basis = stress_space(g, 2, 2, policy)
    theta = sample_theta(policy.prime, policy.trial_seed(0), (4, 4), rows=(2, 2))
    natural = as_matrix(policy.prime, natural_rigidity_rows(g, 2, 2, theta), 16)
    assert basis.dim == 14 - 12
    assert list(basis.vectors) == natural.left_kernel()


@pytest.mark.parametrize(
    "g, k, l, policy",
    [
        (BipartiteGraph(4, 4, complete_edges(4, 4) - {(1, 1), (2, 3)}), 2, 2, TrialPolicy(seed=8)),
        (BipartiteGraph(4, 4, complete_edges(4, 4)), 2, 2, TrialPolicy(prime=5, seed=1)),
        # escalations: the first round disagrees, and the kept trial is the
        # first of any round with the dimension the doubled round agrees on
        (random_quadrangulation(6, seed=1), 2, 2, TrialPolicy(trials=2, prime=3, seed=17)),
        (random_quadrangulation(6, seed=1), 3, 1, TrialPolicy(trials=2, prime=3, seed=2)),
        (random_tree(4, 5, seed=0), 1, 1, TrialPolicy(trials=1)),
    ],
)
def test_stress_space_computes_one_kernel_per_verdict(monkeypatch, g, k, l, policy):
    # the first trial computes its stress basis through the one kernel
    # dispatch and reads its dimension off it, and every other trial ranks
    # through the one rank dispatch, both by the complement when g takes
    # that route; a second kernel runs only when the agreed dimension is not
    # the first trial's. The basis is the dense oracle's kernel of the
    # first trial, in seed order, whose rank gives the agreed dimension
    kernels, kernel_routes, ranks = [], [], []
    left_kernels = watch_left_kernels(monkeypatch)
    stresses = rigidity._stresses

    def watching_stresses(routed, g, k, l, theta, p):
        kernels.append(build_rigidity_matrix(g, k, l, theta, p))
        eliminated = len(left_kernels)
        basis = stresses(routed, g, k, l, theta, p)
        kernel_routes.append("elimination" if len(left_kernels) > eliminated else "complement")
        return basis

    monkeypatch.setattr(rigidity, "_stresses", watching_stresses)
    routes = inject_rank(monkeypatch, lambda rank: rank)
    dispatch = rigidity._rank
    def watching_rank(complement, blocks, p, build):
        ranks.append(build())
        return dispatch(complement, blocks, p, build)

    monkeypatch.setattr(rigidity, "_rank", watching_rank)
    basis = stress_space(g, k, l, policy)
    p, ncols = policy.prime, l * g.a_size + k * g.b_size
    ran = policy.trials + basis.meta.trials if basis.meta.escalated else policy.trials
    trials = []
    for i in range(ran):
        theta = sample_theta(p, policy.trial_seed(i), (g.a_size, g.b_size), rows=(k, l))
        trials.append(build_rigidity_matrix(g, k, l, theta, p))
    kept = next(
        i for i, m in enumerate(trials) if g.n_edges - dense_rank(m.rows, p, ncols) == basis.dim
    )
    assert kernels == ([trials[0]] if kept == 0 else [trials[0], trials[kept]])
    assert ranks == trials[1:]
    route = "complement" if graph_complement(g, k, l, ruled=True) else "elimination"
    assert routes == [route] * (ran - 1) and kernel_routes == [route] * len(kernels)
    assert list(basis.vectors) == dense_left_kernel(trials[kept].rows, p, ncols)


def test_a_tree_eliminates_without_a_pivot_reduction(monkeypatch):
    # a tree peels whole, so its rank sends no row to the echelon; even
    # unpeeled, with the blocks in peel order each edge row leads at its
    # leaf end, a column no earlier row reaches, so no row is reduced; the
    # layout with every A-vertex first needs 61 reductions here
    g = random_tree(10, 27, seed=5)
    theta = sample_theta(DEFAULT_PRIME, 0, (10, 27), rows=(1, 1))
    m = build_rigidity_matrix(g, 1, 1, theta, DEFAULT_PRIME)
    steps, inserted = [], []
    insert = exactla.Echelon.insert

    def counting_heappop(heap):
        steps.append(heap[0])
        return heappop(heap)

    def counting_insert(self, row):
        inserted.append(row)
        return insert(self, row)

    monkeypatch.setattr(exactla, "heappop", counting_heappop)
    monkeypatch.setattr(exactla.Echelon, "insert", counting_insert)
    assert m.rank() == g.n_edges == 36
    assert inserted == []
    assert unpeeled(m).rank() == 36
    assert len(inserted) == 36 and steps == []


def test_pivots_are_inverted_only_when_they_reduce_a_row(monkeypatch):
    # no lead is inverted before some pivot reduces a row, and then every
    # waiting lead is inverted with one pow; unpeeled, a quadrangulation
    # needs far fewer than its 128 pivots, and peeled, only the 22 pivots
    # of its core can wait
    inversions = []

    def counting_pow(base, exp, mod=None):
        inversions.append(exp == -1)
        return pow(base, exp, mod)

    monkeypatch.setattr(exactla, "pow", counting_pow, raising=False)
    quad = random_quadrangulation(64, seed=0)
    theta = sample_theta(DEFAULT_PRIME, 0, (quad.a_size, quad.b_size), rows=(2, 2))
    m = build_rigidity_matrix(quad, 2, 2, theta, DEFAULT_PRIME)
    assert unpeeled(m).rank() == 128
    assert 0 < sum(inversions) < 128
    inversions.clear()
    assert m.rank() == 128
    assert 0 < sum(inversions) <= len(m.layout.core) == 22


def test_one_pow_inverts_every_waiting_pivot(monkeypatch):
    # three pivots wait until a row needs one of them; then all three are
    # inverted with a single pow, and no pivot waits any more
    powers = []

    def counting_pow(base, exp, mod=None):
        powers.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(exactla, "pow", counting_pow, raising=False)
    echelon = exactla.Echelon(101)
    for lead, value in ((0, 2), (1, 3), (2, 7)):
        assert echelon.insert({lead: value, 3: 1}) == lead
    assert powers == [] and sorted(echelon.waiting) == [0, 1, 2]
    assert echelon.insert({0: 1, 1: 1, 2: 1, 3: 5}) == 3
    assert powers == [-1] and list(echelon.waiting) == [3]
    for lead, (_, value, inv) in echelon.pivots.items():
        assert (inv is None) == (lead == 3) and (inv is None or value * inv % 101 == 1)


@st.composite
def sparse_matrices(draw):
    """(p, rows, ncols) at a small prime, with zeros enough that several
    pivots often wait before one reduces a row."""
    p = draw(st.sampled_from((2, 3, 5, 101)))
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.just(0), st.integers(1, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=10))
    return p, rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example((5, [[1, 0, 0, 1], [0, 2, 0, 1], [0, 0, 3, 1], [1, 1, 1, 1], [4, 0, 0, 4]], 4))
def test_batched_inverses_are_inverses_and_drop_with_their_pivots(case):
    p, rows, ncols = case
    echelons, dropped = [], []
    init, drop = exactla.Echelon.__init__, exactla.Echelon.drop

    def watching_init(self, p):
        echelons.append(self)
        init(self, p)

    def watching_drop(self, lead):
        dropped.append(drop(self, lead))
        return dropped[-1]

    m = as_matrix(p, rows, ncols)
    with patch.object(exactla.Echelon, "__init__", watching_init), patch.object(
        exactla.Echelon, "drop", watching_drop
    ):
        assert m.rank() == dense_rank(rows, p, ncols)
        assert m.left_kernel() == dense_left_kernel(rows, p, ncols)
    assert len(dropped) == len(rows) - dense_rank(rows, p, ncols)
    for echelon in echelons:
        kept = echelon.pivots.values()
        for _, lead, inv in [*kept, *dropped]:
            assert inv is None or lead * inv % p == 1
        # a pivot waits exactly while its lead is not inverted, and a
        # dropped pivot is referenced no more
        assert {c for c, pivot in echelon.pivots.items() if pivot[2] is None} == set(echelon.waiting)
        assert all(echelon.pivots[c] is pivot for c, pivot in echelon.waiting.items())
        assert not any(pivot is gone for pivot in kept for gone in dropped)
