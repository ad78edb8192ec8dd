import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import balrig
from balrig import families as fam
from balrig import rigidity, shifting
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    complete_edges,
    graph_to_complex,
    induced_subgraph,
)
from balrig.errors import InputError, InvariantError, SizeCapError
from balrig.exactla import TrialPolicy, sample_theta
from balrig.rigidity import (
    analyze,
    build_M,
    build_rigidity_matrix,
    heawood_check,
    laman_check,
    max_rank,
    rows_independent_M,
    stress_space,
)
from test_kernel_oracle import dense_left_kernel, dense_rank

POLICY = TrialPolicy(trials=2, seed=55)
P = POLICY.prime


def K(n, m):
    return BipartiteGraph(n, m, complete_edges(n, m))


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------


def test_single_edge_matrix():
    g = K(1, 1)
    theta = sample_theta(P, 0, (1, 1), rows=(1, 1))
    m = build_rigidity_matrix(g, 1, 1, theta, P)
    assert m.n_rows == 1 and m.n_cols == 2
    assert m.rows[0] == (theta[1][0][0], theta[0][0][0])
    assert m.rank() == 1


def definition_rows(g, k, l, theta) -> list[list[int]]:
    """The (k,l)-rigidity matrix of g as the paper defines it, dense: one
    row per edge, sorted, and a block per vertex, l columns for an A-vertex
    and k for a B-vertex. The row of edge ab holds column b of the first l
    rows of the B-block in the block of a, column a of the first k rows of
    the A-block in the block of b, and zeros elsewhere."""
    theta_a, theta_b = theta
    blocks = [("A", a, s) for a in range(1, g.a_size + 1) for s in range(l)]
    blocks += [("B", b, s) for b in range(1, g.b_size + 1) for s in range(k)]
    column = {label: j for j, label in enumerate(blocks)}
    rows = []
    for a, b in sorted(g.edges):
        row = [0] * len(blocks)
        for s in range(l):
            row[column["A", a, s]] = theta_b[s][b - 1]
        for s in range(k):
            row[column["B", b, s]] = theta_a[s][a - 1]
        rows.append(row)
    return rows


def test_the_rigidity_matrix_is_the_papers_definition():
    # the builder lays the matrix out as the facet-ridge matrix of the
    # graph's 2-color complex; its rank and stress basis must be those of
    # the matrix written from the definition, with k and l apart and at
    # times above a side
    rng = random.Random(26)
    for p, seed in itertools.product([2, 3, 5, P], range(40)):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        g = BipartiteGraph(n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.6))
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        theta = sample_theta(p, seed, (n, m), rows=(k, l))
        rows, ncols = definition_rows(g, k, l, theta), l * n + k * m
        matrix = build_rigidity_matrix(g, k, l, theta, p)
        assert matrix.n_cols == ncols
        # row i is the i-th edge in sorted order, as the definition's rows
        assert matrix.layout.fills == tuple((n + b - 1, a - 1) for a, b in sorted(g.edges))
        assert matrix.rank() == dense_rank(rows, p, ncols)
        assert matrix.left_kernel() == dense_left_kernel(rows, p, ncols)


def test_matrix_dimensions():
    g = K(3, 2)
    theta = sample_theta(P, 1, (3, 2), rows=(2, 1))
    m = build_rigidity_matrix(g, 2, 1, theta, P)
    assert m.n_rows == g.n_edges
    assert m.n_cols == 1 * 3 + 2 * 2


def test_square_matrix_rank():
    g = K(2, 2)
    theta = sample_theta(P, 2, (2, 2), rows=(2, 2))
    m = build_rigidity_matrix(g, 2, 2, theta, P)
    assert m.n_rows == 4 and m.n_cols == 8
    assert m.rank() == 4


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_complete_3_3_at_2_2():
    rep = analyze(K(3, 3), 2, 2, POLICY)
    assert rep.rank == 8 == rep.max_rank
    assert rep.is_rigid and not rep.is_stress_free
    assert rep.stress_dim == 1


def test_cube_at_2_2():
    rep = analyze(fam.cube_graph(3), 2, 2, POLICY)
    assert rep.rank == 12
    assert rep.is_rigid and rep.is_stress_free


def test_trees_are_1_1_stress_free():
    for seed in range(10):
        g = fam.random_tree(3, 4, seed)
        assert analyze(g, 1, 1, POLICY).is_stress_free


def test_oversized_parameters_warn():
    rep = analyze(K(2, 2), 3, 1, POLICY)
    assert rep.warnings
    assert rep.max_rank == 1 * 2 + 3 * 2 - 3


def test_failure_bound_of_at_least_one_warns():
    # a (2,2)-tight 12-face quadrangulation: over F_2 the per-trial failure
    # bound is 12, so the verdict carries no certificate
    g = fam.random_quadrangulation(12, seed=3)
    rep = analyze(g, 2, 2, TrialPolicy(prime=2, trials=1))
    assert rep.meta.failure_bound >= 1
    assert rep.warnings
    assert analyze(g, 2, 2, TrialPolicy(trials=1)).warnings == ()


def test_analyze_rejects_bad_parameters():
    with pytest.raises(InputError):
        analyze(K(2, 2), 0, 1, POLICY)


def test_report_json_has_wire_keys():
    data = analyze(K(2, 2), 1, 1, POLICY).to_json_dict()
    for key in (
        "k",
        "l",
        "rank",
        "is_rigid",
        "is_stress_free",
        "stress_dim",
        "max_rank",
        "prime",
        "trials",
        "seed",
    ):
        assert key in data


def test_matroid_monotonicity():
    rng = random.Random(21)
    for i in range(15):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.6)
        g = BipartiteGraph(n, m, edges)
        h = BipartiteGraph(n, m, frozenset(e for e in edges if rng.random() < 0.7))
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        pol = TrialPolicy(trials=2, seed=100 + i)
        assert analyze(h, k, l, pol).rank <= analyze(g, k, l, pol).rank


# ---------------------------------------------------------------------------
# stress spaces
# ---------------------------------------------------------------------------


def test_square_has_no_stress():
    basis = stress_space(K(2, 2), 2, 2, POLICY)
    assert basis.dim == 0


def test_complete_3_3_stress_has_full_support():
    basis = stress_space(K(3, 3), 2, 2, POLICY)
    assert basis.dim == 1
    assert all(w != 0 for w in basis.vectors[0])


def test_double_banana_carries_a_stress():
    basis = stress_space(fam.double_banana(), 2, 2, POLICY)
    assert basis.dim >= 1


def test_stress_basis_after_escalation_has_the_agreed_dimension():
    # at p = 3 the first two trials disagree; the four escalated ones agree
    # on dimension 0, while trial 0 alone has a 1-dimensional kernel
    g = fam.random_quadrangulation(6, seed=1)
    policy = TrialPolicy(trials=2, prime=3, seed=17)
    theta = sample_theta(3, policy.trial_seed(0), (g.a_size, g.b_size), rows=(2, 2))
    assert len(build_rigidity_matrix(g, 2, 2, theta, 3).left_kernel()) == 1
    basis = stress_space(g, 2, 2, policy)
    assert basis.meta.escalated
    assert basis.dim == analyze(g, 2, 2, policy).stress_dim == 0


# ---------------------------------------------------------------------------
# sparsity counts
# ---------------------------------------------------------------------------


def test_double_banana_is_2_2_laman():
    rep = laman_check(fam.double_banana(), 2, 2)
    assert rep.holds and rep.global_count_ok and rep.witness is None


def test_complete_3_3_fails_global_count():
    rep = laman_check(K(3, 3), 2, 2)
    assert not rep.holds and not rep.global_count_ok


def test_cube_diagonals_graph_is_1_4_laman():
    rep = laman_check(fam.laman_augmented_cube(4), 1, 4)
    assert rep.holds


def test_laman_witness_is_first_violator():
    # complete 3x3 inside a 4x4 graph whose global count is right
    edges = complete_edges(3, 3) | {(4, 1), (4, 2), (1, 4)}
    g = BipartiteGraph(4, 4, frozenset(edges))
    rep = laman_check(g, 2, 2)
    assert rep.global_count_ok
    assert not rep.holds
    assert rep.witness == ((1, 2, 3), (1, 2, 3))


def test_laman_size_cap():
    with pytest.raises(SizeCapError):
        laman_check(K(13, 13), 2, 2)


def test_laman_side_requirements():
    with pytest.raises(InputError):
        laman_check(K(1, 3), 2, 2)


def test_minimal_rigid_graphs_are_laman():
    # rigid graphs with the minimal edge count always pass the counts
    rng = random.Random(77)
    found = 0
    while found < 10:
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        if n < k or m < l:
            continue
        edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.7)
        g = BipartiteGraph(n, m, edges)
        pol = TrialPolicy(trials=2, seed=found)
        rep = analyze(g, k, l, pol)
        if rep.is_rigid and g.n_edges == rep.max_rank:
            assert laman_check(g, k, l).holds
            found += 1


def test_k_1_laman_graphs_are_tight():
    # hereditary counts with l = 1 certify rigidity and stress-freeness
    rng = random.Random(88)
    found = 0
    while found < 10:
        n, m = rng.randint(2, 4), rng.randint(2, 5)
        k = rng.randint(1, 2)
        edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.6)
        g = BipartiteGraph(n, m, edges)
        try:
            lam = laman_check(g, k, 1)
        except InputError:
            continue
        if lam.holds:
            rep = analyze(g, k, 1, TrialPolicy(trials=2, seed=found))
            assert rep.is_rigid and rep.is_stress_free
            found += 1


# ---------------------------------------------------------------------------
# facet-ridge matrices
# ---------------------------------------------------------------------------


def test_single_facet_M():
    k = BalancedComplex((1, 1, 1), frozenset({frozenset({(1, 1), (2, 1), (3, 1)})}))
    theta = sample_theta(P, 3, (2, 2, 2), rows=(2, 2, 2))
    m = build_M(k, 2, theta, P)
    assert m.n_rows == 1
    assert m.n_cols == 3 * 2
    assert m.rank() == 1


def test_the_complex_on_no_colors_has_one_empty_row():
    # its one facet is empty: a row with no column, which no ridge meets, so
    # the rank is 0 and the row is its own dependency
    kx = BalancedComplex.from_json_dict({"color_sizes": [], "facets": [[]]})
    m = build_M(kx, 2, [], P)
    assert (m.n_rows, m.n_cols, m.rank(), m.left_kernel()) == (1, 0, 0, [(1,)])
    rep = rows_independent_M(kx, 2, POLICY)
    assert (rep.rank, rep.independent, rep.n_facets) == (0, False, 1)


def test_octahedron_rows_independent_at_2():
    rep = rows_independent_M(fam.cross_polytope_boundary(3), 2, POLICY)
    assert rep.independent
    assert rep.rank == rep.n_facets == 8


def test_triple_join_rows_dependent_at_2():
    k = fam.van_kampen_complex(2, 1)  # three points joined with three points
    rep = rows_independent_M(k, 2, POLICY)
    assert not rep.independent


def test_disjoint_facets_independent_at_1():
    k = BalancedComplex(
        (2, 2),
        frozenset(
            {frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 2)})}
        ),
    )
    rep = rows_independent_M(k, 1, POLICY)
    assert rep.independent


def test_M_requires_pure():
    k = BalancedComplex(
        (2, 2),
        frozenset({frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})}),
    )
    with pytest.raises(InputError):
        build_M(k, 2, sample_theta(P, 0, (2, 2), rows=(2, 2)), P)


# ---------------------------------------------------------------------------
# counting check
# ---------------------------------------------------------------------------


def test_heawood_octahedron():
    rep = heawood_check(fam.cross_polytope_boundary(3), POLICY)
    assert rep.avoids_triple_join
    assert rep.inequality_holds
    assert (rep.f_top, rep.f_ridge) == (8, 12)


def test_heawood_on_quadrangulation():
    g = fam.random_quadrangulation(10, seed=3)
    rep = heawood_check(graph_to_complex(g), POLICY)
    assert rep.inequality_holds
    assert rep.f_top == 2 * g.n_vertices - 4


def test_heawood_single_facet():
    k = BalancedComplex((1, 1), frozenset({frozenset({(1, 1), (2, 1)})}))
    rep = heawood_check(k, POLICY)
    assert rep.inequality_holds


def test_heawood_tolerates_oversized_palettes():
    # isolated vertices on a two-color palette: the palette join is absent for
    # trivial reasons, so the counting bound is reported but never asserted
    k = BalancedComplex(
        (3, 3),
        frozenset(frozenset({(c, i)}) for c in (1, 2) for i in (1, 2, 3)),
    )
    rep = heawood_check(k, POLICY)
    assert rep.avoids_triple_join
    assert not rep.inequality_holds  # 6 vertices against 2 * f_{-1} = 2


# ---------------------------------------------------------------------------
# order and seed invariance
# ---------------------------------------------------------------------------


def test_heawood_bound_is_checked(monkeypatch):
    # K_{5,5} has 25 edges on 10 vertices, so f_1 <= 2 f_0 fails; only a
    # wrong "avoids the triple join" verdict can bring the bound into play
    monkeypatch.setattr(rigidity, "contains_join", lambda k, m: False)
    with pytest.raises(InvariantError, match="counting bound"):
        heawood_check(graph_to_complex(fam.complete_bipartite(5, 5)), POLICY)


def test_heawood_and_subdivision_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from balrig import families as fam, rigidity
        from balrig.combinat import BalancedComplex, graph_to_complex, subdivide_star
        from balrig.errors import InvariantError

        rigidity.contains_join = lambda k, m: False
        try:
            rigidity.heawood_check(graph_to_complex(fam.complete_bipartite(5, 5)))
        except InvariantError as exc:
            print("heawood", exc.exit_code)

        octa = fam.cross_polytope_boundary(3)
        removed = frozenset({(1, 1), (2, 1), (3, 1)})
        s = BalancedComplex((2, 2, 2), octa.facets - {removed})
        original = BalancedComplex.from_maximal_candidates.__func__

        def lossy(cls, color_sizes, faces):
            out = original(cls, color_sizes, faces)
            return cls(out.color_sizes, out.facets - {frozenset(max(out.sorted_facets()))})

        BalancedComplex.from_maximal_candidates = classmethod(lossy)
        try:
            subdivide_star(octa, sorted(octa.facets)[0], s, removed)
        except InvariantError as exc:
            print("subdivide", exc.exit_code)
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
    assert out.stdout.split("\n")[:2] == ["heawood 6", "subdivide 6"]


def test_verdicts_do_not_depend_on_the_seed():
    rng = random.Random(14)
    for i in range(10):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        g = BipartiteGraph(
            n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
        )
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        r1 = analyze(g, k, l, TrialPolicy(trials=2, seed=1000 + i))
        r2 = analyze(g, k, l, TrialPolicy(trials=2, seed=9999 - i))
        assert (r1.rank, r1.is_rigid, r1.is_stress_free) == (
            r2.rank,
            r2.is_rigid,
            r2.is_stress_free,
        )


def test_shift_predicates_do_not_depend_on_the_admissible_order():
    from balrig.shifting import shift_graph

    rng = random.Random(15)
    for i in range(10):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        g = BipartiteGraph(
            n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
        )
        k, l = rng.randint(1, min(2, n)), rng.randint(1, min(2, m))
        # two different (k,l)-admissible orders: the default, and one pushing
        # all remaining A-vertices before the remaining B-vertices
        o1 = VertexOrder.admissible_graph(n, m, k, l)
        seq = [("A", i) for i in range(1, k + 1)] + [("B", j) for j in range(1, l + 1)]
        seq += [("A", i) for i in range(k + 1, n + 1)]
        seq += [("B", j) for j in range(l + 1, m + 1)]
        o2 = VertexOrder(seq)
        pol = TrialPolicy(trials=2, seed=300 + i)
        for order in (o1, o2):
            assert order.is_admissible(k, l)
        s1 = shift_graph(g, o1, pol).graph
        s2 = shift_graph(g, o2, pol).graph
        sf1 = k + 1 > n or l + 1 > m or (k + 1, l + 1) not in s1.edges
        sf2 = k + 1 > n or l + 1 > m or (k + 1, l + 1) not in s2.edges
        ekl = {(i, j) for i, j in complete_edges(n, m) if i <= k or j <= l}
        assert sf1 == sf2
        assert (ekl <= s1.edges) == (ekl <= s2.edges)


# ---------------------------------------------------------------------------
# deletion / contraction spot checks on named graphs
# ---------------------------------------------------------------------------


def test_deleting_cube_vertex_keeps_stress_freeness():
    # degree-3 deletion with l = 3 bound
    g = fam.cube_graph(3)
    rep = analyze(g, 2, 3, POLICY)
    assert rep.is_stress_free


def test_double_banana_subgraph_is_stress_free():
    g = fam.double_banana()
    sub = induced_subgraph(g, [1, 2, 3], [1, 2, 3]).graph
    assert analyze(sub, 2, 2, POLICY).is_stress_free


# ---------------------------------------------------------------------------
# parameter draws
# ---------------------------------------------------------------------------


def _record_draws(monkeypatch, module):
    """Wrap ``module.sample_theta`` and collect (seed, sizes, blocks)."""
    calls = []
    original = module.sample_theta

    def recording(p, seed, block_sizes, rows=None):
        blocks = original(p, seed, block_sizes, rows)
        calls.append((seed, tuple(block_sizes), rows, blocks))
        return blocks

    monkeypatch.setattr(module, "sample_theta", recording)
    return calls


def test_analyze_rows_lead_shift_blocks(monkeypatch):
    g = fam.complete_bipartite(5, 6)
    # a shifted graph takes the greedy trial, which draws full blocks
    assert shifting.check_shifted(g)
    analyze_draws = _record_draws(monkeypatch, rigidity)
    shift_draws = _record_draws(monkeypatch, shifting)
    analyze(g, 2, 2, POLICY)
    shifting.shift_graph(g, policy=POLICY)
    assert [d[0] for d in analyze_draws] == [d[0] for d in shift_draws]
    for (_, sizes, rows, (rows_a, rows_b)), (_, full_sizes, _, (full_a, full_b)) in zip(
        analyze_draws, shift_draws
    ):
        assert sizes == full_sizes == (g.a_size, g.b_size)
        assert rows == (2, 2)
        assert len(full_a) == g.a_size and len(full_b) == g.b_size
        # the shift blocks start with analyze's two rows
        assert full_a[:2] == rows_a and full_b[:2] == rows_b


def _invertible(rng, p, n):
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if dense_rank(t, p, n) == n:
            return t


def _times(t, rows, p):
    return [
        [sum(x * row[c] for x, row in zip(coeffs, rows)) % p for c in range(len(rows[0]))]
        for coeffs in t
    ]


def _same_rank_and_left_kernel(m1, m2, p):
    k1, k2 = m1.left_kernel(), m2.left_kernel()
    n = m1.n_rows
    assert m1.rank() == m2.rank()
    assert dense_rank(k1, p, n) == dense_rank(k2, p, n) == dense_rank(k1 + k2, p, n)


@pytest.mark.parametrize("p", [5, 101, P])
def test_rigidity_matrices_ignore_an_invertible_change_of_one_sides_rows(p):
    # T acts on the drawn rows of one side or color as a change of the
    # columns of every block that reads them, so the unit upper triangular
    # draw ranks as the generic rows T times it do, and has their stresses
    rng = random.Random(p)
    for i in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.6)
        g = BipartiteGraph(n, m, edges)
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        theta = sample_theta(p, i, (n, m), rows=(k, l))
        base = build_rigidity_matrix(g, k, l, theta, p)
        for side, r in ((0, k), (1, l)):
            moved = list(theta)
            moved[side] = _times(_invertible(rng, p, r), theta[side], p)
            _same_rank_and_left_kernel(base, build_rigidity_matrix(g, k, l, moved, p), p)
    complexes = (
        fam.cross_polytope_boundary(3),
        fam.van_kampen_complex(2, 1),
        fam.gamma_complex(2, [3, 3, 3]),
    )
    for kx in complexes:
        for l in (1, 2, 3):
            theta = sample_theta(p, l, kx.color_sizes, rows=(l,) * kx.n_colors)
            base = build_M(kx, l, theta, p)
            for c in range(kx.n_colors):
                moved = list(theta)
                moved[c] = _times(_invertible(rng, p, l), theta[c], p)
                _same_rank_and_left_kernel(base, build_M(kx, l, moved, p), p)


def test_the_walk_reads_the_rows_analyze_reads(monkeypatch):
    # a (2,2)-tight graph reaches rank E after two steps per side under the
    # interleaved order, so the walk reads two rows per side, and they are
    # the rows of the (2,2)-rigidity matrix of the same trial
    g = fam.random_quadrangulation(64, seed=3)
    analyze_draws = _record_draws(monkeypatch, rigidity)
    reads = {}
    stream = shifting.prefix_stream

    def recording(p, seed, c, size):
        for row in stream(p, seed, c, size):
            reads.setdefault((seed, c), []).append(row)
            yield row

    monkeypatch.setattr(shifting, "prefix_stream", recording)
    analyze(g, 2, 2, POLICY)
    shifting.shift_graph(g, policy=POLICY)
    assert len(analyze_draws) == POLICY.trials
    assert len(reads) == 2 * POLICY.trials
    for seed, _, rows, (rows_a, rows_b) in analyze_draws:
        assert rows == (2, 2)
        assert reads[seed, 0] == rows_a and reads[seed, 1] == rows_b


def test_k_far_above_side_draws_only_read_rows(monkeypatch):
    tree = fam.random_tree(3, 3, seed=1)
    assert tree.n_edges == 5
    draws = _record_draws(monkeypatch, rigidity)
    rep = analyze(tree, 200, 2, POLICY)
    assert rep.is_stress_free and rep.rank == 5
    assert rep.warnings
    assert draws
    for _, _, _, blocks in draws:
        entries = sum(len(row) for block in blocks for row in block)
        assert entries == 200 * tree.a_size + 2 * tree.b_size


@pytest.mark.parametrize(
    "build",
    [
        lambda g, kx: stress_space(g, 0, 1),
        lambda g, kx: stress_space(g, 1, 0),
        lambda g, kx: laman_check(g, 0, 1),
        lambda g, kx: laman_check(g, 1, 0),
        lambda g, kx: rows_independent_M(kx, 0),
    ],
)
def test_rigidity_parameters_below_one_are_refused(build):
    with pytest.raises(InputError, match="must be positive"):
        build(fam.complete_bipartite(2, 2), fam.cross_polytope_boundary(3))


@pytest.mark.parametrize("value", [2.0, True, 10.0**9])
@pytest.mark.parametrize(
    "verdict",
    [
        pytest.param(lambda g, kx, v: analyze(g, v, 2), id="analyze"),
        pytest.param(lambda g, kx, v: stress_space(g, 2, v), id="stress_space"),
        pytest.param(lambda g, kx, v: rows_independent_M(kx, v), id="rows_independent_M"),
        pytest.param(lambda g, kx, v: laman_check(g, v, 2), id="laman_check"),
    ],
)
def test_rigidity_parameters_that_are_not_ints_are_refused(verdict, value):
    # one check refuses a float or a bool before the caps read it, so a
    # float past a cap is refused as a float, not as a size
    with pytest.raises(InputError, match="must be an integer, not (float|bool)") as refused:
        verdict(fam.complete_bipartite(3, 3), fam.cross_polytope_boundary(3), value)
    assert refused.value.exit_code == 3
