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
from test_kernel_oracle import dense_rank

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
    # on dimension 1, while trial 0 alone has a 3-dimensional kernel
    g = fam.random_quadrangulation(6, seed=1)
    policy = TrialPolicy(trials=2, prime=3, seed=22)
    basis = stress_space(g, 2, 2, policy)
    assert basis.meta.escalated
    assert basis.dim == analyze(g, 2, 2, policy).stress_dim == 1


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


def test_one_dimensional_M_equals_rigidity_matrix():
    g = BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})
    k = graph_to_complex(g)
    theta = sample_theta(P, 9, (3, 3), rows=(2, 2))
    m_complex = build_M(k, 2, theta, P)
    m_graph = build_rigidity_matrix(g, 2, 2, theta, P)
    assert m_complex.n_rows == m_graph.n_rows
    assert m_complex.n_cols == m_graph.n_cols
    assert m_complex.rank() == m_graph.rank()


def test_single_facet_M():
    k = BalancedComplex((1, 1, 1), frozenset({frozenset({(1, 1), (2, 1), (3, 1)})}))
    theta = sample_theta(P, 3, (2, 2, 2), rows=(2, 2, 2))
    m = build_M(k, 2, theta, P)
    assert m.n_rows == 1
    assert m.n_cols == 3 * 2
    assert m.rank() == 1


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
    from balrig.combinat import VertexOrder
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
    g = fam.random_quadrangulation(8, seed=3)
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
        # the shift blocks are triangular; their first two rows span what
        # analyze's two rows span
        for rows, full, n in ((rows_a, full_a, g.a_size), (rows_b, full_b, g.b_size)):
            tri = [[row.get(c, 0) for c in range(n)] for row in full[:2]]
            assert dense_rank(tri + rows, P, n) == dense_rank(tri, P, n) == 2


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
