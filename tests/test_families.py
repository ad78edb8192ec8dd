import pytest

from balrig import families as fam
from balrig.combinat import (
    BipartiteGraph,
    complete_edges,
    complex_to_graph,
    f_vector,
    facet_ridge_graph,
)
from balrig.errors import InputError
from balrig.exactla import TrialPolicy
from balrig.rigidity import analyze, laman_check
from graph_isomorphism import are_isomorphic

POLICY = TrialPolicy(trials=2, seed=66)


def test_complete_bipartite_counts():
    assert fam.complete_bipartite(3, 3).n_edges == 9
    with pytest.raises(InputError):
        fam.complete_bipartite(0, 3)


def test_cycle_is_square_for_n_2():
    assert fam.cycle(2) == BipartiteGraph(2, 2, complete_edges(2, 2))
    g = fam.cycle(5)
    assert g.n_edges == 10
    assert all(g.degree(v) == 2 for v in g.vertices())
    with pytest.raises(InputError):
        fam.cycle(1)


def test_random_tree_is_spanning_tree():
    for seed in range(5):
        g = fam.random_tree(3, 3, seed)
        assert g.n_edges == 5
        # connected with n-1 edges means acyclic
        seen = {("A", 1)}
        frontier = [("A", 1)]
        while frontier:
            v = frontier.pop()
            for idx in g.neighbors(v):
                w = ("B" if v[0] == "A" else "A", idx)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == g.n_vertices


def test_cube_graph_small_dimensions():
    assert are_isomorphic(fam.cube_graph(2), fam.cycle(2))
    q3 = fam.cube_graph(3)
    assert (q3.a_size, q3.b_size, q3.n_edges) == (4, 4, 12)
    assert all(q3.degree(v) == 3 for v in q3.vertices())
    q4 = fam.cube_graph(4)
    assert (q4.a_size, q4.b_size, q4.n_edges) == (8, 8, 32)


def test_cube_complex_has_opposite_facet_pairs():
    cg = fam.cube_complex(3)
    assert len(cg.facets) == 6
    for c in range(3):
        a = cg.facets[2 * c].vertex_ids()
        b = cg.facets[2 * c + 1].vertex_ids()
        assert not a & b


def test_stacked_cubical_counts():
    cg = fam.stacked_cubical_graph(3, 2, seed=5)
    assert cg.graph.n_vertices == 12
    assert cg.graph.n_edges == 20
    single = fam.stacked_cubical_graph(3, 1, seed=5)
    assert single.graph == fam.cube_graph(3)
    with pytest.raises(InputError):
        fam.stacked_cubical_graph(2, 2, seed=0)


def test_two_vertex_augmentation_adds_nothing_in_dim_3():
    cg = fam.cube_complex(3)
    res = fam.augment_facet(cg, 0, "two-vertex")
    assert not res.added


def test_two_vertex_augmentation_in_dim_4():
    cg = fam.cube_complex(4)
    res = fam.augment_facet(cg, 0, "two-vertex")
    assert len(res.added) == 2 ** (4 - 1) - 2 * (4 - 1)
    rep = analyze(res.graph, 2, 3, POLICY)
    assert rep.is_rigid and rep.is_stress_free


def test_opposite_facet_augmentation():
    cg = fam.cube_complex(3)
    res = fam.augment_facet(cg, 0, "opposite-facets")
    assert not res.added  # both chosen vertices already see their facet
    cg4 = fam.cube_complex(4)
    res4 = fam.augment_facet(cg4, 0, "opposite-facets")
    assert len(res4.added) == 2
    rep = analyze(res4.graph, 2, 3, POLICY)
    assert rep.is_rigid and rep.is_stress_free


def test_opposite_facet_mode_needs_plain_cube():
    cg = fam.stacked_cubical_graph(3, 2, seed=1)
    with pytest.raises(InputError):
        fam.augment_facet(cg, 0, "opposite-facets")


def test_laman_augmentation_inside_cube_facet():
    cg = fam.cube_complex(4)
    res = fam.augment_facet(cg, 0, "laman")
    assert len(res.added) == 2**3 - 4
    assert laman_check(res.graph, 1, 4).holds


def test_unknown_mode_rejected():
    with pytest.raises(InputError):
        fam.augment_facet(fam.cube_complex(3), 0, "bogus")


def test_laman_augmented_cube_is_complete_at_d_4():
    g = fam.laman_augmented_cube(4)
    assert are_isomorphic(g, fam.complete_bipartite(4, 4))


def test_laman_augmented_cube_d_5():
    g = fam.laman_augmented_cube(5)
    assert g.n_vertices == 16
    assert g.n_edges == 32 + (2**4 - 5)
    assert laman_check(g, 1, 5).holds


def test_laman_extra_edges_counts():
    for m in (3, 4, 5):
        assert len(fam.laman_extra_edges(m)) == 2**m - (m + 1)


def test_cross_polytope_boundary():
    k = fam.cross_polytope_boundary(3)
    assert f_vector(k) == (1, 6, 12, 8)
    with pytest.raises(InputError):
        fam.cross_polytope_boundary(1)


def test_glued_cross_polytopes_facet_counts():
    pair = fam.glued_cross_polytopes(3, pattern=[(2, 1, 1)])
    assert len(pair.complex.facets) == 2 * 2**3 - 2
    full3 = fam.glued_cross_polytopes(3)
    assert len(full3.complex.facets) == 5 * 8 - 2 * 4
    full4 = fam.glued_cross_polytopes(4)
    assert len(full4.complex.facets) == 2 * 4 * 2**4 - 2 * (2 * 4 - 1)


def test_glued_cross_polytopes_graph_is_regular_bipartite():
    gcp = fam.glued_cross_polytopes(3)
    frg = facet_ridge_graph(gcp.complex)
    g = frg.graph
    assert g.a_size == g.b_size == 16
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_glued_cross_polytopes_pattern_validation():
    with pytest.raises(InputError):
        fam.glued_cross_polytopes(3, pattern=[(2, 1, 1), (2, 1, 1)])
    with pytest.raises(InputError):
        fam.glued_cross_polytopes(3, pattern=[(2, 1, 1), (2, 2, 1)])
    with pytest.raises(InputError):
        fam.glued_cross_polytopes(3, pattern=[(3, 1, 1)])


def test_gamma_complex_unrolls_to_near_complete_graph():
    gamma = fam.gamma_complex(1, [3, 3])
    g = complex_to_graph(gamma)
    assert g == BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})


def test_van_kampen_is_complete_bipartite_for_d_1():
    k = fam.van_kampen_complex(2, 1)
    assert complex_to_graph(k) == fam.complete_bipartite(3, 3)


def test_quadrangulation_base_case_is_square():
    assert are_isomorphic(fam.random_quadrangulation(2, seed=0), fam.cycle(2))


def test_quadrangulation_edge_count_always_tight():
    for seed in range(12):
        g = fam.random_quadrangulation(4 + seed, seed=seed)
        assert g.n_edges == 2 * g.n_vertices - 4
        assert g.n_vertices == 4 + (4 + seed) - 2


def test_quadrangulation_reaches_the_cube():
    g = fam.random_quadrangulation(6, seed=87)
    assert are_isomorphic(g, fam.cube_graph(3))


def test_quadrangulation_rejects_tiny_face_counts():
    with pytest.raises(InputError):
        fam.random_quadrangulation(1, seed=0)


def test_fan_quadrangulation_counts():
    for k in (2, 3, 5):
        g = fam.fan_quadrangulation(k)
        assert g.n_edges == 3 * k - 2
    with pytest.raises(InputError):
        fam.fan_quadrangulation(1)
