import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig import families as fam
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    all_faces,
    antistar,
    complete_edges,
    cone_left,
    cone_right,
    contract,
    delete_vertex,
    f_vector,
    faces_with_colorset,
    facet_ridge_graph,
    glue,
    graph_to_complex,
    complex_to_graph,
    induced_subgraph,
    is_face,
    join_complexes,
    link,
    ridges,
    subdivide_star,
    swap_sides,
)
from balrig.errors import InputError, InvariantError
from graph_isomorphism import are_isomorphic


def K(n, m):
    return BipartiteGraph(n, m, complete_edges(n, m))


# ---------------------------------------------------------------------------
# graphs and transforms
# ---------------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(InputError):
        BipartiteGraph(2, 2, frozenset({(3, 1)}))
    with pytest.raises(InputError):
        BipartiteGraph(-1, 2, frozenset())


def test_delete_vertex_star():
    res = delete_vertex(K(2, 2), ("A", 2))
    assert res.graph == BipartiteGraph(1, 2, frozenset({(1, 1), (1, 2)}))
    assert res.vertex_map[("A", 1)] == ("A", 1)


def test_delete_vertex_complete():
    res = delete_vertex(K(3, 3), ("B", 3))
    assert res.graph == K(3, 2)


def test_delete_vertex_cube():
    g = fam.cube_graph(3)
    res = delete_vertex(g, ("A", 1))
    assert res.graph.n_vertices == 7
    assert res.graph.n_edges == 9  # the cube is 3-regular


def test_delete_vertex_unknown():
    with pytest.raises(InputError):
        delete_vertex(K(2, 2), ("A", 5))


def test_contract_path():
    path = BipartiteGraph(2, 1, frozenset({(1, 1), (2, 1)}))
    res = contract(path, ("A", 1), ("A", 2))
    assert res.graph == BipartiteGraph(1, 1, frozenset({(1, 1)}))
    assert res.common_neighbors == 1


def test_contract_complete():
    res = contract(K(3, 3), ("A", 1), ("A", 2))
    assert res.graph == K(2, 3)
    assert res.common_neighbors == 3


def test_contract_cube_face_pair():
    # opposite vertices of a 4-face have exactly the other two face vertices
    # in common; contracting them leaves a maximal planar bipartite graph
    g = fam.cube_graph(3)
    pairs = [
        (u, v)
        for u in g.vertices()
        for v in g.vertices()
        if u < v and u[0] == v[0] and len(g.neighbors(u) & g.neighbors(v)) == 2
    ]
    u, v = pairs[0]
    res = contract(g, u, v)
    assert res.common_neighbors == 2
    assert res.graph.n_vertices == 7
    assert res.graph.n_edges == 10 == 2 * res.graph.n_vertices - 4


def test_contract_errors():
    with pytest.raises(InputError):
        contract(K(2, 2), ("A", 1), ("B", 1))
    with pytest.raises(InputError):
        contract(K(2, 2), ("A", 1), ("A", 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_contract_edge_count_law(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 5), rng.randint(1, 5)
    g = BipartiteGraph(
        n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
    )
    u, v = rng.sample(range(1, n + 1), 2)
    res = contract(g, ("A", u), ("A", v))
    assert res.graph.n_edges == g.n_edges - res.common_neighbors


def test_cone_left_square():
    res = cone_left(K(2, 2))
    assert res.graph == K(3, 2)
    assert res.vertex_map[("A", 1)] == ("A", 2)


def test_cone_right_point():
    g = BipartiteGraph(1, 0, frozenset())
    res = cone_right(g)
    assert res.graph == BipartiteGraph(1, 1, frozenset({(1, 1)}))


def test_cone_both_on_near_complete():
    gm = BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})
    both = cone_right(cone_left(gm).graph).graph
    assert (both.a_size, both.b_size) == (4, 4)
    assert both.n_edges == 8 + 3 + 4 == 15


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_edge_counts(seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    g = BipartiteGraph(
        n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
    )
    assert cone_left(g).graph.n_edges == g.n_edges + g.b_size
    assert cone_right(g).graph.n_edges == g.n_edges + g.a_size


def test_glue_double_banana_counts():
    g = fam.double_banana()
    assert (g.a_size, g.b_size) == (5, 5)
    assert g.n_edges == 16


def test_glue_empty_identification_is_disjoint_union():
    res = glue(K(1, 1), K(1, 1), {})
    assert res.graph == BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)}))


def test_glue_along_everything_is_identity():
    g = K(2, 3)
    ident = {v: v for v in g.vertices()}
    assert glue(g, g, ident).graph == g


def test_glue_errors():
    with pytest.raises(InputError):
        glue(K(2, 2), K(2, 2), {("A", 1): ("B", 1)})
    with pytest.raises(InputError):
        glue(K(2, 2), K(2, 2), {("A", 1): ("A", 1), ("A", 2): ("A", 1)})


@st.composite
def overlapping_graphs(draw):
    """g1, g2 and overlaps (oa, ob): g2's first oa A- and ob B-vertices are
    to be identified with g1's last ones."""
    oa, ob = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def graph(n, m):
        pairs = sorted(complete_edges(n, m))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return BipartiteGraph(n, m, frozenset(e for e, kept in zip(pairs, keep) if kept))

    g1, g2 = [graph(draw(st.integers(oa, oa + 3)), draw(st.integers(ob, ob + 3))) for _ in "12"]
    return g1, g2, oa, ob


@settings(max_examples=200, deadline=None)
@given(overlapping_graphs())
def test_glue_is_the_offset_union(case):
    """Oracle: g2 moved past g1 less the overlap, united with g1 as edge sets."""
    g1, g2, oa, ob = case
    lo = {"A": g1.a_size - oa, "B": g1.b_size - ob}  # offsets of g2's vertices
    ident = {("A", i): ("A", lo["A"] + i) for i in range(1, oa + 1)}
    ident.update({("B", j): ("B", lo["B"] + j) for j in range(1, ob + 1)})
    res = glue(g1, g2, ident)
    offset = {(i + lo["A"], j + lo["B"]) for i, j in g2.edges}
    union = BipartiteGraph(lo["A"] + g2.a_size, lo["B"] + g2.b_size, g1.edges | offset)
    assert res.graph == union
    # g2's other vertices follow g1's, in their own order
    assert res.map2 == {(s, i): (s, lo[s] + i) for s, i in g2.vertices()}
    assert res.map1 == {v: v for v in g1.vertices()}


def test_induced_subgraph_examples():
    res = induced_subgraph(K(3, 3), [1, 2], [1])
    assert res.graph.n_edges == 2
    assert induced_subgraph(K(3, 3), [1, 2, 3], [1, 2, 3]).graph == K(3, 3)
    with pytest.raises(InputError):
        induced_subgraph(K(3, 3), [4], [1])


def test_double_banana_restricts_to_one_copy():
    g = fam.double_banana()
    # the first copy sits on A {1,2,3}, B {1,2,3}
    sub = induced_subgraph(g, [1, 2, 3], [1, 2, 3]).graph
    assert sub.n_edges == 8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_delete_then_restrict_commutes(seed):
    rng = random.Random(seed)
    n, m = rng.randint(2, 5), rng.randint(2, 5)
    g = BipartiteGraph(
        n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
    )
    # deleting the largest A-vertex equals restricting to everything else
    res1 = delete_vertex(g, ("A", n)).graph
    res2 = induced_subgraph(g, range(1, n), range(1, m + 1)).graph
    assert res1 == res2


def test_swap_sides_involution():
    g = fam.cube_graph(3)
    assert swap_sides(swap_sides(g)) == g


def test_are_isomorphic_positive_negative():
    assert are_isomorphic(fam.cycle(2), K(2, 2))
    assert not are_isomorphic(fam.cycle(3), K(3, 3))
    # side swap is tried
    assert are_isomorphic(K(2, 3), K(3, 2))


def test_graph_json_roundtrip():
    g = fam.double_banana()
    assert BipartiteGraph.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(InputError):
        BipartiteGraph.from_json_dict({"a_size": 1})


# ---------------------------------------------------------------------------
# vertex orders
# ---------------------------------------------------------------------------


def test_order_must_extend_side_orders():
    with pytest.raises(InputError):
        VertexOrder([("A", 2), ("A", 1)])
    VertexOrder([("A", 1), ("B", 1), ("A", 2)])


@pytest.mark.parametrize(
    "entry", [("A", 1, 2), 1, ("A",), ["A", 1], ("A", "1"), ("A", True), ("A", 1.0)]
)
def test_order_refuses_entries_that_are_not_pairs_with_int_indices(entry):
    # shift_graph and shift_complex take these orders from library callers
    with pytest.raises(InputError, match="not a \\(side or color, int\\) pair"):
        VertexOrder([("A", 1), entry])


def test_interleaved_admissibility():
    order = VertexOrder.interleaved_graph(3, 3)
    assert order.is_admissible(1, 1)
    assert order.is_admissible(2, 1)
    assert order.is_admissible(2, 2)
    assert not order.is_admissible(1, 2)


def test_admissible_constructor():
    order = VertexOrder.admissible_graph(4, 4, 1, 3)
    assert order.is_admissible(1, 3)
    with pytest.raises(InputError):
        VertexOrder.admissible_graph(2, 2, 3, 1)


def test_lex_key_orders_edges_min_endpoint_first():
    order = VertexOrder.interleaved_graph(3, 3)
    key = lambda e: order.lex_key((("A", e[0]), ("B", e[1])))
    pairs = sorted(
        ((i, j) for i in range(1, 4) for j in range(1, 4)), key=key
    )
    assert pairs[:3] == [(1, 1), (1, 2), (1, 3)]
    assert pairs[-1] == (3, 3)


def test_complex_order_uniform_admissibility():
    # the least l vertices of each color form an initial segment
    order = VertexOrder.interleaved_complex((3, 3, 3))
    for l in (1, 2, 3):
        want = {(c, i) for c in (1, 2, 3) for i in range(1, l + 1)}
        assert set(order.sequence[: 3 * l]) == want


# ---------------------------------------------------------------------------
# balanced complexes
# ---------------------------------------------------------------------------


def octa():
    return fam.cross_polytope_boundary(3)


def test_complex_validation():
    with pytest.raises(InputError):
        BalancedComplex((2, 2), frozenset({frozenset({(1, 1), (1, 2)})}))
    with pytest.raises(InputError):
        # not an antichain
        BalancedComplex(
            (2, 2),
            frozenset({frozenset({(1, 1), (2, 1)}), frozenset({(1, 1)})}),
        )


def test_f_vector_octahedron():
    assert f_vector(octa()) == (1, 6, 12, 8)


def test_join_two_points_families():
    two = BalancedComplex((2,), frozenset({frozenset({(1, 1)}), frozenset({(1, 2)})}))
    three = BalancedComplex(
        (3,), frozenset({frozenset({(1, i)}) for i in range(1, 4)})
    )
    square = join_complexes(two, two)
    assert complex_to_graph(square) == K(2, 2)
    k33 = join_complexes(three, three)
    assert complex_to_graph(k33) == K(3, 3)
    assert join_complexes(square, two) == octa()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_join_f_vector_is_convolution(seed):
    rng = random.Random(seed)

    def random_complex(colors):
        sizes = tuple(rng.randint(1, 3) for _ in range(colors))
        import itertools as it

        while True:
            facets = frozenset(
                frozenset(zip(range(1, colors + 1), pick))
                for pick in it.product(*[range(1, s + 1) for s in sizes])
                if rng.random() < 0.6
            )
            if facets:
                return BalancedComplex(sizes, facets)

    k1, k2 = random_complex(rng.randint(1, 2)), random_complex(rng.randint(1, 2))
    f1, f2 = f_vector(k1), f_vector(k2)
    fj = f_vector(join_complexes(k1, k2))
    conv = [0] * (len(f1) + len(f2) - 1)
    for i, a in enumerate(f1):
        for j, b in enumerate(f2):
            conv[i + j] += a * b
    assert list(fj) == conv


def test_link_of_vertex_in_octahedron_is_square():
    lk = link(octa(), [(1, 1)])
    assert sorted(len(f) for f in lk.facets) == [2, 2, 2, 2]
    faces2 = faces_with_colorset(lk, (2, 3))
    assert len(faces2) == 4  # the 4-cycle on colors 2 and 3


def test_antistar_of_facet_drops_one_facet():
    k = octa()
    sigma = next(iter(k.facets))
    res = antistar(k, sigma)
    assert res.facets == k.facets - {sigma}
    with pytest.raises(InputError):
        antistar(k, [(1, 1), (1, 2)])


def test_link_errors_on_non_face():
    with pytest.raises(InputError):
        link(octa(), [(1, 1), (1, 2)])


def test_face_queries():
    k = octa()
    assert is_face(k, [(1, 1), (2, 2)])
    assert not is_face(k, [(1, 1), (1, 2)])
    assert frozenset() in all_faces(k)


def test_facet_ridge_graph_octahedron_is_cube():
    frg = facet_ridge_graph(octa())
    assert are_isomorphic(frg.graph, fam.cube_graph(3))
    assert all(frg.graph.degree(v) == 3 for v in frg.graph.vertices())
    # the maps are mutually inverse
    for f, v in frg.vertex_of.items():
        assert frg.facet_of[v] == f


def test_facet_ridge_graph_two_facets():
    k = BalancedComplex(
        (2, 1),
        frozenset(
            {frozenset({(1, 1), (2, 1)}), frozenset({(1, 2), (2, 1)})}
        ),
    )
    frg = facet_ridge_graph(k)
    assert frg.graph == BipartiteGraph(1, 1, frozenset({(1, 1)}))


def test_facet_ridge_graph_rejects_overloaded_ridge():
    k = BalancedComplex(
        (3, 1),
        frozenset(frozenset({(1, i), (2, 1)}) for i in range(1, 4)),
    )
    with pytest.raises(InputError):
        facet_ridge_graph(k)


def test_facet_ridge_graph_needs_pure():
    k = BalancedComplex(
        (2, 2),
        frozenset({frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})}),
    )
    with pytest.raises(InputError):
        facet_ridge_graph(k)


def test_graph_complex_roundtrip():
    g = fam.double_banana()
    assert complex_to_graph(graph_to_complex(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_graph_to_complex_follows_the_definition(seed):
    # edges are the 2-faces, isolated vertices the 1-faces, and a graph with
    # no vertices has the empty face alone; sides may be empty
    rng = random.Random(seed)
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    g = BipartiteGraph(n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.3))
    want = {frozenset({(1, i), (2, j)}) for i, j in g.edges}
    want |= {frozenset({(1, i)}) for i in range(1, n + 1) if not g.neighbors(("A", i))}
    want |= {frozenset({(2, j)}) for j in range(1, m + 1) if not g.neighbors(("B", j))}
    k = graph_to_complex(g)
    assert k.color_sizes == (n, m)
    assert k.facets == (want or {frozenset()})
    assert complex_to_graph(k) == g


def test_graph_to_complex_of_no_vertices_is_the_empty_face():
    assert graph_to_complex(BipartiteGraph(0, 0, frozenset())).facets == {frozenset()}


def test_subdivide_edge_of_square_with_path():
    # replace one edge of the square by a path of length 3
    k = graph_to_complex(K(2, 2))
    sigma = [(1, 1), (2, 1)]
    s = BalancedComplex(
        (2, 2),
        frozenset(
            {
                frozenset({(1, 1), (2, 1)}),
                frozenset({(2, 1), (1, 2)}),
                frozenset({(1, 2), (2, 2)}),
            }
        ),
    )
    x = [(1, 1), (2, 2)]  # endpoints of the path, missing from it
    out = subdivide_star(k, sigma, s, x)
    fv = f_vector(out)
    assert fv[2] == 6  # 4 - 1 + 3 edges
    assert fv[1] == 6


def test_subdivide_facet_star_with_punctured_sphere():
    # replace a facet of the octahedron by another octahedron minus a facet
    k = octa()
    sigma = sorted(k.facets)[0]
    removed = frozenset({(1, 1), (2, 1), (3, 1)})
    s = BalancedComplex((2, 2, 2), octa().facets - {removed})
    out = subdivide_star(k, sigma, s, removed)
    assert sum(1 for f in out.facets if len(f) == 3) == 7 + 7


def test_subdivide_star_errors():
    k = graph_to_complex(K(2, 2))
    s = BalancedComplex(
        (2, 2),
        frozenset({frozenset({(1, 1), (2, 1)}), frozenset({(2, 1), (1, 2)})}),
    )
    with pytest.raises(InputError):
        # x is a face of s, not missing
        subdivide_star(k, [(1, 1), (2, 1)], s, [(1, 1), (2, 1)])
    with pytest.raises(InputError):
        # sigma must not be a vertex
        subdivide_star(k, [(1, 1)], s, [(1, 1), (2, 2)])


def drop_one_top_facet(monkeypatch):
    """Make ``from_maximal_candidates`` lose one top face, so that the
    bookkeeping in ``subdivide_star`` no longer adds up."""
    original = BalancedComplex.from_maximal_candidates.__func__

    def lossy(cls, color_sizes, faces):
        out = original(cls, color_sizes, faces)
        return cls(out.color_sizes, out.facets - {frozenset(max(out.sorted_facets()))})

    monkeypatch.setattr(BalancedComplex, "from_maximal_candidates", classmethod(lossy))


def test_subdivide_star_bookkeeping_is_checked(monkeypatch):
    k = octa()
    sigma = sorted(k.facets)[0]
    removed = frozenset({(1, 1), (2, 1), (3, 1)})
    s = BalancedComplex((2, 2, 2), octa().facets - {removed})
    drop_one_top_facet(monkeypatch)
    with pytest.raises(InvariantError, match="bookkeeping"):
        subdivide_star(k, sigma, s, removed)


def test_all_faces_go_away_with_their_complex():
    k = octa()
    assert len(all_faces(k)) == 27
    assert all_faces(k) is all_faces(k)
    ref = weakref.ref(k)
    del k
    gc.collect()
    assert ref() is None


def test_complex_json_roundtrip():
    k = octa()
    assert BalancedComplex.from_json_dict(k.to_json_dict()) == k
    bad = k.to_json_dict()
    bad["dim"] = 5
    with pytest.raises(InputError):
        BalancedComplex.from_json_dict(bad)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

#: a balanced 2-complex whose facets close an odd cycle of shared ridges
ODD_CYCLE_FACETS = [(2, 1, 1), (1, 3, 1), (2, 2, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (1, 3, 2)]
#: the path a1 b1 a2, on the square's palette
PATH = BalancedComplex((2, 2), {frozenset({(1, 1), (2, 1)}), frozenset({(2, 1), (1, 2)})})


def square():
    return graph_to_complex(K(2, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: induced_subgraph(K(2, 2), [1], [3]), "B-index 3 out of range"),
        (lambda: contract(K(2, 2), ("A", 1), ("A", 3)), "unknown vertex"),
        (lambda: glue(K(2, 2), K(2, 2), {("A", 3): ("A", 1)}), "out of range"),
        (lambda: VertexOrder([("A", 1), ("B", 1), ("A", 1)]), "duplicates"),
        # a side or color that cannot be hashed, as the duplicate check needs
        (lambda: VertexOrder([(["A"], 1)]), "hashable"),
        (lambda: VertexOrder([("A", 1), ((["B"],), 1)]), "entries must be hashable"),
        (lambda: BalancedComplex((2, -1), {frozenset()}), "nonnegative"),
        (lambda: BalancedComplex((2,), {frozenset({(2, 1)})}), "color 2 out of range"),
        (lambda: ridges(BalancedComplex((1, 1), {frozenset({(1, 1)}), frozenset({(2, 1)})})), "pure"),
        (lambda: complex_to_graph(octa()), "1-dimensional 2-colored"),
        (
            lambda: facet_ridge_graph(
                BalancedComplex((3, 3, 2), {frozenset(zip((1, 2, 3), p)) for p in ODD_CYCLE_FACETS})
            ),
            "odd cycle",
        ),
        (lambda: subdivide_star(square(), [(1, 1), (2, 3)], PATH, [(1, 1), (2, 2)]), "not a face"),
        (
            lambda: subdivide_star(
                square(), [(1, 1), (2, 1)], BalancedComplex((2, 2, 1), PATH.facets), [(1, 1), (2, 2)]
            ),
            "same palette length",
        ),
        (
            lambda: subdivide_star(
                square(),
                [(1, 1), (2, 1)],
                BalancedComplex((2, 2), {frozenset({(1, 1), (2, 1)}), frozenset({(1, 2)})}),
                [(1, 1), (2, 2)],
            ),
            "pure of the same dimension",
        ),
        (lambda: subdivide_star(square(), [(1, 1), (2, 1)], PATH, [(1, 1), (1, 2)]), "sigma's colors"),
        (lambda: subdivide_star(square(), [(1, 1), (2, 1)], PATH, [(1, 1), (2, 2)]), "missing facet"),
    ],
)
def test_input_checks_refuse(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_vertex_orders_compare_and_hash_by_sequence():
    a = VertexOrder.interleaved_graph(2, 3)
    b = VertexOrder([("A", 1), ("B", 1), ("A", 2), ("B", 2), ("B", 3)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != VertexOrder.admissible_graph(2, 3, 1, 2)
    assert a != a.sequence
