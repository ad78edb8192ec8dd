import itertools
import random

import pytest

from balrig import families as fam
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    all_faces,
    complete_edges,
    cone_left,
    f_vector,
    graph_to_complex,
    join_complexes,
)
from balrig import combinat, exactla
from balrig import shifting
from balrig.errors import InputError, InvariantError
from balrig.exactla import TrialPolicy, greedy_independent_rows, sample_theta
from balrig.shifting import (
    check_shifted,
    contains_complete_bipartite,
    contains_join,
    shift_complex,
    shift_graph,
)
from test_shift_oracle import dense_shift_faces


def K(n, m):
    return BipartiteGraph(n, m, complete_edges(n, m))


def half_dense_6x6():
    # not shifted, so shift_graph takes the prefix walk
    rng = random.Random(1)
    pairs = sorted(complete_edges(6, 6))
    return BipartiteGraph(6, 6, frozenset(e for e in pairs if rng.random() < 0.5))


def k33_minus():
    return BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})


def k33_minus_first():
    # K_{3,3} less its first edge: dense, and not shifted
    return BipartiteGraph(3, 3, complete_edges(3, 3) - {(1, 1)})


def test_complete_graphs_are_fixpoints():
    for n, m in ((1, 1), (2, 3), (3, 3), (4, 2)):
        g = K(n, m)
        for order in (
            VertexOrder.interleaved_graph(n, m),
            VertexOrder.admissible_graph(n, m, 1, 1),
        ):
            assert shift_graph(g, order).graph == g


def test_near_complete_is_fixpoint():
    g = k33_minus()
    assert shift_graph(g).graph == g


def test_path_is_fixpoint():
    path = BipartiteGraph(2, 1, frozenset({(1, 1), (2, 1)}))
    assert shift_graph(path).graph == path


def test_empty_graph_shifts_to_itself():
    g = BipartiteGraph(3, 2, frozenset())
    assert shift_graph(g).graph == g


def test_shift_records_metadata():
    policy = TrialPolicy(trials=2, seed=99)
    res = shift_graph(k33_minus(), policy=policy)
    assert res.meta.seed == 99
    assert res.meta.trials == 2
    assert res.meta.prime == policy.prime
    assert 0 < res.meta.failure_bound < 1e-15


def test_shift_rejects_wrong_order():
    with pytest.raises(InputError):
        shift_graph(K(2, 2), VertexOrder([("A", 1), ("B", 1)]))


def test_greedy_expansion_rows_select_all_but_last_pair():
    # expansions of all nine candidate pairs over the eight edge monomials of
    # the near-complete graph: the first eight in lexicographic order are
    # independent and the pair (3,3) is rejected
    g = k33_minus()
    p = TrialPolicy().prime
    theta_a, theta_b = sample_theta(p, 3, (3, 3), rows=(3, 3))
    order = VertexOrder.interleaved_graph(3, 3)
    basis = g.edge_list()
    pairs = sorted(
        ((i, j) for i in range(1, 4) for j in range(1, 4)),
        key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))),
    )
    rows = [
        (e, [theta_a[e[0] - 1][a - 1] * theta_b[e[1] - 1][b - 1] % p for a, b in basis])
        for e in pairs
    ]
    selected = greedy_independent_rows(p, rows)
    assert selected == pairs[:8]
    assert (3, 3) not in selected


def test_a_trial_eliminates_no_parameter_block(monkeypatch):
    # the draw is unit upper triangular already, so one greedy shifting
    # trial of a graph that is not shifted builds one echelon, the greedy
    # basis, and inserts only candidates; a complete graph settles and
    # builds none
    created, inserted = [], []
    init, insert = exactla.Echelon.__init__, exactla.Echelon.insert

    def counting_init(self, p):
        created.append(self)
        init(self, p)

    def counting_insert(self, row):
        inserted.append(self)
        return insert(self, row)

    monkeypatch.setattr(exactla.Echelon, "__init__", counting_init)
    monkeypatch.setattr(exactla.Echelon, "insert", counting_insert)
    p = TrialPolicy().prime
    g = half_dense_6x6()
    assert not check_shifted(g)
    assert len(shifting._edge_trial(g, _default_order(g))(p, 0)) == g.n_edges
    assert len(created) == 1
    assert inserted == created * len(inserted) and len(inserted) >= g.n_edges
    created.clear()
    g = K(4, 3)
    assert shifting._edge_trial(g, _default_order(g))(p, 0) == g.edges
    assert created == []


def test_check_shifted_examples():
    assert check_shifted(k33_minus())
    assert not check_shifted(BipartiteGraph(2, 2, frozenset({(2, 2)})))
    assert check_shifted(fam.gamma_complex(2, [3, 3, 3]))


def test_shift_output_is_shifted_and_conserves_edges():
    rng = random.Random(31)
    for i in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        g = BipartiteGraph(
            n, m, frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
        )
        res = shift_graph(g, policy=TrialPolicy(trials=2, seed=i))
        assert res.graph.n_edges == g.n_edges
        assert check_shifted(res.graph)


def test_subgraph_monotonicity():
    rng = random.Random(32)
    for i in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.6)
        g = BipartiteGraph(n, m, edges)
        sub_edges = frozenset(e for e in edges if rng.random() < 0.7)
        h = BipartiteGraph(n, m, sub_edges)
        policy = TrialPolicy(trials=2, seed=500 + i)
        assert shift_graph(h, policy=policy).graph.edges <= shift_graph(
            g, policy=policy
        ).graph.edges


def test_cone_commutes_on_a_sample():
    g = BipartiteGraph(3, 2, frozenset({(1, 1), (2, 2), (3, 1)}))
    order = VertexOrder.interleaved_graph(3, 2)
    policy = TrialPolicy(trials=2, seed=8)
    lhs = shift_graph(cone_left(g).graph, order.cone_left(), policy).graph
    rhs = cone_left(shift_graph(g, order, policy).graph).graph
    assert lhs == rhs


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def test_single_facet_is_fixpoint():
    k = BalancedComplex((1, 1, 1), frozenset({frozenset({(1, 1), (2, 1), (3, 1)})}))
    assert shift_complex(k).complex == k


def test_cross_polytope_is_fixpoint():
    for d in (2, 3):
        k = fam.cross_polytope_boundary(d)
        res = shift_complex(k, policy=TrialPolicy(trials=2, seed=d))
        assert res.complex == k


@pytest.mark.parametrize(
    "k", [fam.cross_polytope_boundary(4), fam.gamma_complex(2, [3, 3, 4])], ids=["cp4", "gamma"]
)
@pytest.mark.parametrize("p", [2, exactla.DEFAULT_PRIME])
def test_candidates_of_a_shifted_complex_meet_no_pivot(monkeypatch, k, p):
    # every component of a shifted complex is down-closed, so it settles on
    # the unit upper triangular draw: no candidate is offered, and the dense
    # oracle, which offers them all, picks every face on the same draw
    assert check_shifted(k)
    offered = []
    insert = exactla.Echelon.insert

    def watching_insert(self, row):
        offered.append(row)
        return insert(self, row)

    monkeypatch.setattr(exactla.Echelon, "insert", watching_insert)
    order = VertexOrder.interleaved_complex(k.color_sizes)
    faces = all_faces(k) - {frozenset()}
    assert shifting._face_trial(k, order)(p, 0) == faces
    assert offered == []
    monkeypatch.setattr(exactla.Echelon, "insert", insert)
    assert dense_shift_faces(k, order, p, sample_theta(p, 0, k.color_sizes)) == faces


def test_a_complex_shift_reads_its_facets_off_the_checked_faces(monkeypatch):
    # the facets come out of the shiftedness pass; only the constructor's
    # antichain check runs maximal_faces, and only on them
    k = fam.glued_cross_polytopes(3).complex
    pools = []
    maximal_faces = combinat.maximal_faces

    def watching(pool):
        pools.append(frozenset(pool))
        return maximal_faces(pools[-1])

    monkeypatch.setattr(combinat, "maximal_faces", watching)
    res = shift_complex(k, policy=TrialPolicy(trials=1))
    assert res.complex != k and pools == [res.complex.facets]


def test_shift_complex_preserves_flag_counts():
    rng = random.Random(77)
    for i in range(10):
        sizes = (rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3))
        facets = frozenset(
            frozenset(zip((1, 2, 3), pick))
            for pick in itertools.product(*[range(1, s + 1) for s in sizes])
            if rng.random() < 0.5
        )
        if not facets:
            continue
        k = BalancedComplex(sizes, facets)
        res = shift_complex(k, policy=TrialPolicy(trials=2, seed=i))
        assert f_vector(res.complex) == f_vector(k)
        assert check_shifted(res.complex)


def test_shift_graph_agrees_with_one_dimensional_complex_shift():
    g = k33_minus()
    policy = TrialPolicy(trials=2, seed=4)
    as_complex = graph_to_complex(g)
    res = shift_complex(as_complex, policy=policy)
    edges = {
        (dict(f)[1], dict(f)[2]) for f in res.complex.facets if len(f) == 2
    }
    assert edges == set(shift_graph(g, policy=policy).graph.edges)


def test_join_shift_compatibility_sample():
    three = BalancedComplex((3,), frozenset({frozenset({(1, i)}) for i in (1, 2, 3)}))
    path = graph_to_complex(BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1)})))
    policy = TrialPolicy(trials=2, seed=21)
    joined = join_complexes(path, three)
    lhs = shift_complex(joined, policy=policy).complex
    rhs = join_complexes(
        shift_complex(path, policy=policy).complex,
        shift_complex(three, policy=policy).complex,
    )
    assert lhs == rhs


def test_contains_complete_bipartite():
    g = k33_minus()
    assert contains_complete_bipartite(g, 2, 2)
    assert not contains_complete_bipartite(g, 3, 3)
    # brute-force path on a non-shifted graph
    scrambled = BipartiteGraph(3, 3, frozenset({(2, 2), (2, 3), (3, 2), (3, 3)}))
    assert contains_complete_bipartite(scrambled, 2, 2)
    assert not contains_complete_bipartite(scrambled, 3, 1)
    assert not contains_complete_bipartite(scrambled, 4, 1)
    with pytest.raises(InputError):
        contains_complete_bipartite(g, 0, 1)


def test_contains_join():
    gamma = fam.gamma_complex(2, [3, 3, 3])
    assert not contains_join(gamma, 3)
    assert contains_join(fam.van_kampen_complex(2, 2), 3)
    assert contains_join(fam.cross_polytope_boundary(3), 2)
    # non-shifted complex takes the search path
    facets = frozenset(
        frozenset(zip((1, 2), pick))
        for pick in itertools.product((2, 3), repeat=2)
    )
    shifted_away = BalancedComplex((3, 3), facets)
    assert contains_join(shifted_away, 2)
    assert not contains_join(shifted_away, 3)


def test_a_non_shifted_agreed_edge_set_is_refused_as_a_too_small_prime():
    # over F_2 this draw selects a non-shifted edge set
    g = BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)}))
    with pytest.raises(InputError, match="prime 2 is too small"):
        shift_graph(g, policy=TrialPolicy(prime=2, trials=1))
    assert check_shifted(shift_graph(g).graph)


def test_a_non_shifted_agreed_face_set_is_refused_as_a_too_small_prime():
    # over F_2 this draw picks a non-shifted edge set for a path of three
    # edges
    facets = [{(1, 1), (2, 1)}, {(1, 2), (2, 1)}, {(1, 2), (2, 2)}]
    k = BalancedComplex((2, 2), frozenset(map(frozenset, facets)))
    with pytest.raises(InputError, match="prime 2 is too small"):
        shift_complex(k, policy=TrialPolicy(prime=2, trials=1, seed=1))
    assert check_shifted(shift_complex(k).complex)
    # a lone vertex's block is [[1, u], [0, 1]], so it stays put on every draw
    lone = BalancedComplex((2,), frozenset({frozenset({(1, 1)})}))
    for seed in range(8):
        policy = TrialPolicy(prime=2, trials=1, seed=seed)
        assert shift_complex(lone, policy=policy).complex == lone


def test_the_failure_bound_of_a_complex_shift_sums_the_face_sizes():
    # a candidate entry on a face is a product of one drawn entry per vertex
    policy = TrialPolicy(prime=101, trials=1)
    for k, degree in [
        (fam.cross_polytope_boundary(3), 54),
        (fam.cross_polytope_boundary(4), 216),
        (fam.cross_polytope_boundary(5), 810),
        (fam.gamma_complex(3, [3, 3, 3, 3]), 764),
    ]:
        assert shift_complex(k, policy=policy).meta.failure_bound == degree / 101


def _default_order(g):
    return VertexOrder.interleaved_graph(g.a_size, g.b_size)


def _refuse(*args):
    raise AssertionError("this route must not run")


def _staircase(n):
    # the shifted graph whose A-vertex i is joined to B-vertices 1..n+1-i
    edges = frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i))
    return BipartiteGraph(n, n, edges)


def test_the_route_rule_sends_shifted_graphs_to_the_greedy(monkeypatch):
    monkeypatch.setattr(shifting, "_prefix_trial", _refuse)
    graphs = [K(n, n) for n in range(3, 9)] + [K(3, 4), K(2, 20), _staircase(20)]
    graphs.append(fam.random_quadrangulation(8, seed=8))  # K_{8,2}
    for g in graphs:
        assert check_shifted(g)
        for order in (_default_order(g), VertexOrder.admissible_graph(g.a_size, g.b_size, 2, 1)):
            assert shift_graph(g, order).graph == g


def test_the_route_rule_sends_graphs_that_are_not_shifted_to_the_walk(monkeypatch):
    monkeypatch.setattr(shifting, "_edge_trial", _refuse)
    graphs = [fam.random_quadrangulation(f, seed=1) for f in (8, 16, 64)]
    graphs += [fam.random_tree(n, m, seed=n) for n, m in ((3, 4), (10, 10), (40, 25))]
    graphs += [half_dense_6x6(), k33_minus_first()]
    for g in graphs:
        assert not check_shifted(g)
        sg = shift_graph(g).graph
        assert sg.n_edges == g.n_edges and check_shifted(sg)


def test_the_walk_is_not_shifted_by_construction():
    # over F_2 this draw's prefix ranks name a non-shifted edge set;
    # shift_graph refuses it as coming from a too small prime
    g = BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)}))
    walked = shifting._prefix_trial(g, _default_order(g))(2, 0)
    assert walked == {(1, 1), (1, 2), (1, 3), (2, 2)}
    assert not check_shifted(BipartiteGraph(3, 3, walked))


def _constant_streams(rows):
    """A ``prefix_stream`` stand-in that yields ``rows[c]`` on block c
    forever: singular blocks, which the draw cannot give."""
    return lambda p, seed, c, size: itertools.repeat([rows[c]] * size)


def test_a_walk_step_naming_too_many_cells_breaks_an_invariant(monkeypatch):
    # zero B-rows give no relations, so the first A-step after both B-steps
    # raises the rank by 2 with no cell left in its row
    monkeypatch.setattr(shifting, "prefix_stream", _constant_streams((1, 0)))
    order = VertexOrder([("B", 1), ("B", 2), ("A", 1), ("A", 2)])
    with pytest.raises(InvariantError, match="more cells"):
        shifting._prefix_trial(K(2, 2), order)(101, 0)


def test_a_walk_ending_below_the_edge_count_breaks_an_invariant(monkeypatch):
    # all-ones rows on both sides span 3 of K_{2,2}'s 4 edges
    monkeypatch.setattr(shifting, "prefix_stream", _constant_streams((1, 1)))
    with pytest.raises(InvariantError, match="ended below"):
        shifting._prefix_trial(K(2, 2), _default_order(K(2, 2)))(101, 0)


def test_a_component_left_unspanned_breaks_an_invariant(monkeypatch):
    # singular blocks cannot come from the draw; two equal rows leave the
    # candidates short of the edges' span
    monkeypatch.setattr(
        shifting, "sample_theta", lambda p, seed, sizes: [[[1, 1]] * 2] * 2
    )
    with pytest.raises(InvariantError, match="failed to span"):
        shift_graph(K(2, 2), policy=TrialPolicy(trials=1))


def test_a_lost_edge_breaks_an_invariant(monkeypatch):
    monkeypatch.setattr(
        shifting, "_edge_trial", lambda g, order: lambda p, seed: frozenset({(1, 1)})
    )
    with pytest.raises(InvariantError, match="edge count"):
        shift_graph(K(2, 2), policy=TrialPolicy(trials=1))


def test_a_changed_f_vector_breaks_an_invariant(monkeypatch):
    # a shifted complex, but a single vertex where the octahedron has 27 faces
    monkeypatch.setattr(
        shifting,
        "_face_trial",
        lambda k, order: lambda p, seed: frozenset({frozenset({(1, 1)})}),
    )
    with pytest.raises(InvariantError, match="f-vector"):
        shift_complex(fam.cross_polytope_boundary(3), policy=TrialPolicy(trials=1))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda k: shift_complex(k, VertexOrder([(1, 1), (2, 1), (1, 2), (3, 1), (3, 2)])),
            "does not cover the complex's palette",
        ),
        (lambda k: contains_join(k, 0), "join size must be positive"),
    ],
)
def test_complex_input_checks_refuse(build, message):
    with pytest.raises(InputError, match=message):
        build(fam.cross_polytope_boundary(3))
