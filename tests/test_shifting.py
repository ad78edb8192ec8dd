import random

import pytest

from balrig import families as fam
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    complete_edges,
    cone_left,
    f_vector,
    graph_to_complex,
    join_complexes,
)
from balrig import exactla
from balrig.errors import InputError
from balrig.exactla import TrialPolicy, greedy_independent_rows, sample_theta
from balrig.shifting import (
    check_shifted,
    contains_complete_bipartite,
    contains_join,
    shift_complex,
    shift_graph,
)


def K(n, m):
    return BipartiteGraph(n, m, complete_edges(n, m))


def k33_minus():
    return BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})


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


def test_a_trial_eliminates_each_parameter_block_once(monkeypatch):
    # the draw hands its triangular rows to the expansion, so one shifting
    # trial builds one echelon per parameter block and one for the greedy
    # basis, and inserts every block row once
    created, inserted = [], []
    init, insert = exactla.Echelon.__init__, exactla.Echelon.insert

    def counting_init(self, p):
        created.append(self)
        init(self, p)

    def counting_insert(self, row, tag=None):
        inserted.append(self)
        return insert(self, row, tag)

    monkeypatch.setattr(exactla.Echelon, "__init__", counting_init)
    monkeypatch.setattr(exactla.Echelon, "insert", counting_insert)
    shift_graph(K(4, 3), policy=TrialPolicy(trials=1))
    assert len(created) == 3
    assert [inserted.count(e) for e in created[:2]] == [4, 3]


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


def test_shift_complex_preserves_flag_counts():
    rng = random.Random(77)
    import itertools

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
    import itertools

    facets = frozenset(
        frozenset(zip((1, 2), pick))
        for pick in itertools.product((2, 3), repeat=2)
    )
    shifted_away = BalancedComplex((3, 3), facets)
    assert contains_join(shifted_away, 2)
    assert not contains_join(shifted_away, 3)
