"""A rank that stops at its layout's bound, against the uncapped elimination.

A (k,l)-rigidity matrix has rank at most l|A| + k|B| - kl at every draw
when k <= |A| and l <= |B|, and any matrix at most its row and column
counts, so ``GenericMatrix.rank`` inserts no core row once the echelon has
reached that bound less the peeled rows. ``uncapped_rank`` is the
elimination as it was before: every row, sorted by its leading column, goes
through the echelon kernel. It stays here as the oracle, on every draw and
prime, small ones included, and on draws where an injected zero vector
fails a peel block, so that the peel falls back to the core.
"""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balrig import families as fam
from balrig.cli import main
from balrig.combinat import BipartiteGraph, complete_edges
from balrig.errors import InvariantError
from balrig.exactla import DEFAULT_PRIME, Echelon, GenericMatrix, _lead_key, sample_theta
from balrig.rigidity import analyze, build_rigidity_matrix, max_rank
from explicit_rows import from_entries
from test_complement_route import inject_rank, sheared_draws
from test_golden import half_dense_10x11

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def uncapped_rank(m: GenericMatrix) -> int:
    """Every row of m, peeled ones included, through one echelon in
    ``_lead_key`` order, with no bound."""
    echelon = Echelon(m.p)
    for entry in sorted(m.entries, key=lambda e: _lead_key([c for c, _ in e])):
        echelon.insert(dict(entry))
    return len(echelon.pivots)


def matrix(g: BipartiteGraph, k: int, l: int, p: int, seed: int) -> GenericMatrix:
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    return build_rigidity_matrix(g, k, l, theta, p)


def with_zero_vector(m: GenericMatrix) -> GenericMatrix:
    """m with the first vector that the first peel block's check reads set
    to zero, so that block fails and its rows and all later ones join the
    core; m itself when nothing peels."""
    if not m.layout.checks:
        return m
    vectors = list(m.vectors)
    v = m.layout.checks[0][0]
    vectors[v] = (0,) * len(vectors[v])
    return GenericMatrix(m.p, m.layout, vectors)


@st.composite
def cases(draw):
    """A half-dense or complete bipartite graph with sides of 1-8 vertices,
    k and l up to 4 (so at times above a side), a prime and a seed."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        edges = complete_edges(n, m)
    else:
        rng = random.Random(draw(st.integers(0, 999)))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        edges = frozenset(rng.sample(pairs, len(pairs) // 2))
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return BipartiteGraph(n, m, edges), k, l, draw(st.sampled_from(PRIMES)), draw(st.integers(0, 99))


@settings(max_examples=300, deadline=None)
@given(cases(), st.booleans())
@example((fam.complete_bipartite(8, 8), 4, 4, 2, 0), True)
@example((half_dense_10x11(), 3, 2, 2, 0), True)
@example((fam.complete_bipartite(3, 5), 4, 2, 101, 1), False)
def test_the_capped_rank_is_the_uncapped_rank(case, zeroed):
    g, k, l, p, seed = case
    m = matrix(g, k, l, p, seed)
    if zeroed:
        m = with_zero_vector(m)
    assert m.rank() == uncapped_rank(m)


def test_the_bound_is_the_complete_graphs_rank_only_within_the_sides():
    # within the sides, l|A| + k|B| - kl; above a side that formula can lie
    # below the rank (K_{2,2} at (3,3) has rank 4, the formula 3), so the
    # bound is the row or column count
    for n, m, k, l, bound in [(5, 6, 2, 3, 21), (2, 2, 3, 3, 4), (1, 1, 2, 2, 1), (2, 3, 3, 4, 6)]:
        mat = matrix(fam.complete_bipartite(n, m), k, l, DEFAULT_PRIME, 0)
        assert mat.layout.rank_bound == bound == mat.rank() == uncapped_rank(mat)
    # an explicit matrix's bound is its row or its column count
    assert from_entries(5, [[(0, 1)], [(1, 1)]], 3).layout.rank_bound == 2
    assert from_entries(5, [[(0, 1)]] * 3, 2).layout.rank_bound == 2


def _watch_inserts(monkeypatch) -> list:
    """The echelon's pivot count before every insert from now on."""
    counts = []
    insert = Echelon.insert

    def watching(self, row):
        counts.append(len(self.pivots))
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", watching)
    return counts


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("zeroed", [False, True])
def test_no_row_goes_in_once_the_echelon_reaches_the_cap(monkeypatch, p, zeroed):
    counts = _watch_inserts(monkeypatch)
    for g, k, l in [(fam.complete_bipartite(8, 8), 4, 4), (half_dense_10x11(), 3, 2)]:
        for seed in range(5):
            m = matrix(g, k, l, p, seed)
            if zeroed:
                m = with_zero_vector(m)
            peeled, want = m._peel(by_lead=True)[0], uncapped_rank(m)
            counts.clear()
            assert m.rank() == want
            assert counts and all(c < m.layout.rank_bound - peeled for c in counts)


#: rows that one rank of these matrices inserted before it stopped at its
#: bound (default prime, seed 0): every core row, of which K_{8,8} at (4,4)
#: has 64 and the half-dense graph at (3,2) 53 (2 rows peel)
PARENT_INSERTS = {"K_8,8": 64, "half-dense 10x11": 53}


@pytest.mark.parametrize(
    "name, g, k, l, bound",
    [("K_8,8", fam.complete_bipartite(8, 8), 4, 4, 48), ("half-dense 10x11", half_dense_10x11(), 3, 2, 47)],
)
def test_dense_ranks_insert_fewer_rows(monkeypatch, name, g, k, l, bound):
    m = matrix(g, k, l, DEFAULT_PRIME, 0)
    peeled = len(m.layout.peeled)
    assert m.layout.rank_bound == bound < len(m.layout.core) + peeled
    counts = _watch_inserts(monkeypatch)
    assert m.rank() == bound
    # the rows charged to free block slots go in first, and here every
    # row inserted is independent, so none reduces to zero
    assert len(counts) == bound - peeled < PARENT_INSERTS[name]


def test_the_charge_order_follows_the_cap_not_the_bound(monkeypatch):
    # K_{4,4} with four more B vertices, each joined to A1 and A2, at (2,2):
    # the bound, 20, covers the 16 core rows, but the 8 peeled rows leave a
    # cap of 12 below them, so the core goes in charged first and the rank
    # inserts 12 rows, none dependent; by lead alone it inserts 14
    edges = complete_edges(4, 4) | {(a, b) for a in (1, 2) for b in range(5, 9)}
    m = matrix(BipartiteGraph(4, 8, frozenset(edges)), 2, 2, DEFAULT_PRIME, 0)
    layout = m.layout
    assert len(layout.peeled) == 8 and layout.rank_bound == 20 >= len(layout.core) == 16
    counts = _watch_inserts(monkeypatch)
    assert m.rank() == 20
    assert len(counts) == 12


def _write(tmp_path, g: BipartiteGraph) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json_dict()))
    return str(path)


@pytest.mark.parametrize("past", ["max_rank", "edges"])
def test_analyze_refuses_a_rank_past_either_bound(tmp_path, capsys, past):
    # the capped rank never reaches these checks; a claimed rank does, on
    # either route. K_{3,3} at (2,2) has 9 edges and a maximal rank of 8, so
    # it takes the complement, and draws sheared off the triangular form
    # send it to elimination
    g = BipartiteGraph(3, 3, complete_edges(3, 3))
    claimed = max_rank(g, 2, 2) + 1 if past == "max_rank" else g.n_edges + 1
    match = "maximal rank" if past == "max_rank" else "edge count"
    for route in ("complement", "elimination"):
        with pytest.MonkeyPatch.context() as mp:
            if route == "elimination":
                sheared_draws(mp)
            routes = inject_rank(mp, lambda rank: claimed)
            with pytest.raises(InvariantError, match=match):
                analyze(g, 2, 2)
            assert main(["analyze", "--graph", _write(tmp_path, g), "-k", "2", "-l", "2"]) == 6
        assert match in json.loads(capsys.readouterr().out)["error"]["message"]
        assert routes == [route] * 6
