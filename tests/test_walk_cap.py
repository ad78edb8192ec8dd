"""The prefix walk's per-draw rank cap against the uncapped walk.

``uncapped_walk`` is the prefix walk as it was before a step stopped at its
rank cap: every step offers the star row of each vertex of the other side
until the rank reaches E. It stays here as the oracle. On every draw of
``prefix_stream`` the capped walk must name the same cells, and on injected
streams that break the cap's premise (a row read with a zero at its own
position, or a nonzero before it) it must do what the oracle does, raising
included, since such a step is not capped.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balrig import shifting
from balrig.combinat import BipartiteGraph, VertexOrder, complete_edges
from balrig.errors import InvariantError
from balrig.exactla import DEFAULT_PRIME, GreedyBasis
from balrig.shifting import _prefix_trial
from test_golden import half_dense_8x9
from test_shift_oracle import graph_cases

PRIMES = (2, 3, 5, 101, DEFAULT_PRIME)


def uncapped_walk(g: BipartiteGraph, order: VertexOrder, new_basis=GreedyBasis):
    """The prefix walk without its cap, as a function of (p, seed); it reads
    ``shifting.prefix_stream``, so an injected stream reaches it too."""
    n_edges = g.n_edges
    sizes = (g.a_size, g.b_size)
    columns = sorted(
        g.edges, key=lambda e: order.lex_key((("A", e[0]), ("B", e[1]))), reverse=True
    )
    by_b = [[] for _ in range(g.b_size)]
    by_a = [[] for _ in range(g.a_size)]
    for col, (i, j) in enumerate(columns):
        by_b[j - 1].append((col, i - 1))
        by_a[i - 1].append((col, j - 1))
    stars = ([s for s in by_b if s], [s for s in by_a if s])
    steps = [(int(side == "B"), idx) for side, idx in order.sequence]

    def walk(p, seed):
        if not n_edges:
            return frozenset()
        streams = [shifting.prefix_stream(p, seed, c, size) for c, size in enumerate(sizes)]
        basis = new_basis(p)
        seen = [0, 0]
        cells = []
        for c, idx in steps:
            row = next(streams[c])
            before = basis.rank
            for star in stars[c]:
                basis.offer((c, idx), {col: row[v] for col, v in star})
                if basis.rank == n_edges:
                    break
            inc = basis.rank - before
            other = seen[1 - c]
            if other + inc > sizes[1 - c]:
                raise InvariantError("a walk step named more cells than its row or column has")
            seen[c] += 1
            if c:
                cells += [(i, idx) for i in range(other + 1, other + inc + 1)]
            else:
                cells += [(idx, j) for j in range(other + 1, other + inc + 1)]
            if basis.rank == n_edges:
                return frozenset(cells)
        raise InvariantError("the prefix walk ended below the edge count")

    return walk


def outcome(walk, p, seed):
    """The walk's edge set, or the message of the ``InvariantError`` it
    raised."""
    try:
        return walk(p, seed)
    except InvariantError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(graph_cases(max_side=8), st.sampled_from(PRIMES), st.integers(0, 10**6))
@example(
    (BipartiteGraph(9, 9, complete_edges(9, 9)), VertexOrder.admissible_graph(9, 9, 2, 3)), 2, 0
)
@example((half_dense_8x9(), VertexOrder.interleaved_graph(8, 9)), 3, 1)
def test_the_capped_walk_names_the_uncapped_walks_cells(case, p, seed):
    g, order = case
    assert _prefix_trial(g, order)(p, seed) == uncapped_walk(g, order)(p, seed)


def _streams(rows):
    """A ``prefix_stream`` stand-in that yields the rows ``rows[c]`` of block
    c, then zero rows."""
    return lambda p, seed, c, size: itertools.chain(rows[c], itertools.repeat([0] * size))


def test_a_zero_row_lifts_the_cap_of_the_other_side(monkeypatch):
    # zero B-rows give no relations, so A1 raises the rank by 2 with one cell
    # left in its row; a cap trusting the B-rows would stop it at 1 and hide
    # the break until the walk ended below E
    monkeypatch.setattr(shifting, "prefix_stream", _streams(([[1, 1]] * 2, [[0, 0]] * 2)))
    order = VertexOrder([("B", 1), ("A", 1), ("B", 2), ("A", 2)])
    g = BipartiteGraph(2, 2, complete_edges(2, 2))
    assert "more cells" in outcome(uncapped_walk(g, order), 101, 0)
    with pytest.raises(InvariantError, match="more cells"):
        _prefix_trial(g, order)(101, 0)


def test_a_nonzero_before_the_diagonal_lifts_the_cap(monkeypatch):
    # B2 reads (1, 1), nonzero at its own position but also before it: it
    # repeats B1, so the B-rows give one relation, not two, and A1 raises
    # the rank by 1 with no cell left in its row; a cap trusting the
    # diagonal alone would stop A1 at 0 and hide the break
    monkeypatch.setattr(
        shifting, "prefix_stream", _streams(([[1, 2], [0, 1]], [[1, 1], [1, 1]]))
    )
    order = VertexOrder([("B", 1), ("B", 2), ("A", 1), ("A", 2)])
    g = BipartiteGraph(2, 2, complete_edges(2, 2))
    expected = outcome(uncapped_walk(g, order), 7, 0)
    assert "more cells" in expected
    assert outcome(_prefix_trial(g, order), 7, 0) == expected


@st.composite
def injected_cases(draw):
    """(graph, order, p, rows): a graph on sides of at most 3, an order that
    extends the natural one on each side, and arbitrary rows mod p for each
    block, singular, zero or not triangular ones included."""
    g, order = draw(graph_cases(max_side=3))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows = [
        draw(st.lists(st.lists(st.integers(0, p - 1), min_size=size, max_size=size),
                      min_size=size, max_size=size))
        for size in (g.a_size, g.b_size)
    ]
    return g, order, p, rows


@settings(max_examples=300, deadline=None)
@given(injected_cases())
def test_on_any_stream_the_capped_walk_does_what_the_uncapped_does(case):
    g, order, p, rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shifting, "prefix_stream", _streams(rows))
        assert outcome(_prefix_trial(g, order), p, 0) == outcome(uncapped_walk(g, order), p, 0)


class CountingBasis(GreedyBasis):
    """A greedy basis that records each offer's label and the rank before
    it."""

    def __init__(self, p):
        super().__init__(p)
        self.offers = []

    def offer(self, label, row):
        self.offers.append((label, self.rank))
        return super().offer(label, row)


def test_no_star_row_is_offered_past_the_cap(monkeypatch):
    g = half_dense_8x9()
    sizes = {"A": g.a_size, "B": g.b_size}
    made = []

    def recording(p):
        made.append(CountingBasis(p))
        return made[-1]

    monkeypatch.setattr(shifting, "GreedyBasis", recording)
    for order in (
        VertexOrder.interleaved_graph(g.a_size, g.b_size),
        VertexOrder.admissible_graph(g.a_size, g.b_size, 3, 1),
    ):
        offered = {"capped": 0, "oracle": 0}
        for p, seed in itertools.product((3, 101, DEFAULT_PRIME), range(4)):
            oracle = CountingBasis(p)
            assert _prefix_trial(g, order)(p, seed) == uncapped_walk(g, order, lambda p: oracle)(
                p, seed
            )
            capped = made.pop()
            by_step = {}
            for label, rank in capped.offers:
                by_step.setdefault(label, []).append(rank)
            seen = {"A": 0, "B": 0}
            for side, idx in order.sequence:
                other = "B" if side == "A" else "A"
                ranks = by_step.get((int(side == "B"), idx), [])
                # every offer of the step finds the rank below its cap
                assert all(rank < ranks[0] + sizes[other] - seen[other] for rank in ranks)
                seen[side] += 1
            offered["capped"] += len(capped.offers)
            offered["oracle"] += len(oracle.offers)
        assert offered["capped"] < offered["oracle"]
