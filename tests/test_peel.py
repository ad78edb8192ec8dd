"""Peeling private blocks before elimination, against the unpeeled route.

A matrix builder hands ``GenericMatrix`` a layout that fixes its peel;
``unpeeled`` (``explicit_rows``) is the same entries with nothing peeled,
so every row goes through the echelon kernel.
Rank and left kernel must agree at every draw, at small primes too, where
blocks often fail their check and the peel falls back to the core. The
peel itself is checked against a naive fixpoint on the block structure.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig import exactla, rigidity
from balrig import families as fam
from balrig.combinat import BalancedComplex, BipartiteGraph
from balrig.errors import InputError
from balrig.exactla import DEFAULT_PRIME, GenericMatrix, Layout, lay_out, sample_theta
from balrig.rigidity import _complex_join, _graph_join, _layout, build_M, build_rigidity_matrix
from explicit_rows import unpeeled

SMALL_PRIMES = (2, 3, 5)


def graph_layout(g: BipartiteGraph, k: int, l: int) -> Layout:
    """The layout ``build_rigidity_matrix`` reads: g's 2-color complex at
    widths (k, l)."""
    return _layout(g, (k, l), _graph_join)


def complex_layout(kx: BalancedComplex, l: int) -> Layout:
    """The layout ``build_M`` reads: kx at width l in every color."""
    return _layout(kx, (l,) * kx.n_colors, _complex_join)


def assert_same_as_unpeeled(m: GenericMatrix) -> None:
    oracle = unpeeled(m)
    assert m.rank() == oracle.rank()
    assert m.left_kernel() == oracle.left_kernel()


@st.composite
def graph_cases(draw):
    """A random bipartite graph with sides of 1-6 vertices, k and l up to 4
    (so at times above a side), a small prime and a seed."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    edges = frozenset(e for e in pairs if draw(st.booleans()))
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p, seed = draw(st.sampled_from(SMALL_PRIMES)), draw(st.integers(0, 99))
    return BipartiteGraph(n, m, edges), k, l, p, seed


@st.composite
def complex_cases(draw):
    """A random pure balanced complex on 1-4 colors of 1-3 vertices, l up
    to 3, a small prime and a seed."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    picks = list(itertools.product(*[range(1, s + 1) for s in sizes]))
    chosen = [pick for pick in picks if draw(st.booleans())] or [picks[0]]
    kx = BalancedComplex(sizes, frozenset(frozenset(enumerate(p, 1)) for p in chosen))
    return kx, draw(st.integers(1, 3)), draw(st.sampled_from(SMALL_PRIMES)), draw(st.integers(0, 99))


@settings(max_examples=300, deadline=None)
@given(graph_cases())
def test_rigidity_matrices_match_the_unpeeled_elimination(case):
    g, k, l, p, seed = case
    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
    assert_same_as_unpeeled(build_rigidity_matrix(g, k, l, theta, p))


@settings(max_examples=200, deadline=None)
@given(complex_cases())
def test_facet_ridge_matrices_match_the_unpeeled_elimination(case):
    kx, l, p, seed = case
    theta = sample_theta(p, seed, kx.color_sizes, rows=(l,) * kx.n_colors)
    assert_same_as_unpeeled(build_M(kx, l, theta, p))


def test_failed_blocks_fall_back_to_the_exact_rank_and_kernel(monkeypatch):
    # at p = 2 and 3 many block checks fail; every draw must still give
    # the unpeeled rank and kernel
    verdicts = []
    independent = exactla._independent

    def watching(*args):
        verdicts.append(independent(*args))
        return verdicts[-1]

    monkeypatch.setattr(exactla, "_independent", watching)
    rng = random.Random(13)
    graphs = [fam.random_tree(6, 8, seed=1), fam.random_quadrangulation(12, seed=2)]
    pairs = list(itertools.product(range(1, 6), repeat=2))
    graphs += [
        BipartiteGraph(5, 5, frozenset(e for e in pairs if rng.random() < 0.5)) for _ in range(4)
    ]
    complexes = [fam.cross_polytope_boundary(3), fam.gamma_complex(2, [3, 3, 3])]
    for p in (2, 3, DEFAULT_PRIME):
        for seed in range(5):
            for g in graphs:
                for k, l in ((1, 1), (2, 2), (1, 3)):
                    theta = sample_theta(p, seed, (g.a_size, g.b_size), rows=(k, l))
                    assert_same_as_unpeeled(build_rigidity_matrix(g, k, l, theta, p))
            for kx in complexes:
                theta = sample_theta(p, seed, kx.color_sizes, rows=(2,) * kx.n_colors)
                assert_same_as_unpeeled(build_M(kx, 2, theta, p))
    assert True in verdicts and False in verdicts


def independent_by_search(p: int, vectors) -> bool:
    """No nonzero combination of the vectors vanishes mod p."""
    width = len(vectors[0])
    return not any(
        any(c) and all(sum(x * v[j] for x, v in zip(c, vectors)) % p == 0 for j in range(width))
        for c in itertools.product(range(p), repeat=len(vectors))
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SMALL_PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 4).flatmap(
                lambda width: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
                    min_size=1,
                    max_size=width,
                )
            ),
        )
    )
)
def test_the_block_check_is_linear_independence(case):
    p, rows = case
    assert exactla._independent(p, rows) == independent_by_search(p, rows)


def peeled_blocks(layout: Layout) -> list:
    """The blocks a layout peels, in peel order, each as its rows and the
    vectors its check reads, one per row."""
    ends = itertools.accumulate(map(len, layout.checks))
    return [(layout.peeled[e - len(check) : e], check) for e, check in zip(ends, layout.checks)]


def test_a_plan_peels_blocks_in_turn_and_names_their_vectors(monkeypatch):
    # rows 0, 1, 2 meet the blocks (0, 2), (1, 2) and (1, 3), filled by the
    # vectors (0, 1), (2, 3) and (4, 5); block 0 is 2 wide, the others 1.
    # Blocks 0 and 3 meet one row each and peel first; block 2 (two rows)
    # peels once block 0 has taken row 0, and block 1, whose rows 1 and 2
    # have both gone, peels nothing and comes last
    layout = lay_out((2, 1, 1, 1), [(0, 1, 1), (2, 2, 3)], [(0, 1), (2, 3), (4, 5)], 3)
    assert (layout.checks, layout.peeled, layout.core, layout.core_by_lead) == (
        [[0], [5], [3]], [0, 2, 1], [], ()
    )
    # the columns hold the blocks in the order 0, 3, 2, 1
    assert layout.columns == ((0, 1, 3), (4, 3), (4, 2)) and layout.n_cols == 5
    # the matrix checks each block, in peel order, on the vectors it names
    checked = []
    independent = exactla._independent
    monkeypatch.setattr(exactla, "_independent", lambda p, v: checked.append(v) or independent(p, v))
    m = GenericMatrix(5, layout, [(1, 2), (3,), (4,), (1,), (2,), (3,)])
    assert m.n_cols == 5 and m.rows == ((1, 2, 0, 3, 0), (0, 0, 0, 1, 4), (0, 0, 3, 0, 2))
    assert m.rank() == 3 and checked == [[(1, 2)], [(3,)], [(1,)]]
    # block 0 peels row 0; blocks 1 and 2, one column each, keep rows 1
    # and 2, which are the core and follow it, tied, by block
    layout = lay_out((2, 1, 1), [(0, 1, 1), (1, 2, 2)], [(0, 1), (2, 3), (4, 5)], 3)
    assert (layout.checks, layout.peeled, layout.core, layout.core_by_lead) == (
        [[0]], [0], [1, 2], (1, 2)
    )
    assert layout.columns == ((0, 1, 2), (2, 3), (2, 3))
    # a row that meets a block twice is refused
    for by_color in [[(0,), (0,)], [(0,), (1,), (0,)]]:
        with pytest.raises(InputError, match="twice"):
            lay_out((2, 1), by_color, [range(len(by_color))], 1)


def met_block_order(layout: Layout, widths, row_blocks) -> list:
    """The blocks that some row meets, in column order, read off the
    layout's columns: row i meets the blocks ``row_blocks[i]``, and its
    columns are theirs, ``widths[b]`` for block b, in that order. Each such
    block holds one run of consecutive columns, the same in every row that
    meets it, and no two runs overlap; a block that no row meets holds no
    entry, so its place is not read."""
    runs = {}
    for blocks, columns in zip(row_blocks, layout.columns):
        ends = itertools.accumulate((widths[b] for b in blocks), initial=0)
        for b, (start, end) in zip(blocks, itertools.pairwise(ends)):
            run = columns[start:end]
            assert runs.setdefault(b, run) == run == tuple(range(run[0], run[0] + widths[b]))
    order = sorted(runs, key=runs.__getitem__)
    assert all(runs[b][-1] < runs[c][0] for b, c in zip(order, order[1:]))
    return order


def naive_peeled_rows(widths, row_blocks) -> set:
    """The rows that peel, by a fixpoint: drop every block that at most its
    width of the remaining rows meet, with those rows, until none is left."""
    remaining = set(range(len(row_blocks)))
    while True:
        meeting = [{i for i in remaining if b in row_blocks[i]} for b in range(len(widths))]
        drop = set().union(*(rows for rows, w in zip(meeting, widths) if len(rows) <= w))
        if not drop:
            return set(range(len(row_blocks))) - remaining
        remaining -= drop


def assert_a_valid_peel(layout, widths, row_blocks) -> None:
    """The layout peels the fixpoint's rows, and replayed in peel order each
    block takes every remaining row that meets it, at most its width, and
    names per row the vector that fills the row in the block. Row i meets
    the blocks ``row_blocks[i]``, in the order of its vectors
    ``layout.fills[i]`` and of its columns."""
    n, columns, fills = len(row_blocks), layout.columns, layout.fills
    peeled = set(layout.peeled)
    assert len(peeled) == len(layout.peeled)
    assert peeled == naive_peeled_rows(widths, row_blocks)
    assert list(layout.core) == sorted(set(range(n)) - peeled)
    assert sorted(layout.core_by_lead) == list(layout.core)
    remaining = set(range(n))
    for rows, check in peeled_blocks(layout):
        assert len(rows) == len(check) > 0
        (b,) = {row_blocks[i][fills[i].index(v)] for i, v in zip(rows, check)}
        i, v = rows[0], check[0]
        start = sum(widths[c] for c in row_blocks[i][: fills[i].index(v)])
        block_columns = set(columns[i][start : start + widths[b]])
        meeting = {j for j in remaining if block_columns & set(columns[j])}
        assert set(rows) == meeting and len(meeting) <= widths[b]
        remaining -= meeting


@settings(max_examples=300, deadline=None)
@given(graph_cases())
def test_the_graph_peel_is_the_naive_fixpoint(case):
    g, k, l, _, _ = case
    layout = graph_layout(g, k, l)
    widths = [l] * g.a_size + [k] * g.b_size
    # an edge row meets its A-vertex's block, filled by the l-vector of its
    # B-vertex, and then its B-vertex's, filled by the k-vector of its
    # A-vertex; vectors are numbered A-vertices first
    row_blocks = [(a - 1, g.a_size + b - 1) for a, b in sorted(g.edges)]
    assert layout.fills == tuple((v, u) for u, v in row_blocks)
    assert_a_valid_peel(layout, widths, row_blocks)


@settings(max_examples=200, deadline=None)
@given(complex_cases())
def test_the_facet_ridge_peel_is_the_naive_fixpoint(case):
    kx, l, _, _ = case
    layout = complex_layout(kx, l)
    facets = sorted(tuple(sorted(f)) for f in kx.facets)  # the rows, as sorted picks
    ridges = sorted({frozenset(f) - {v} for f in facets for v in f}, key=sorted)
    # a facet row meets the ridge without each of its vertices, from the
    # last color back, filled by that vertex's l-vector; vectors are
    # numbered color by color
    row_blocks = [[ridges.index(frozenset(f) - {v}) for v in reversed(f)] for f in facets]
    first = [sum(kx.color_sizes[:c]) for c in range(kx.n_colors)]
    assert layout.fills == tuple(
        tuple(first[c - 1] + i - 1 for c, i in reversed(f)) for f in facets
    )
    assert_a_valid_peel(layout, [l] * len(ridges), row_blocks)


def test_the_core_blocks_follow_the_peeled_ones_by_core_rows():
    # after the peeled blocks come exactly the blocks the core rows meet,
    # those that fewest core rows meet first, ties by block: none for a
    # tree at (1,1), the vertices of the 22 core rows of a quadrangulation
    tree, quad = fam.random_tree(10, 27, seed=5), fam.random_quadrangulation(64, seed=0)
    for g, k, l, n_core in [(tree, 1, 1, 0), (quad, 2, 2, 22)]:
        layout = graph_layout(g, k, l)
        ends = [(a - 1, g.a_size + b - 1) for a, b in sorted(g.edges)]
        met = Counter(b for i in layout.core for b in ends[i])
        assert len(layout.core) == n_core
        order = met_block_order(layout, [l] * g.a_size + [k] * g.b_size, ends)
        after = order[len(layout.checks) :]
        assert after[: len(met)] == sorted(met, key=lambda b: (met[b], b))


@pytest.mark.parametrize(
    "g, k, l",
    [(fam.random_tree(10, 27, seed=5), 1, 1), (fam.random_quadrangulation(64, seed=0), 2, 2)],
)
def test_peeled_blocks_come_first_then_the_core(g, k, l):
    # the columns hold the peeled blocks in peel order, then the vertices
    # of the core rows, which reach no other column. A row's columns are
    # its A-vertex's block, filled by its first vector, then its B-vertex's
    layout = graph_layout(g, k, l)
    columns, fills = layout.columns, layout.fills
    at = 0
    for rows, check in peeled_blocks(layout):
        for i, v in zip(rows, check):
            in_block = columns[i][:l] if fills[i][0] == v else columns[i][l:]
            assert in_block == tuple(range(at, at + len(in_block)))
        at += len(in_block)
    core_columns = {c for i in layout.core for c in columns[i]}
    assert core_columns == set(range(at, at + len(core_columns)))


def _inserted_rows(monkeypatch) -> list:
    """Every row that reaches ``Echelon.insert`` from now on, as a set of
    (column, value) pairs."""
    rows = []
    insert = exactla.Echelon.insert

    def watching(self, row):
        rows.append(frozenset(row.items()))
        return insert(self, row)

    monkeypatch.setattr(exactla.Echelon, "insert", watching)
    return rows


@pytest.mark.parametrize("route", ["rank", "left_kernel"])
def test_a_tree_and_a_sphere_matrix_send_no_row_to_the_echelon(monkeypatch, route):
    # every edge of a tree at (1,1) peels at a leaf; every ridge of the
    # 4-dimensional cross-polytope lies in 2 facets, as many as l = 2 slots
    inserted = _inserted_rows(monkeypatch)
    tree = fam.random_tree(10, 27, seed=5)
    theta = sample_theta(DEFAULT_PRIME, 0, (10, 27), rows=(1, 1))
    m = build_rigidity_matrix(tree, 1, 1, theta, DEFAULT_PRIME)
    kx = fam.cross_polytope_boundary(4)
    theta = sample_theta(DEFAULT_PRIME, 0, kx.color_sizes, rows=(2,) * kx.n_colors)
    mk = build_M(kx, 2, theta, DEFAULT_PRIME)
    if route == "rank":
        assert m.rank() == 36 and mk.rank() == 16
    else:
        assert m.left_kernel() == [] and mk.left_kernel() == []
    assert inserted == []


def test_a_quadrangulation_sends_only_its_core(monkeypatch):
    quad = fam.random_quadrangulation(64, seed=0)
    theta = sample_theta(DEFAULT_PRIME, 0, (quad.a_size, quad.b_size), rows=(2, 2))
    m = build_rigidity_matrix(quad, 2, 2, theta, DEFAULT_PRIME)
    core = [frozenset(m.entries[i]) for i in m.layout.core_by_lead]
    assert len(core) == 22
    inserted = _inserted_rows(monkeypatch)
    assert m.rank() == 128
    assert inserted == core


def test_builders_refuse_blocks_with_too_few_rows():
    # a short block would leave entries out of the runs the plan reads
    g = fam.random_tree(3, 4, seed=0)
    theta = sample_theta(DEFAULT_PRIME, 0, (3, 4), rows=(1, 2))
    with pytest.raises(InputError, match="rows"):
        build_rigidity_matrix(g, 2, 2, theta, DEFAULT_PRIME)
    kx = fam.cross_polytope_boundary(3)
    theta = sample_theta(DEFAULT_PRIME, 0, kx.color_sizes, rows=(2, 1, 2))
    with pytest.raises(InputError, match="rows"):
        build_M(kx, 2, theta, DEFAULT_PRIME)


def test_builders_refuse_blocks_with_too_few_columns():
    # the vectors are numbered vertex by vertex, so a block narrower than
    # its side or color would hand a row another vertex's vector; a wider
    # block is read up to its side's size
    g = fam.random_tree(3, 4, seed=0)
    for sizes in [(2, 4), (3, 3)]:
        theta = sample_theta(DEFAULT_PRIME, 0, sizes, rows=(1, 1))
        with pytest.raises(InputError, match="column per vertex"):
            build_rigidity_matrix(g, 1, 1, theta, DEFAULT_PRIME)
    theta = sample_theta(DEFAULT_PRIME, 0, (4, 5), rows=(1, 1))
    assert build_rigidity_matrix(g, 1, 1, theta, DEFAULT_PRIME).rank() == 6
    kx = fam.cross_polytope_boundary(3)
    theta = sample_theta(DEFAULT_PRIME, 0, (2, 1, 2), rows=(2, 2, 2))
    with pytest.raises(InputError, match="column per vertex"):
        build_M(kx, 2, theta, DEFAULT_PRIME)


def _built_rows(monkeypatch) -> list:
    """The index of every row that a matrix builds from now on."""
    built = []
    values = GenericMatrix._values

    def watching(self, i):
        built.append(i)
        return values(self, i)

    monkeypatch.setattr(GenericMatrix, "_values", watching)
    return built


def test_a_tree_builds_no_row_in_any_trial(monkeypatch):
    built = _built_rows(monkeypatch)
    tree = fam.random_tree(10, 27, seed=5)
    report = rigidity.analyze(tree, 1, 1)
    assert report.rank == tree.n_edges == 36 and report.meta.trials == 3
    assert built == []


def test_a_quadrangulation_builds_only_its_core_rows(monkeypatch):
    quad = fam.random_quadrangulation(64, seed=0)
    theta = sample_theta(DEFAULT_PRIME, 0, (quad.a_size, quad.b_size), rows=(2, 2))
    m = build_rigidity_matrix(quad, 2, 2, theta, DEFAULT_PRIME)
    built = _built_rows(monkeypatch)
    assert m.rank() == 128
    assert built == list(m.layout.core_by_lead) and len(built) == 22
    built.clear()
    assert m.left_kernel() == []
    assert built == list(m.layout.core)


@pytest.mark.parametrize("builder", ["rigidity", "facet-ridge"])
def test_a_failing_block_builds_every_row(monkeypatch, builder):
    # at p = 2 blocks fail often; at a draw where some block fails its
    # check, rank and left kernel build every row, by index, and equal the
    # unpeeled elimination, and at a draw where every block passes they
    # build the core alone
    failing_draws = 0
    for seed in range(12):
        if builder == "rigidity":
            g = fam.random_tree(6, 7, seed=2)
            theta = sample_theta(2, seed, (6, 7), rows=(1, 1))
            m = build_rigidity_matrix(g, 1, 1, theta, 2)
        else:
            kx = fam.glued_cross_polytopes(3).complex
            theta = sample_theta(2, seed, kx.color_sizes, rows=(2,) * kx.n_colors)
            m = build_M(kx, 2, theta, 2)
        oracle = unpeeled(m)
        rank, kernel = oracle.rank(), oracle.left_kernel()
        checks = m.layout.checks
        failing = not all(independent_by_search(2, [m.vectors[v] for v in c]) for c in checks)
        failing_draws += failing
        built = _built_rows(monkeypatch)
        assert m.rank() == rank
        assert built == (list(range(m.n_rows)) if failing else list(m.layout.core_by_lead))
        built.clear()
        assert m.left_kernel() == kernel
        assert built == (list(range(m.n_rows)) if failing else list(m.layout.core))
        monkeypatch.undo()
    assert failing_draws
