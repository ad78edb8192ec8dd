"""The sparse echelon kernel against a dense reference elimination.

``dense_forward_eliminate`` is the dense row echelon that rank, greedy bases
and left kernels used to run on. It stays here as a differential oracle: the
two routes share no code, so a disagreement on rank, on the greedy
selection, or on the kernel exposes a bug in one of them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balrig
from balrig.combinat import BipartiteGraph, complete_edges
from balrig.errors import InvariantError
from balrig.exactla import (
    DEFAULT_PRIME,
    GenericMatrix,
    GreedyBasis,
    TrialPolicy,
    prime_field,
    sample_theta,
)
from balrig.rigidity import _verify_equilibrium, analyze, stress_space

PRIMES = (2, 3, 101, DEFAULT_PRIME)


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
    return GenericMatrix(
        field=prime_field(p),
        rows=tuple(tuple(r) for r in rows),
        row_labels=tuple(range(len(rows))),
        col_labels=tuple(range(ncols)),
    )


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

    greedy = GreedyBasis(prime_field(p), ncols)
    for i, row in enumerate(rows):
        greedy.offer(i, row)
    assert greedy.selected == dense_greedy(rows, p, ncols)
    assert greedy.rank == rank

    kernel = m.left_kernel()
    assert len(kernel) == len(rows) - rank
    for w in kernel:
        assert len(w) == len(rows)
        for c in range(ncols):
            assert sum(wi * row[c] for wi, row in zip(w, rows)) % p == 0
    # the kernel vectors are a basis, not just annihilators
    assert dense_rank(kernel, p, len(rows)) == len(kernel)


def _k33_stresses():
    return stress_space(BipartiteGraph(3, 3, complete_edges(3, 3)), 1, 1, TrialPolicy(seed=4))


def test_corrupted_stress_fails_equilibrium():
    basis = _k33_stresses()
    assert basis.dim == 4
    fld = prime_field(basis.meta.prime)
    theta = sample_theta(fld, TrialPolicy(seed=4).trial_seed(0), (3, 3), rows=(1, 1))
    _verify_equilibrium(1, 1, theta, fld, basis.edges, basis.vectors)
    bad = [list(v) for v in basis.vectors]
    bad[0][0] = (bad[0][0] + 1) % fld.p
    with pytest.raises(InvariantError):
        _verify_equilibrium(1, 1, theta, fld, basis.edges, bad)


def test_corrupted_kernel_vector_raises(monkeypatch):
    original = GenericMatrix.left_kernel

    def corrupted(self):
        basis = original(self)
        if basis:
            basis[0] = (basis[0][0] + 1,) + basis[0][1:]
        return basis

    monkeypatch.setattr(GenericMatrix, "left_kernel", corrupted)
    with pytest.raises(InvariantError):
        _k33_stresses()


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


def test_max_rank_bound_is_checked(monkeypatch):
    # K_{3,3} at (1,1) has 9 edges but a maximal rank of 5; a claimed rank of
    # 6 passes the edge bound and must fail the max-rank bound
    g = BipartiteGraph(3, 3, complete_edges(3, 3))
    monkeypatch.setattr(GenericMatrix, "rank", lambda self: 6)
    with pytest.raises(InvariantError, match="maximal rank"):
        analyze(g, 1, 1)
