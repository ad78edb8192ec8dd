"""Exact linear algebra over a prime field with randomized generic entries.

Genericity is realized probabilistically: entries that the theory takes to be
algebraically independent reals are drawn uniformly from F_p for a large prime
p. Rank facts about such matrices are nonvanishing-polynomial conditions, so a
random evaluation gives the generic answer except with probability at most
deg/p (Schwartz-Zippel). A TrialPolicy repeats every computation with
independent draws and refuses to report a verdict the trials do not agree on.

Work is proportional to the entries the matrices read. Parameters are drawn
by prefix: the rows of the block for side or color c come in order from one
random stream seeded by (seed, c), so a rank query draws only the leading
rows it reads. Shifting draws full invertible blocks from the same streams
and gets them in triangular form, so their leading rows span what the rank
query's rows span. Rank, greedy lexicographic bases, left kernels and the
full-block draw all run on one incremental sparse echelon kernel,
``Echelon``, whose rows are ``{column: value}`` dicts; the field is given by
its prime p, and arithmetic uses plain Python integers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Callable, Sequence, TypeVar

from .errors import InputError, InvariantError, TrialDisagreementError

#: Default modulus: the largest prime below 2^62.
DEFAULT_PRIME = (1 << 62) - 57

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all n < 3.3e24.

    Cached because every ``TrialPolicy`` checks its prime: one test of the
    default prime takes about 0.2 ms, several percent of a small verdict
    call.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Echelon:
    """Incremental row echelon form over F_p for sparse rows.

    Rows are ``{column: value}`` dicts. A pivot row is kept under its
    leading column, scaled so that the leading entry is 1; only its later
    columns (its tail) are stored, as nonzero residues. A new row is reduced
    by clearing its pivot columns in increasing order; each step creates
    entries in later columns only. Values are reduced mod p only where a
    decision needs them, so a row may carry unreduced integers and entries
    that are 0 mod p while it is being reduced. An optional tag, a
    ``{row id: coefficient}`` dict, goes through the same operations, so a
    row that reduces to zero leaves in its tag a vanishing combination of
    the tagged rows: a left-kernel vector. Either every row inserted into
    one echelon carries a tag or none does.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, tuple[dict[int, int], dict | None]] = {}

    def insert(self, row: dict[int, int], tag: dict | None = None) -> bool:
        """Reduce ``row`` against the pivots and keep what is left as a new
        pivot row. Returns True when something was left. Both dicts are
        consumed; when False is returned, ``tag`` holds the vanishing
        combination, reduced mod p."""
        p = self.p
        pivots = self.pivots
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = row.pop(c, 0) % p
            if not f:
                continue  # a column pushed twice, or one that cancelled
            tail, ptag = pivots[c]
            for j, v in tail.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    if j in pivots:
                        heappush(todo, j)
                else:
                    row[j] = x - f * v
            if tag is not None:
                for i, v in ptag.items():
                    tag[i] = tag.get(i, 0) - f * v
        lead = min((c for c, v in row.items() if v % p), default=None)
        if lead is None:
            if tag is not None:
                for i, v in tag.items():
                    tag[i] = v % p
            return False
        inv = pow(row.pop(lead) % p, -1, p)
        if tag is not None:
            tag = {i: x for i, v in tag.items() if (x := v * inv % p)}
        pivots[lead] = ({j: x for j, v in row.items() if (x := v * inv % p)}, tag)
        return True


@dataclass(frozen=True)
class GenericMatrix:
    """A sparse matrix over F_p with combinatorially labeled rows and columns.

    Row i is stored as ``entries[i]``, a tuple of ``(column, residue)``
    pairs; zero residues may be left out.
    """

    p: int
    entries: tuple[tuple[tuple[int, int], ...], ...]
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise InputError("row count does not match row labels")
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as dense tuples of residues."""
        dense = []
        for entry in self.entries:
            row = [0] * self.n_cols
            for c, v in entry:
                row[c] = v
            dense.append(tuple(row))
        return tuple(dense)

    def rank(self) -> int:
        echelon = Echelon(self.p)
        return sum(echelon.insert(dict(entry)) for entry in self.entries)

    def left_kernel(self) -> list[tuple[int, ...]]:
        """Basis of row dependencies: vectors w with w * M = 0.

        Each row goes into the echelon tagged with its own index; a row that
        reduces to zero leaves a kernel vector in its tag. Checks
        rank-nullity before returning.
        """
        n = self.n_rows
        echelon = Echelon(self.p)
        basis = []
        for i, entry in enumerate(self.entries):
            tag = {i: 1}
            if not echelon.insert(dict(entry), tag):
                basis.append(tuple(tag.get(j, 0) for j in range(n)))
        if len(basis) != n - len(echelon.pivots):
            raise InvariantError("rank-nullity violated in the left kernel")
        return basis


class GreedyBasis:
    """Incremental greedy row selection over F_p.

    Rows are offered in a fixed order; a row is selected exactly when it is
    independent of the previously selected ones. The selected label set is the
    lexicographically least basis of the row space (matroid greedy property).
    """

    def __init__(self, p: int):
        self._echelon = Echelon(p)
        self.selected: list = []

    @property
    def rank(self) -> int:
        return len(self._echelon.pivots)

    def offer(self, label, row: Sequence[int] | dict[int, int]) -> bool:
        """Select ``label`` when ``row`` is independent of the rows selected
        so far. ``row`` is a dense sequence or a sparse ``{column: value}``
        dict; a dict row is consumed."""
        if not isinstance(row, dict):
            row = dict(enumerate(row))
        if self._echelon.insert(row):
            self.selected.append(label)
            return True
        return False


def greedy_independent_rows(
    p: int, labeled_rows: Sequence[tuple[object, Sequence[int]]]
) -> list:
    """Labels of the greedy independent subset of rows, in the given order."""
    basis = GreedyBasis(p)
    for label, row in labeled_rows:
        basis.offer(label, row)
    return basis.selected


def sample_theta(
    p: int,
    seed: int,
    block_sizes: Sequence[int],
    rows: Sequence[int] | None = None,
) -> list[list[list[int]]] | list[list[dict[int, int]]]:
    """Random parameter blocks, one per entry of ``block_sizes``.

    Block c has ``block_sizes[c]`` columns, and its rows come in order from
    one random stream seeded by (seed, c), so the leading rows of a block do
    not depend on how many rows are drawn. With ``rows``, block c holds its
    ``rows[c]`` leading rows as lists, and nothing is tested; rank queries
    draw this way.

    Without ``rows``, every block is square and invertible, and it comes in
    triangular form; shifting draws this way. A stream row that depends on
    the rows kept so far is dropped and the stream's next row takes its
    place. A drop happens with probability at most size/p, so the kept rows
    are the prefix draw's rows except with that probability. Row r of the
    block is the r-th kept row minus a combination of the earlier kept rows,
    scaled so that its leading entry is 1, as a ``{column: value}`` dict of
    nonzero residues: the pivot that the rejection test has just built. It
    is zero before its leading column and in the leading columns of the rows
    before it. So for every r the first r rows span the same space as the
    first r kept rows, and the leading columns are distinct; for a generic
    draw, row r leads in column r.
    """
    if rows is not None and len(rows) != len(block_sizes):
        raise InputError("sample_theta needs one row count per block")
    blocks = []
    for c, size in enumerate(block_sizes):
        rng = random.Random(f"{seed}:{c}")
        if rows is not None:
            blocks.append([[rng.randrange(p) for _ in range(size)] for _ in range(rows[c])])
            continue
        block: list[dict[int, int]] = []
        echelon = Echelon(p)
        while len(block) < size:
            if echelon.insert({j: rng.randrange(p) for j in range(size)}):
                lead = next(reversed(echelon.pivots))
                block.append({lead: 1, **echelon.pivots[lead][0]})
        blocks.append(block)
    return blocks


@dataclass(frozen=True)
class TrialPolicy:
    """How many independent random draws to run and how to reconcile them.

    Verdicts must agree across all trials. On disagreement the trial count is
    doubled once with fresh draws; if those still disagree the computation
    errors out rather than report a possibly-degenerate verdict.
    """

    trials: int = 3
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trial count must be at least 1")
        if not is_prime(self.prime):
            raise InputError(f"modulus {self.prime} is not prime")

    def trial_seed(self, i: int) -> int:
        return self.seed * 1000003 + i


@dataclass(frozen=True)
class TrialMeta:
    """Provenance of a multi-trial verdict, embedded in every report."""

    prime: int
    seed: int
    trials: int
    escalated: bool = False
    failure_bound: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "escalated": self.escalated,
            "failure_bound": self.failure_bound,
        }


V = TypeVar("V")

DEFAULT_POLICY = TrialPolicy()


def run_trials(
    policy: TrialPolicy,
    compute: Callable[[int, int], V],
    poly_degree: int = 0,
    what: str = "verdict",
) -> tuple[V, TrialMeta]:
    """Run ``compute(p, seed)`` under independent seeds and insist on agreement.

    ``poly_degree`` bounds the degree of the polynomial whose nonvanishing the
    verdict rests on; deg/p is recorded as the per-trial failure bound.
    """
    p = policy.prime
    meta = TrialMeta(
        prime=policy.prime,
        seed=policy.seed,
        trials=policy.trials,
        failure_bound=poly_degree / policy.prime,
    )
    verdicts = [compute(p, policy.trial_seed(i)) for i in range(policy.trials)]
    if all(v == verdicts[0] for v in verdicts):
        return verdicts[0], meta
    start = policy.trials
    verdicts = [
        compute(p, policy.trial_seed(start + i)) for i in range(2 * policy.trials)
    ]
    if all(v == verdicts[0] for v in verdicts):
        return verdicts[0], TrialMeta(
            prime=meta.prime,
            seed=meta.seed,
            trials=2 * policy.trials,
            escalated=True,
            failure_bound=meta.failure_bound,
        )
    raise TrialDisagreementError(
        f"random trials disagree on {what} even after escalation "
        f"(prime={policy.prime}, seed={policy.seed}); "
        "rerun with a larger prime or a different seed",
        verdicts=verdicts,
    )
