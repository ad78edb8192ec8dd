"""Exact linear algebra over a prime field with randomized generic entries.

Genericity is realized probabilistically: entries that the theory takes to be
algebraically independent reals are drawn uniformly from F_p for a large prime
p. Rank facts about such matrices are nonvanishing-polynomial conditions, so a
random evaluation gives the generic answer except with probability at most
deg/p (Schwartz-Zippel). A TrialPolicy repeats every computation with
independent draws and refuses to report a verdict the trials do not agree on.

Work is proportional to the entries the matrices read. Parameters are drawn
by prefix: the rows of the block for side or color c come in order from one
random stream seeded by (seed, c) (``prefix_stream``), so a rank query
draws only the leading rows it reads, and the prefix walk of a graph shift
reads them one step at a time. Every block is drawn in unit upper
triangular form, so a full block, which shifting reads, is invertible for
every draw and needs no test. Rank, greedy lexicographic bases and left
kernels all run on one incremental sparse echelon kernel, ``Echelon``,
whose rows are ``{column: value}`` dicts (a left kernel appends identity
columns); the field is given by its prime p, and arithmetic uses plain
Python integers.

The kernel does only the modular work a verdict reads. A row is reduced mod
p once, when it is finished, and a pivot is not scaled. No leading entry is
inverted before some pivot reduces a row; then the leads of every pivot
still waiting are inverted together, with one ``pow`` and three
multiplications each (Montgomery's simultaneous inversion, 1987). Entries
are drawn by a rejection loop on ``getrandbits`` that yields exactly the
stream of ``randrange(p)``.

Rows that settle nothing are not eliminated, nor built. A matrix is a
``Layout``, fixed before any draw and cached by its builder, and the
trial's drawn vectors: a row is its column tuple and the ids of the
vectors whose concatenation fills it. ``lay_out`` builds the whole layout
from the block structure alone: each block's width, per color the block
each row meets, the vectors that fill each row, and a rank bound; a
builder names no column. The layout fixes the peel: blocks of columns
that at most their width of the remaining rows meet, in peel order, with
the ids of the vectors that fill their rows there. It fixes the column
order too, in whole blocks: the peeled blocks first, then the core's, by
how many core rows meet them. Peeled rows are independent of every other
row exactly when their vectors in the block are independent, which
``rank`` and ``left_kernel`` check at each draw on the vectors themselves,
without an inverse; they count those rows and build and eliminate only the
rest, the core. A peel is only a shortcut: at a draw where some block
fails its check, which only a degenerate draw makes it, every row goes to
the core by index, so every draw gets its matrix's exact rank and kernel.
A layout keeps only what these read, and no label: its builder says what
its rows and column blocks stand for.

A rank stops at a bound every draw obeys. A layout keeps a ``rank_bound``:
its row or column count, or a smaller bound its builder knows, such as
l|A| + k|B| - kl for a (k,l)-rigidity matrix with k <= |A| and l <= |B|,
the rank of the complete graph's. Peeled rows that pass their checks are
independent of all others, so once the core's rank reaches the bound less
them, every later core row is dependent at that draw, at every prime, and
``rank`` builds none of them. When the bound less the peeled rows lies
below the core's row count, the core goes in with the rows that can be
charged to free slots of their blocks first (after the pebble games of Lee
and Streinu, 2008), so the rank reaches the bound sooner; any other core
goes in by lead alone. A left kernel reads every row.

Every shortcut that rests on the drawn form checks it at each draw by one
rule, ``unit_row``: row r is 0 before position r and 1 at it, read on the
values as drawn, with no reduction mod p. The rows of ``prefix_stream``
always pass, and a row that fails, which only an injected draw gives,
sends the work to the plain path. A unit upper triangular block
(``unit_upper``) has a kernel read off by back substitution
(``kernel_rows``), which ranks a near-complete matrix through the rows it
lacks; shifting reads the same rule for its settled components, through
how many leading rows of a block pass it (``unit_extent``), and for the
prefix walk's step cap.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, islice, repeat
from operator import add
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import InputError, InvariantError, TrialDisagreementError, check_cap

#: Default modulus: the largest prime below 2^62.
DEFAULT_PRIME = (1 << 62) - 57

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The first 13 primes as Miller-Rabin witnesses decide primality for every
#: n below this bound (Sorenson and Webster 2015); ``TrialPolicy`` refuses
#: larger moduli.
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Miller-Rabin with the witnesses 2, 3, ..., 41, deterministic for
    n < ``PRIME_LIMIT`` (about 3.3e24); above it a True may be wrong.

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
    leading column as the list ``[tail, lead, inverse]``: its later columns
    (its tail) as nonzero residues, the residue of its leading entry, and
    the inverse of that entry, or None while the pivot waits in
    ``waiting``. Pivots are not scaled, so a stored row is the finished row
    reduced mod p. A new row is reduced by clearing its pivot columns in
    increasing order; each step creates entries in later columns only.
    Values are reduced mod p only where a decision needs them, so a row may
    carry unreduced integers and entries that are 0 mod p while it is being
    reduced.

    Leads are inverted in batches: when a reduction first needs the inverse
    of a waiting pivot, every waiting pivot is inverted at once, with one
    ``pow`` and three multiplications each (Montgomery 1987); a lone waiting
    pivot takes one ``pow``. A pivot that is dropped (``drop``) leaves
    ``waiting`` with it.
    """

    __slots__ = ("p", "pivots", "waiting")

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, list] = {}
        self.waiting: dict[int, list] = {}

    def insert(self, row: dict[int, int]) -> int | None:
        """Reduce ``row`` against the pivots and keep what is left as a new
        pivot row. Returns the new pivot's leading column, or None when the
        row reduces to zero. ``row`` is consumed."""
        p, pivots, waiting = self.p, self.pivots, self.waiting
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = row.pop(c, 0) % p
            if not f:
                continue  # a column pushed twice, or one that cancelled
            tail, lead, inv = pivot = pivots[c]
            if inv is None:
                if len(waiting) == 1:  # a lone waiting pivot, most batches
                    waiting.clear()
                    inv = pivot[2] = pow(lead, -1, p)
                else:
                    inv = self._invert_waiting(pivot)
            f = f * inv % p
            for j, v in tail.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    if j in pivots:
                        heappush(todo, j)
                else:
                    row[j] = x - f * v
        tail = {j: x for j, v in row.items() if (x := v % p)}
        if not tail:
            return None
        lead = min(tail)
        pivots[lead] = waiting[lead] = [tail, tail.pop(lead), None]
        return lead

    def drop(self, lead: int) -> list:
        """Remove the pivot that leads at column ``lead`` and return it."""
        self.waiting.pop(lead, None)
        return self.pivots.pop(lead)

    def _invert_waiting(self, pivot: list) -> int:
        """Invert the lead of every waiting pivot, and return the inverse
        of ``pivot``'s: invert the product of the leads, and peel each
        inverse off it from the last pivot back."""
        p, waiting = self.p, [*self.waiting.values()]
        self.waiting.clear()
        # products[j]: the product of the leads before pivot j; the last, of all
        products = list(accumulate([q[1] for q in waiting], lambda x, y: x * y % p, initial=1))
        inv = pow(products.pop(), -1, p)
        for q in reversed(waiting):
            q[2] = inv * products.pop() % p
            inv = inv * q[1] % p
        return pivot[2]


@dataclass(frozen=True)
class Layout:
    """What a matrix lays out before any value is drawn, and what ``rank``
    and ``left_kernel`` read of it; ``lay_out`` builds it, and a builder
    caches it for every trial of a verdict.

    Row i has its entries in the columns ``columns[i]``, among ``n_cols``,
    and is filled by the drawn vectors ``fills[i]``, concatenated. Rows and
    columns carry no labels; what they stand for is the builder's to say.

    The peel is fixed here too. ``peeled`` holds the rows of the blocks
    that peel, block by block in peel order, and ``checks[t]`` the ids of
    the vectors that fill the t-th block's rows there, which its check
    reads, one per row. ``core`` is the other rows by index, and
    ``core_by_lead`` the same rows in ``rank``'s order. ``rank_bound``
    bounds the rank at every draw.
    """

    columns: tuple[tuple[int, ...], ...]
    fills: tuple[tuple[int, ...], ...]
    n_cols: int
    checks: Sequence[Sequence[int]]
    peeled: Sequence[int]
    core: Sequence[int]
    core_by_lead: tuple[int, ...]
    rank_bound: int


def lay_out(
    widths: Sequence[int], by_color: Sequence[Sequence[int]], fills: Sequence, rank_bound: int
) -> Layout:
    """The ``Layout`` of a matrix, from its block structure alone.

    Block b has ``widths[b]`` columns. Row i meets the block
    ``by_color[c][i]`` of each color c, in that order, and is filled there
    by the vector ``fills[i][c]``; ``fills`` has one entry per row, which
    counts the rows where there is no color. ``rank_bound`` is a bound on
    the rank that the builder knows, such as the rank of the complete
    graph's rigidity matrix; the layout keeps the least of it, the row
    count and the column count. The column bound holds because each row
    meets distinct blocks; a row that meets a block twice is refused.

    A block that at most its width of the remaining rows meet peels: those
    rows leave, and the blocks they also meet may peel next. Which rows
    peel does not depend on the order, as in k-core peeling; one queue pass
    takes the blocks first come, first served, from block 0 on.

    The columns come in whole blocks: the blocks that peel, in peel order,
    then the blocks the core rows meet, those that fewest core rows meet
    first, then the rest; ties go by block. A core block that few rows meet
    is eliminated early, while little has filled in. A row's columns are
    those of its blocks, color by color.

    ``core_by_lead`` is the core sorted by ``_lead_key``. When the bound
    less the peeled rows lies below the core's row count, ``rank`` stops
    before the last core rows, so the rows that can be charged to free
    block slots come first (``_charged_first``). A core that ``rank`` reads
    to its end keeps the lead order, as charging it too gains nothing and
    slowed sparse graphs (sparse-graphs calls/s -1.6%).
    """
    blocks = [*zip(*by_color)] if by_color else [()] * len(fills)  # per row, the blocks it meets
    if len(blocks) != len(fills):
        raise InputError("row count does not match fills")
    rows_of: list[list[int]] = [[] for _ in widths]
    for i, meets in enumerate(blocks):
        for b in meets:
            rows = rows_of[b]
            if rows and rows[-1] == i:
                raise InputError("a row meets a block twice")
            rows.append(i)
    slack = [len(rows) - width for rows, width in zip(rows_of, widths)]  # rows past the width
    queue = [b for b, extra in enumerate(slack) if extra <= 0]
    done = [False] * len(blocks)
    order, checks, peeled = [], [], []
    for b in queue:  # the queue grows while it is read
        rows = [i for i in rows_of[b] if not done[i]]
        if not rows:
            continue
        order.append(b)
        peeled += rows
        checks.append(check := [])
        for i in rows:
            done[i] = True
            check.append(fills[i][blocks[i].index(b)])
            for other in blocks[i]:
                slack[other] -= 1
                if not slack[other]:
                    queue.append(other)
    met = [extra + width for extra, width in zip(slack, widths)]  # core rows, if not peeled
    order += sorted({*range(len(widths))}.difference(order), key=lambda b: (not met[b], met[b], b))
    every, at, n_cols = tuple(range(sum(widths))), [()] * len(widths), 0
    for b in order:  # each block's columns
        at[b] = every[n_cols : (n_cols := n_cols + widths[b])]
    per_color = [map(at.__getitem__, bs) for bs in by_color]  # each row's columns there
    columns = tuple(reduce(partial(map, add), per_color, repeat((), len(blocks))))
    core = [i for i, gone in enumerate(done) if not gone]
    bound = min(len(blocks), n_cols, rank_bound)
    by_lead = sorted(core, key=lambda i: _lead_key(columns[i]))
    if bound - len(peeled) < len(by_lead):
        by_lead = _charged_first(by_lead, blocks, widths)
    return Layout(columns, tuple(fills), n_cols, checks, peeled, core, tuple(by_lead), bound)


def _charged_first(rows: list[int], blocks: Sequence, widths: Sequence[int]) -> list[int]:
    """``rows`` with those that, scanned in order, can be charged to a free
    slot of one of their blocks ``blocks[i]`` first, and the rest after
    them, each part in order. A block has its width in slots, and a row is
    charged to its block with the most slots left, as pebbles are in the
    pebble games of Lee and Streinu (2008); a row that meets no block goes
    to the rest."""
    slots, charged, rest = list(widths), [], []
    for i in rows:
        b = max(blocks[i], key=slots.__getitem__, default=None)
        if b is not None and slots[b]:
            slots[b] -= 1
            charged.append(i)
        else:
            rest.append(i)
    return charged + rest


def _lead_key(columns: Sequence[int]) -> tuple[int, int]:
    """Sort key of a row for ``rank``: its leading column, and among rows
    with one lead, the row that reaches furthest first. The first row is
    the pivot; what it fills in lies late, so each later row soon leads at
    a column of its own (a K_{n,n} in index order reduces several times
    as much)."""
    return (min(columns), -max(columns)) if columns else (-1, 1)


def _independent(p: int, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether ``vectors``, all of one length, are independent over F_p.

    Fraction-free: one vector needs a nonzero entry, two of length 2 a
    nonzero determinant, and otherwise a vector that is eliminated scales
    the others by its pivot entry instead of being divided by it. Nothing
    is inverted.
    """
    if len(vectors) == 1:
        return any(map(p.__rmod__, vectors[0]))  # some entry x % p is nonzero
    if len(vectors) == 2 == len(vectors[0]):
        (a, b), (c, d) = vectors
        return (a * d - b * c) % p != 0
    short = list(vectors)
    while short:
        top = short.pop()
        j = next((j for j, x in enumerate(top) if x % p), None)
        if j is None:
            return False
        x = top[j]
        short = [[(y * x - row[j] * z) % p for y, z in zip(row, top)] for row in short]
    return True


def unit_row(row: Sequence[int], r: int) -> bool:
    """Whether ``row`` is 0 before position r and 1 at it, as row r of a
    ``prefix_stream`` block is, read on its values as drawn: an entry that
    is only 0 or 1 mod p fails. Every shortcut that rests on the drawn
    triangular form checks it here, at each draw, and a row that fails,
    which only an injected draw gives, sends the work to the plain path."""
    return row[r] == 1 and not any(row[:r])


def unit_extent(block: Sequence[Sequence[int]]) -> int:
    """How many leading rows of ``block`` pass ``unit_row``: the leading
    rows and columns of that size are unit upper triangular as drawn."""
    return next((r for r, row in enumerate(block) if not unit_row(row, r)), len(block))


def unit_upper(block: Sequence[Sequence[int]]) -> bool:
    """Whether the leading min(rows, columns) rows of ``block`` are unit
    upper triangular (``unit_extent``), the guard of ``kernel_rows``."""
    m = min(len(block), len(block[0]))
    return unit_extent(block[:m]) == m


def kernel_rows(p: int, block: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """The leading rows of a basis of the kernel {u : block u = 0} over F_p,
    when the leading m = min(rows, columns) rows of ``block`` are unit upper
    triangular; else None.

    With T the leading m columns of those rows and X the rest, the kernel
    has the basis e_j - T^{-1} X e_j for the columns j >= m. Row a >= m of
    that basis, as a matrix with one basis vector per column, is a unit
    vector and is not returned; row a < m is row a of Y = -T^{-1} X, n - m
    residues, found by back substitution. Rows past the m-th cannot enlarge
    the kernel, which T already pins down. ``prefix_stream`` blocks always
    pass the check.
    """
    if not unit_upper(block):
        return None
    m = min(len(block), len(block[0]))
    ys: list[list[int]] = []  # Y's rows from the last up
    for row in reversed(block[:m]):
        acc = list(row[m:])
        for c, y in zip(reversed(row[m - len(ys) : m]), ys):
            if c:
                acc = [x + c * z for x, z in zip(acc, y)]
        ys.append([-x % p for x in acc])
    return ys[::-1]


@dataclass(frozen=True)
class GenericMatrix:
    """A sparse matrix over F_p, its rows and columns numbered from 0.

    ``layout`` places the rows (``Layout``), and row i's values are the
    drawn vectors ``vectors[v]`` for v in ``layout.fills[i]``, concatenated;
    zero values may be left out of a row. A row is built only when ``rank``
    or ``left_kernel`` eliminates it; ``entries`` and ``rows`` build every
    row. Two matrices are equal when their primes, layouts and vectors are.
    """

    p: int
    layout: Layout
    vectors: Sequence[Sequence[int]]

    @property
    def n_rows(self) -> int:
        return len(self.layout.columns)

    @property
    def n_cols(self) -> int:
        return self.layout.n_cols

    def _values(self, i: int) -> Iterator[int]:
        """Row i's values, in the order of its columns."""
        return chain.from_iterable(map(self.vectors.__getitem__, self.layout.fills[i]))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every row as ``(column, value)`` pairs, built on each read."""
        return tuple(tuple(zip(c, self._values(i))) for i, c in enumerate(self.layout.columns))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as dense tuples of residues."""
        dense, n_cols = [], self.n_cols
        for entry in self.entries:
            row = [0] * n_cols
            for c, v in entry:
                row[c] = v
            dense.append(tuple(row))
        return tuple(dense)

    def _peel(self, by_lead: bool) -> tuple[int, Sequence[int]]:
        """How many rows peel at this draw, and the core rows, in ``rank``'s
        order or by index.

        Each peeled block is checked in peel order, on the vectors that
        fill its rows there. When one is dependent, which only a degenerate
        draw makes it, nothing peels: every row is core, by index.
        """
        layout, vector, p = self.layout, self.vectors.__getitem__, self.p
        if not all(_independent(p, [*map(vector, check)]) for check in layout.checks):
            return 0, range(self.n_rows)
        return len(layout.peeled), layout.core_by_lead if by_lead else layout.core

    def rank(self) -> int:
        """The peeled rows, plus the rank of the core. Only core rows are
        built, and they go in sorted by their leading column (``_lead_key``),
        which the rank does not depend on; a row then mostly meets pivots
        that lead before it. Once the core's rank reaches the layout's
        ``rank_bound`` less the peeled rows, which are independent of all
        others, every later row is dependent at this draw, and none is
        built; the rows that are likely to reach it first go in first
        (``Layout``)."""
        peeled, core = self._peel(by_lead=True)
        columns, values = self.layout.columns, self._values
        echelon = Echelon(self.p)
        pivots, cap = echelon.pivots, self.layout.rank_bound - peeled
        for i in core:
            if len(pivots) >= cap:
                break
            echelon.insert(dict(zip(columns[i], values(i))))
        return peeled + len(pivots)

    def left_kernel(self) -> list[tuple[int, ...]]:
        """Basis of row dependencies: vectors w with w * M = 0.

        Every dependency is 0 on the peeled rows, so only the core is built
        and eliminated, in row order. Core row i gets a 1 in column
        ``n_cols + i``, where the reduction carries its combination of the
        rows. A row that leads there is dependent: its pivot, read as row
        indices, is the kernel vector with 1 on that row and otherwise only
        on earlier independent rows, and is dropped before the next row goes
        in. Checks rank-nullity before returning.
        """
        n, m = self.n_rows, self.n_cols
        columns, values = self.layout.columns, self._values
        peeled, core = self._peel(by_lead=False)
        echelon = Echelon(self.p)
        basis = []
        for i in core:
            row = dict(zip(columns[i], values(i)))
            row[m + i] = 1
            lead = echelon.insert(row)
            if lead >= m:
                tail, value, _ = echelon.drop(lead)
                w = [0] * n
                w[lead - m] = value
                for j, v in tail.items():
                    w[j - m] = v
                basis.append(tuple(w))
        if len(basis) != n - peeled - len(echelon.pivots):
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

    def offer(self, label, row: dict[int, int]) -> bool:
        """Select ``label`` when ``row``, a sparse ``{column: value}`` dict,
        is independent of the rows selected so far. ``row`` is consumed."""
        if self._echelon.insert(row) is None:
            return False
        self.selected.append(label)
        return True


def greedy_independent_rows(
    p: int, labeled_rows: Sequence[tuple[object, Sequence[int]]]
) -> list:
    """Labels of the greedy independent subset of dense rows, in order."""
    basis = GreedyBasis(p)
    for label, row in labeled_rows:
        basis.offer(label, dict(enumerate(row)))
    return basis.selected


def sample_theta(
    p: int,
    seed: int,
    block_sizes: Sequence[int],
    rows: Sequence[int] | None = None,
) -> list[list[list[int]]]:
    """Random parameter blocks, one per entry of ``block_sizes``.

    Block c has ``block_sizes[c]`` columns, and holds its ``rows[c]``
    leading rows, or all of them (as many as it has columns) without
    ``rows``, as lists read from ``prefix_stream``. The leading rows of a
    block do not depend on how many rows are drawn, and a full block is unit
    upper triangular, so it is invertible for every draw.
    """
    if rows is None:
        rows = block_sizes
    elif len(rows) != len(block_sizes):
        raise InputError("sample_theta needs one row count per block")
    return [
        list(islice(prefix_stream(p, seed, c, size), n))
        for c, (size, n) in enumerate(zip(block_sizes, rows))
    ]


def prefix_stream(p: int, seed: int, c: int, size: int) -> Iterator[list[int]]:
    """The rows of parameter block c, in order, without end. Row r of the
    ``size`` rows is r zeros, a 1, and then ``size - r - 1`` values of
    ``randrange(p)`` from the random stream seeded by (seed, c); every later
    row is zero. Every draw of block c reads this stream, so a caller that
    takes rows one at a time gets the rows ``sample_theta`` returns.

    Any generic block is L times a unit upper triangular one, L lower
    triangular and invertible, and the verdicts drawn from a block do not
    change under L: shifting's by its triangular argument, and the rigidity
    and facet-ridge matrices' because L acts on them as column operations.
    """
    getrandbits = random.Random(f"{seed}:{c}").getrandbits
    for r in range(size):
        yield [0] * r + [1] + _below(getrandbits, p, size - r - 1)
    while True:
        yield [0] * size


def _below(getrandbits: Callable[[int], int], p: int, n: int) -> list[int]:
    """The next n values of ``randrange(p)`` on the stream of ``getrandbits``.

    ``randrange(p)`` draws ``p.bit_length()`` bits and rejects values of at
    least p; the accepted values, in stream order, are its outputs. Each
    pass draws only as many values as are still missing, so the stream is
    left where n calls of ``randrange(p)`` would leave it.
    """
    bits = p.bit_length()
    out: list[int] = []
    while len(out) < n:
        out += [x for x in map(getrandbits, repeat(bits, n - len(out))) if x < p]
    return out


#: Most trials of a policy before escalation; each is a full verdict call.
TRIAL_CAP = 64


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
        for name in ("trials", "prime", "seed"):  # a bool or a float is refused
            if type(getattr(self, name)) is not int:
                raise InputError(f"trial policy {name} must be an integer")
        if self.trials < 1:
            raise InputError("trial count must be at least 1")
        check_cap("trial count", self.trials, TRIAL_CAP)
        if self.prime >= PRIME_LIMIT:
            raise InputError(f"modulus {self.prime} is beyond the deterministic primality range")
        if not is_prime(self.prime):
            raise InputError(f"modulus {self.prime} is not prime")

    def trial_seed(self, i: int) -> int:
        return self.seed * 1000003 + i


@dataclass(frozen=True)
class TrialMeta:
    """Provenance of a multi-trial verdict, embedded in every report.

    ``warnings`` says when the verdict is not certified; the JSON form
    carries the key only when there is one.
    """

    prime: int
    seed: int
    trials: int
    escalated: bool = False
    failure_bound: float = 0.0
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = asdict(self)
        warnings = list(out.pop("warnings"))
        if warnings:
            out["warnings"] = warnings
        return out


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
    verdict rests on; deg/p is recorded as the per-trial failure bound. A
    bound of at least 1 certifies nothing, and the meta then carries a
    warning saying so.
    """
    p = policy.prime
    bound = poly_degree / p
    warnings = ()
    if bound >= 1:
        warnings = (
            f"per-trial failure bound {bound} is at least 1, so the verdict is not "
            "certified; use a larger prime",
        )
    # the first batch, then on disagreement one of twice as many fresh seeds
    batch = range(policy.trials)
    for escalated in (False, True):
        verdicts = [compute(p, policy.trial_seed(i)) for i in batch]
        if all(v == verdicts[0] for v in verdicts):
            return verdicts[0], TrialMeta(p, policy.seed, len(batch), escalated, bound, warnings)
        batch = range(policy.trials, 3 * policy.trials)
    raise TrialDisagreementError(
        f"random trials disagree on {what} even after escalation "
        f"(prime={policy.prime}, seed={policy.seed}); "
        "rerun with a larger prime or a different seed",
        verdicts=verdicts,
    )
