"""Matrices given row by row, with nothing peeled, for tests that compare a
builder's matrix with the plain elimination of the same entries."""

from itertools import chain

from balrig.errors import InputError
from balrig.exactla import GenericMatrix, Layout, _lead_key


def from_entries(p: int, entries, n_cols: int) -> GenericMatrix:
    """The matrix whose row i is the ``(column, value)`` pairs
    ``entries[i]``, with ``n_cols`` columns, each row filled by a vector of
    its own, and nothing peeled. The ``Layout`` is set here field by field,
    as ``exactla.lay_out`` places whole blocks and these columns are given.

    A column outside the ``n_cols`` columns is refused, as a left kernel
    keeps its row combinations in the columns past the last and a rank
    stops at the column count; so is a column that a row names twice, of
    which a row would keep only the last value.
    """
    columns = tuple(tuple(c for c, _ in entry) for entry in entries)
    every = list(chain.from_iterable(columns))
    if every and not 0 <= min(every) <= max(every) < n_cols:
        raise InputError("an entry lies outside the columns")
    if sum(map(len, map(set, columns))) != len(every):
        raise InputError("a row names a column twice")
    vectors = [tuple(v for _, v in entry) for entry in entries]
    rows = tuple(range(len(vectors)))
    fills = tuple(zip(rows))  # row i is filled by vector i alone
    # every row is core, in rank's lead order, and the rank is at most the
    # row or the column count
    by_lead = tuple(sorted(rows, key=lambda i: _lead_key(columns[i])))
    layout = Layout(columns, fills, n_cols, (), (), rows, by_lead, min(len(rows), n_cols))
    return GenericMatrix(p, layout, vectors)


def unpeeled(m: GenericMatrix) -> GenericMatrix:
    """m's entries with nothing peeled, so that every row goes through the
    echelon kernel."""
    return from_entries(m.p, m.entries, m.n_cols)
