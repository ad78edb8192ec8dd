import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig.errors import InputError, TrialDisagreementError
from balrig.exactla import (
    DEFAULT_PRIME,
    GenericMatrix,
    TrialPolicy,
    greedy_independent_rows,
    is_prime,
    run_trials,
    sample_theta,
)

P = DEFAULT_PRIME


def make_matrix(rows, p=P, row_labels=None):
    return GenericMatrix(
        p,
        [tuple((c, x) for c, v in enumerate(row) if (x := v % p)) for row in rows],
        tuple(range(len(rows))) if row_labels is None else row_labels,
        tuple(range(len(rows[0]) if rows else 0)),
    )


def dense(block, n):
    """Triangular ``{column: value}`` rows as dense rows of length n."""
    return [[row.get(c, 0) for c in range(n)] for row in block]


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == 2**62 - 57


def test_non_prime_modulus_rejected():
    with pytest.raises(InputError):
        TrialPolicy(prime=2**62 - 56)
    with pytest.raises(InputError):
        TrialPolicy(prime=1)


def test_zero_matrix_rank():
    m = make_matrix([[0, 0, 0], [0, 0, 0]])
    assert m.rank() == 0


def test_identity_rank():
    m = make_matrix([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert m.rank() == 5


def test_duplicated_row_kernel_pattern():
    m = make_matrix([[3, 1, 4], [3, 1, 4]])
    (vec,) = m.left_kernel()
    # one copy with weight w, the other with -w
    assert (vec[0] + vec[1]) % P == 0 and vec[0] != 0


def test_left_kernel_dimension_matches_rank():
    rng = random.Random(5)
    for _ in range(20):
        rows = [
            [rng.randrange(50) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(1, 6))
        ]
        rows = [r + [0] * (max(map(len, rows)) - len(r)) for r in rows]
        m = make_matrix(rows)
        assert len(m.left_kernel()) == m.n_rows - m.rank()


def test_kernel_vectors_annihilate_rows():
    rng = random.Random(6)
    rows = [[rng.randrange(7) for _ in range(3)] for _ in range(5)]
    m = make_matrix(rows)
    for vec in m.left_kernel():
        for c in range(3):
            assert sum(w * m.rows[r][c] for r, w in enumerate(vec)) % P == 0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 10**6),
    st.permutations(list(range(5))),
    st.permutations(list(range(4))),
)
def test_rank_invariant_under_permutations(seed, row_perm, col_perm):
    rng = random.Random(seed)
    rows = [[rng.randrange(5) for _ in range(4)] for _ in range(5)]
    base = make_matrix(rows).rank()
    shuffled = [[rows[i][j] for j in col_perm] for i in row_perm]
    assert make_matrix(shuffled).rank() == base
    assert base <= min(len(rows), len(rows[0]))


def test_greedy_selects_all_independent_rows():
    rows = [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]
    assert greedy_independent_rows(P, rows) == [0, 1, 2]


def test_greedy_rejects_proportional_row():
    rows = [("first", [2, 4]), ("second", [3, 6]), ("third", [0, 1])]
    assert greedy_independent_rows(P, rows) == ["first", "third"]


def test_greedy_selection_is_lex_minimal_basis():
    rng = random.Random(9)
    for _ in range(25):
        rows = [[rng.randrange(101) for _ in range(3)] for _ in range(5)]
        rank = make_matrix(rows, 101).rank()
        selected = greedy_independent_rows(101, list(enumerate(rows)))
        assert len(selected) == rank
        for subset in itertools.combinations(range(5), rank):
            sub = make_matrix([rows[i] for i in subset], 101, subset)
            if sub.rank() == rank:
                assert list(subset) == selected
                break


def test_sample_theta_deterministic_and_invertible():
    a1 = sample_theta(P, 42, (4, 3))
    a2 = sample_theta(P, 42, (4, 3))
    assert a1 == a2
    for block in a1:
        m = make_matrix(dense(block, len(block)))
        assert m.rank() == len(block)


def test_sample_theta_scalar_blocks_nonzero():
    # the 1x1 full block is its nonzero entry scaled to 1
    assert sample_theta(P, 7, (1, 1)) == [[{0: 1}], [{0: 1}]]
    prefix = sample_theta(P, 7, (1, 1), rows=(1, 1))
    assert all(block[0][0] != 0 for block in prefix)


def test_sample_theta_different_seeds_differ():
    assert sample_theta(P, 0, (3, 3)) != sample_theta(P, 1, (3, 3))


def test_run_trials_agreement():
    policy = TrialPolicy(trials=3, seed=5)
    verdict, meta = run_trials(policy, lambda fld, seed: 17, poly_degree=10)
    assert verdict == 17
    assert not meta.escalated
    assert meta.failure_bound == 10 / policy.prime


def test_run_trials_escalation_recovers():
    policy = TrialPolicy(trials=3, seed=0)
    # seeds 0,1,2 disagree; the fresh batch (seeds 3..8) agrees
    verdict, meta = run_trials(policy, lambda fld, seed: 0 if seed == 0 else 1)
    assert verdict == 1
    assert meta.escalated
    assert meta.trials == 6


def test_run_trials_disagreement_raises():
    policy = TrialPolicy(trials=2, seed=0)
    with pytest.raises(TrialDisagreementError):
        run_trials(policy, lambda fld, seed: seed % 2)


def test_trial_policy_validation():
    with pytest.raises(InputError):
        TrialPolicy(trials=0)


def test_matrix_label_validation():
    with pytest.raises(InputError):
        GenericMatrix(P, (((0, 1),),), row_labels=(), col_labels=(0,))


def test_sample_theta_prefix_streams():
    full = sample_theta(P, 42, (4, 4))
    prefix = sample_theta(P, 42, (4, 4), rows=(2, 3))
    assert prefix == sample_theta(P, 42, (4, 4), rows=(2, 3))
    assert [len(block) for block in prefix] == [2, 3]
    # rows come in order from one stream per block: a prefix draw is the
    # leading part of a longer one
    assert prefix[0] == sample_theta(P, 42, (4, 4), rows=(5, 1))[0][:2]
    # the first r rows of the full triangular block span what the first r
    # prefix rows span: stacking both leaves the rank at r
    for tri, rows in zip(full, prefix):
        for r in range(len(rows) + 1):
            assert make_matrix(dense(tri[:r], 4) + rows[:r]).rank() == r
    # each block has its own stream, keyed by (seed, block) without collisions
    assert full[0] != full[1]
    assert sample_theta(P, 1, (3, 3))[0] != sample_theta(P, 0, (3, 3))[1]
    assert sample_theta(P, 12, (3,))[0] != sample_theta(P, 1, (3, 3, 3))[2]
    # a prefix draw may ask for more rows than the block has columns
    (tall,) = sample_theta(P, 5, (2,), rows=(7,))
    assert len(tall) == 7 and all(len(row) == 2 for row in tall)
