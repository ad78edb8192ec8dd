import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig.errors import InputError, SizeCapError, TrialDisagreementError
from balrig.exactla import (
    DEFAULT_PRIME,
    PRIME_LIMIT,
    TRIAL_CAP,
    Echelon,
    TrialPolicy,
    greedy_independent_rows,
    is_prime,
    lay_out,
    run_trials,
    sample_theta,
)
from explicit_rows import from_entries

P = DEFAULT_PRIME


def make_matrix(rows, p=P):
    return from_entries(
        p,
        [tuple((c, x) for c, v in enumerate(row) if (x := v % p)) for row in rows],
        len(rows[0]) if rows else 0,
    )


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
    # the kernel returns a new pivot's leading column, or None for a row
    # that reduces to zero, a zero row and a row that is 0 mod p included
    echelon = Echelon(P)
    assert echelon.insert({0: 2, 1: 4}) == 0
    assert echelon.insert({0: 3, 1: 6}) is None
    assert echelon.insert({0: 1, 2: 1}) == 1
    assert echelon.insert({}) is None
    assert echelon.insert({3: P, 4: 2 * P}) is None
    assert echelon.insert({2: 7, 4: 1}) == 2
    assert sorted(echelon.pivots) == [0, 1, 2]


def test_greedy_selection_is_lex_minimal_basis():
    rng = random.Random(9)
    for _ in range(25):
        rows = [[rng.randrange(101) for _ in range(3)] for _ in range(5)]
        rank = make_matrix(rows, 101).rank()
        selected = greedy_independent_rows(101, list(enumerate(rows)))
        assert len(selected) == rank
        for subset in itertools.combinations(range(5), rank):
            sub = make_matrix([rows[i] for i in subset], 101)
            if sub.rank() == rank:
                assert list(subset) == selected
                break


def test_sample_theta_deterministic_and_invertible():
    a1 = sample_theta(P, 42, (4, 3))
    a2 = sample_theta(P, 42, (4, 3))
    assert a1 == a2
    for block in a1:
        m = make_matrix(block)
        assert m.rank() == len(block)


def test_sample_theta_scalar_blocks_nonzero():
    # a 1x1 block is its leading 1, drawn or not, and later rows are zero
    assert sample_theta(P, 7, (1, 1)) == [[[1]], [[1]]]
    assert sample_theta(P, 7, (1, 1), rows=(1, 3)) == [[[1]], [[1], [0], [0]]]


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
    assert TrialPolicy(trials=TRIAL_CAP).trials == TRIAL_CAP
    with pytest.raises(SizeCapError, match=f"trial count capped at {TRIAL_CAP}; got 65"):
        TrialPolicy(trials=TRIAL_CAP + 1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("prime", 5.0),  # is_prime(5.0) holds, but a draw needs int.bit_length
        ("trials", 2.5),  # run_trials ranges over the trials
        ("seed", "7"),  # trial_seed would repeat the string a million times
        ("seed", 1.5),  # would run, and reach the report's meta
        ("trials", True),  # would run, and reach the report's meta
    ],
)
def test_trial_policy_refuses_fields_that_are_not_integers(field, value):
    with pytest.raises(InputError, match=f"trial policy {field} must be an integer"):
        TrialPolicy(**{field: value})


def test_matrix_label_validation():
    # a layout fills each of its rows: one row meets block 0, and no
    # vectors fill it
    with pytest.raises(InputError, match="fills"):
        lay_out((1,), [(0,)], (), 1)
    # a left kernel keeps its row combinations in the columns past the last,
    # and a rank stops at the column count, so a column out of range is
    # refused when the matrix is made, before either runs
    for entries in [(((0, 1),), ((1, 1),)), (((0, 1),), ((-1, 1),))]:
        with pytest.raises(InputError, match="outside the columns"):
            from_entries(P, entries, 1)
    # a row that names one column twice would keep only its last value
    with pytest.raises(InputError, match="twice"):
        from_entries(101, [[(0, 1), (0, 100)], [(1, 2)]], 2)


def test_sample_theta_prefix_streams():
    full = sample_theta(P, 42, (4, 4))
    prefix = sample_theta(P, 42, (4, 4), rows=(2, 3))
    assert prefix == sample_theta(P, 42, (4, 4), rows=(2, 3))
    assert [len(block) for block in prefix] == [2, 3]
    # rows come in order from one stream per block: a prefix draw is the
    # leading part of a longer one
    assert prefix[0] == sample_theta(P, 42, (4, 4), rows=(5, 1))[0][:2]
    # a full block is the prefix draw of all its rows
    for block, rows in zip(full, prefix):
        assert block[: len(rows)] == rows
    # each block has its own stream, keyed by (seed, block) without collisions
    assert full[0] != full[1]
    assert sample_theta(P, 1, (3, 3))[0] != sample_theta(P, 0, (3, 3))[1]
    assert sample_theta(P, 12, (3,))[0] != sample_theta(P, 1, (3, 3, 3))[2]
    # a prefix draw may ask for more rows than the block has columns; the
    # rows past the last column are zero
    (tall,) = sample_theta(P, 5, (2,), rows=(7,))
    assert len(tall) == 7 and all(len(row) == 2 for row in tall)
    assert tall[2:] == [[0, 0]] * 5


def test_moduli_beyond_the_deterministic_primality_range_are_refused():
    assert is_prime(2**89 - 1) and 2**89 - 1 > PRIME_LIMIT
    with pytest.raises(InputError, match="deterministic"):
        TrialPolicy(prime=2**89 - 1)
    TrialPolicy(prime=2**61 - 1)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases_is_composite():
    # the least n that passes Miller-Rabin for every witness 2..37 is
    # composite; witness 41 exposes it
    psi_12 = 318665857834031151167461
    assert psi_12 < PRIME_LIMIT and not is_prime(psi_12)
    with pytest.raises(InputError, match="not prime"):
        TrialPolicy(prime=psi_12)


def test_run_trials_warns_when_the_failure_bound_is_at_least_one():
    _, meta = run_trials(TrialPolicy(prime=5, trials=1), lambda p, seed: 0, poly_degree=5)
    assert meta.failure_bound == 1.0
    assert len(meta.warnings) == 1 and "not certified" in meta.warnings[0]
    assert meta.to_json_dict()["warnings"] == list(meta.warnings)
    # escalated metas keep the warning
    _, meta = run_trials(
        TrialPolicy(prime=5, trials=2), lambda p, seed: seed == 0, poly_degree=5
    )
    assert meta.escalated and meta.warnings
    _, meta = run_trials(TrialPolicy(trials=1), lambda p, seed: 0, poly_degree=5)
    assert meta.warnings == () and "warnings" not in meta.to_json_dict()


def reference_rows(rng, p, size, n):
    """n rows of a unit upper triangular block from ``randrange``: row r is
    r zeros, a 1, and the next size - r - 1 values; rows past the last
    column are zero."""
    return [
        [0] * r + [1] + [rng.randrange(p) for _ in range(size - r - 1)]
        if r < size
        else [0] * size
        for r in range(n)
    ]


@pytest.mark.parametrize("p", [2, 3, 101, 257, 65537, DEFAULT_PRIME])
def test_sample_theta_draws_the_randrange_stream(p):
    # primes just above a power of two make about half the raw draws of
    # getrandbits rejections; the draws must still be randrange's
    sizes, rows = (1, 3, 5, 0), (4, 2, 3, 2)
    for seed in range(4):
        prefix, full = [], []
        for c, (size, n) in enumerate(zip(sizes, rows)):
            prefix.append(reference_rows(random.Random(f"{seed}:{c}"), p, size, n))
            full.append(reference_rows(random.Random(f"{seed}:{c}"), p, size, size))
        assert sample_theta(p, seed, sizes, rows=rows) == prefix
        assert sample_theta(p, seed, sizes) == full


def test_sample_theta_needs_one_row_count_per_block():
    with pytest.raises(InputError, match="one row count per block"):
        sample_theta(DEFAULT_PRIME, 0, (2, 3), rows=(1,))
