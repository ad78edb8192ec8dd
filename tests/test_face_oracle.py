"""Face queries and the shiftedness rule against their first definitions.

``oracle_is_face`` scans the facets, ``oracle_faces_with_colorset``
restricts every facet to a color set, and ``oracle_check_shifted`` tries
every smaller vertex of a side or color. The library reads one face set,
grouped by color support, and checks shiftedness by the one-step rule; both
must give the same answers on random pure and non-pure complexes and on
random bipartite graphs, shifted and not shifted. ``oracle_maximal`` and
``oracle_is_antichain`` compare every pair of faces; the library tests a
face only against the larger faces at its least frequent vertex, on pools
closed under taking subfaces and on pools that are not. On a closed pool the
shiftedness pass also returns the facets, the faces that are no face minus a
vertex, and must match both oracles together. ``oracle_antistar`` keeps the
maximal faces of the whole face set less the star; the library reads them
off a pool of facets and facets less one vertex of sigma. ``oracle_link``
keeps the maximal faces tau of the whole face set with tau disjoint from
sigma and tau + sigma a face; the library reads them off the facets on
sigma.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    all_faces,
    antistar,
    f_vector,
    faces_with_colorset,
    is_face,
    link,
    maximal_faces,
)
from balrig.errors import InputError
from balrig.shifting import _shifted_facets, check_shifted


def oracle_is_face(k, sigma):
    sigma = frozenset(sigma)
    return any(sigma <= f for f in k.facets)


def oracle_faces_with_colorset(k, colors):
    """Each facet contributes at most one restriction to the color set."""
    t = frozenset(colors)
    out = set()
    for f in k.facets:
        if t <= {c for c, _ in f}:
            out.add(frozenset((c, i) for c, i in f if c in t))
    return out


def oracle_check_shifted(obj):
    """Replacing any vertex by any smaller vertex of its side or color
    yields an edge or a face."""
    if isinstance(obj, BipartiteGraph):
        edges = obj.edges
        return all(
            (p, q) in edges
            for i, j in edges
            for p in range(1, i + 1)
            for q in range(1, j + 1)
        )
    faces = all_faces(obj)
    for f in faces:
        for c, i in f:
            for smaller in range(1, i):
                if (f - {(c, i)}) | {(c, smaller)} not in faces:
                    return False
    return True


def oracle_maximal(pool):
    pool = set(pool)
    return {f for f in pool if not any(f < h for h in pool)}


def oracle_is_antichain(faces):
    return not any(f <= h or h <= f for f, h in itertools.combinations(faces, 2))


def oracle_antistar(k, sigma):
    """Every face of k without sigma, reduced to its maximal faces."""
    sigma = frozenset(sigma)
    if sigma not in all_faces(k):
        raise InputError("antistar of a non-face")
    keep = [f for f in all_faces(k) if not sigma <= f]
    return BalancedComplex(k.color_sizes, oracle_maximal(keep))


def oracle_link(k, sigma):
    """Every face of k disjoint from sigma whose union with it is a face,
    reduced to its maximal faces."""
    sigma = frozenset(sigma)
    faces = all_faces(k)
    if sigma not in faces:
        raise InputError("link of a non-face")
    keep = [f for f in faces if not f & sigma and f | sigma in faces]
    return BalancedComplex(k.color_sizes, oracle_maximal(keep))


def _below(face):
    """Every face that the shifting rules reach from ``face``: a subset of
    its colors, each vertex replaced by one no larger."""
    items = sorted(face)
    return {
        frozenset(zip((c for c, _ in sub), pick))
        for r in range(len(items) + 1)
        for sub in itertools.combinations(items, r)
        for pick in itertools.product(*[range(1, i + 1) for _, i in sub])
    }


@st.composite
def complexes(draw):
    """A pure, non-pure or shifted complex on 1-4 colors of 1-3 vertices."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    n = len(sizes)
    picks = list(itertools.product(*[range(1, s + 1) for s in sizes]))
    kind = draw(st.sampled_from(("pure", "mixed", "shifted")))
    if kind == "pure":
        chosen = [pick for pick in picks if draw(st.booleans())] or [picks[0]]
        return BalancedComplex(sizes, frozenset(frozenset(enumerate(p, 1)) for p in chosen))
    faces = []
    for _ in range(draw(st.integers(1, 6))):
        colors = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        faces.append(frozenset((c, draw(st.integers(1, sizes[c - 1]))) for c in colors))
    if kind == "shifted":
        faces = set().union(*map(_below, faces))
    return BalancedComplex.from_maximal_candidates(sizes, faces)


@st.composite
def graphs(draw):
    """A random or a shifted bipartite graph with sides of 1-5 vertices."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    edges = {e for e in pairs if draw(st.booleans())}
    if draw(st.booleans()):
        edges = {(p, q) for i, j in edges for p in range(1, i + 1) for q in range(1, j + 1)}
    return BipartiteGraph(n, m, frozenset(edges))


def _probes(k):
    """Faces and near-faces: each facet, the facet less one vertex or with
    one vertex moved to the next or previous index (which may be out of
    range), and the facet with the first vertex of some color added (which
    may repeat a color)."""
    for f in k.facets:
        yield f
        for c, i in f:
            rest = f - {(c, i)}
            yield from (rest, rest | {(c, i + 1)}, rest | {(c, i - 1)})
        for c in range(1, k.n_colors + 1):
            yield f | {(c, 1)}


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_face_queries_match_the_facet_scans(k):
    colors = range(1, k.n_colors + 1)
    for r in range(k.n_colors + 1):
        for t in itertools.combinations(colors, r):
            assert faces_with_colorset(k, t) == oracle_faces_with_colorset(k, t)
    for sigma in _probes(k):
        assert is_face(k, sigma) == oracle_is_face(k, sigma)
    counts = [0] * (k.dim + 2)
    for f in all_faces(k):
        counts[len(f)] += 1
    assert f_vector(k) == tuple(counts)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_one_step_rule_matches_every_smaller_vertex_on_complexes(k):
    assert check_shifted(k) == oracle_check_shifted(k)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_one_step_rule_matches_every_smaller_vertex_on_graphs(g):
    assert check_shifted(g) == oracle_check_shifted(g)


def test_the_cases_hold_shifted_and_non_shifted_inputs():
    # the equivalence tests above would be vacuous if one answer never came up
    shifted = BalancedComplex.from_maximal_candidates((3, 3), _below({(1, 2), (2, 3)}))
    assert check_shifted(shifted) and oracle_check_shifted(shifted)
    gap = BalancedComplex((3, 3), frozenset({frozenset({(1, 1), (2, 3)})}))
    assert not check_shifted(gap) and not oracle_check_shifted(gap)
    assert not check_shifted(BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)})))
    assert check_shifted(BipartiteGraph(2, 3, frozenset({(1, 1), (1, 2), (2, 1)})))


@st.composite
def pools(draw):
    """Faces on 1-4 colors of 1-3 vertices, with repeats and the empty face
    at times, closed under taking subfaces or not."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    faces = []
    for _ in range(draw(st.integers(0, 8))):
        colors = draw(st.lists(st.integers(1, len(sizes)), unique=True, max_size=len(sizes)))
        faces.append(frozenset((c, draw(st.integers(1, sizes[c - 1]))) for c in colors))
    if faces and draw(st.booleans()):
        faces.append(draw(st.sampled_from(faces)))
    if draw(st.booleans()):
        faces = [
            frozenset(sub)
            for f in faces
            for r in range(len(f) + 1)
            for sub in itertools.combinations(sorted(f), r)
        ]
    return tuple(sizes), faces


@settings(max_examples=100, deadline=None)
@given(pools())
def test_maximal_faces_match_the_pairwise_scan(case):
    sizes, pool = case
    assert maximal_faces(pool) == oracle_maximal(pool)
    if pool:
        k = BalancedComplex.from_maximal_candidates(sizes, pool)
        assert k.facets == oracle_maximal(pool)


@settings(max_examples=100, deadline=None)
@given(pools())
def test_the_antichain_check_matches_the_pairwise_scan(case):
    sizes, pool = case
    faces = frozenset(pool)
    if not faces:
        return
    if oracle_is_antichain(faces):
        assert BalancedComplex(sizes, faces).facets == faces
    else:
        with pytest.raises(InputError, match="antichain"):
            BalancedComplex(sizes, faces)


def _subfaces(face):
    return {frozenset(sub) for r in range(len(face) + 1) for sub in itertools.combinations(face, r)}


@st.composite
def closed_pools(draw):
    """A pool closed under taking subfaces, the empty face included, and at
    times under the shifting rules too."""
    sizes, pool = draw(pools())
    reach = _below if draw(st.booleans()) else _subfaces
    return sizes, frozenset().union({frozenset()}, *map(reach, pool))


@settings(max_examples=200, deadline=None)
@given(closed_pools())
def test_the_shiftedness_pass_returns_the_facets_of_a_shifted_pool(case):
    sizes, pool = case
    k = BalancedComplex.from_maximal_candidates(sizes, pool)
    assert all_faces(k) == pool
    expected = oracle_maximal(pool) if oracle_check_shifted(k) else None
    assert _shifted_facets(pool) == expected


def test_the_empty_face_is_maximal_only_alone():
    empty, v = frozenset(), frozenset({(1, 1)})
    assert maximal_faces([empty, empty]) == {empty}
    assert maximal_faces([empty, v]) == {v}
    assert maximal_faces([]) == frozenset()
    with pytest.raises(InputError, match="antichain"):
        BalancedComplex((1,), frozenset({empty, v}))


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the InputError it
    raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_antistar_matches_the_closure_pool_oracle(k):
    # probes cover faces, non-faces, the empty face (whose antistar is
    # empty, so refused) and vertices that are facets
    for sigma in [frozenset(), *_probes(k)]:
        assert _outcome(antistar, k, sigma) == _outcome(oracle_antistar, k, sigma)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_link_matches_the_closure_oracle(k):
    # probes cover faces, non-faces, the empty face (whose link is the
    # complex) and facets (whose link is the empty face alone)
    for sigma in [frozenset(), *_probes(k)]:
        assert _outcome(link, k, sigma) == _outcome(oracle_link, k, sigma)
