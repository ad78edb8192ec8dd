"""The acceptance suite: one check per headline property of the engine.

Each check runs at full documented scale with fixed seeds, returns
``(passed, detail)``, and is shared verbatim between ``balrig selftest`` and
the pytest acceptance module. A check is named only in ``CHECKS``;
``run_selftest`` attaches the name and the wall seconds. Tolerance is
exactness over the prime field under the default trial policy (three
independent draws, agreement required); any trial disagreement surfaces as
an error, never as a softened verdict.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import families as fam
from .combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    cone_left,
    cone_right,
    complete_edges,
    contract,
    delete_vertex,
    facet_ridge_graph,
    glue,
    induced_subgraph,
    join_complexes,
    swap_sides,
)
from .errors import InputError
from .exactla import TrialPolicy, run_trials, sample_theta
from .rigidity import (
    _complement,
    _complement_stresses,
    _dense,
    analyze,
    build_rigidity_matrix,
    laman_check,
    rows_independent_M,
)
from .shifting import (
    _edge_trial,
    check_shifted,
    contains_join,
    shift_complex,
    shift_graph,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    #: wall seconds the check took
    seconds: float


# ---------------------------------------------------------------------------
# Random corpora (seed-deterministic)
# ---------------------------------------------------------------------------


def random_bipartite(rng: random.Random, max_side: int, min_side: int = 1) -> BipartiteGraph:
    n = rng.randint(min_side, max_side)
    m = rng.randint(min_side, max_side)
    edges = frozenset(e for e in complete_edges(n, m) if rng.random() < 0.5)
    return BipartiteGraph(n, m, edges)


def random_balanced_complex(
    rng: random.Random, n_colors: int, max_size: int, density: float = 0.45
) -> BalancedComplex:
    sizes = tuple(rng.randint(2, max_size) for _ in range(n_colors))
    colors = range(1, n_colors + 1)
    while True:
        facets = frozenset(
            frozenset(zip(colors, pick))
            for pick in itertools.product(*[range(1, s + 1) for s in sizes])
            if rng.random() < density
        )
        if facets:
            return BalancedComplex(sizes, facets)


#: Most neighbours a vertex of ``sparse_insertion_graph`` gets when it is
#: inserted, and the k = l at which ``check_sparse_min_degree`` analyzes
#: those graphs.
INSERTION_DEGREE = 7


def sparse_insertion_graph(rng: random.Random, n_vertices: int) -> BipartiteGraph:
    """Grow a graph by inserting vertices of bounded degree.

    Every suffix of the insertion order ends with a vertex of degree at most
    ``INSERTION_DEGREE``, which is exactly the hypothesis the deletion
    argument consumes. Retries until the total stays below 4N.
    """
    while True:
        sides = {"A": 1, "B": 1}
        edges: set[tuple[int, int]] = set()
        for _ in range(n_vertices - 2):
            side = rng.choice("AB")
            other = "B" if side == "A" else "A"
            sides[side] += 1
            idx = sides[side]
            deg = rng.randint(0, min(INSERTION_DEGREE, sides[other]))
            targets = rng.sample(range(1, sides[other] + 1), deg)
            for t in targets:
                edges.add((idx, t) if side == "A" else (t, idx))
        if len(edges) < 4 * n_vertices:
            return BipartiteGraph(sides["A"], sides["B"], frozenset(edges))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_rank_law() -> tuple[bool, str]:
    """rank of the (k,l)-matrix of the complete graph is l n + k m - k l,
    and at each draw the complement in K_{n,m}, which reads that rank and a
    stress basis off the parameters, agrees with elimination's rank and
    left kernel on the complete graph and on the complete graph less random
    edges."""
    policy = TrialPolicy(seed=101)
    rng = random.Random(101)
    p, tested, bases = policy.prime, 0, 0
    for k in range(1, 4):
        for l in range(1, 4):
            for n in range(k, 7):
                for m in range(l, 7):
                    g = fam.complete_bipartite(n, m)
                    rep = analyze(g, k, l, policy)
                    if rep.rank != l * n + k * m - k * l:
                        return False, f"K_{{{n},{m}}} at ({k},{l}): rank {rep.rank}"
                    cut = rng.sample(sorted(g.edges), rng.randint(1, n * m))
                    for h in (g, BipartiteGraph(n, m, g.edges.difference(cut))):
                        complement = _complement((n, m), (k, l), h.edges, ruled=False)
                        for i in range(policy.trials):
                            theta = sample_theta(p, policy.trial_seed(i), (n, m), rows=(k, l))
                            matrix = build_rigidity_matrix(h, k, l, theta, p)
                            by_complement = complement.rank(p, theta)
                            by_elimination = matrix.rank()
                            less = f"K_{{{n},{m}}} less {n * m - h.n_edges} edges"
                            if by_complement != by_elimination:
                                return False, f"{less}: {by_complement} != {by_elimination}"
                            stresses = _complement_stresses(h, k, l, theta, p)
                            if [_dense(w, h.n_edges) for w in stresses] != matrix.left_kernel():
                                return False, f"{less}: the stress bases differ"
                            bases += 1
                    tested += 1
    return True, f"{tested} (k,l,n,m) cases exact, both routes agree on {bases} ranks and bases"


def check_shift_conservation() -> tuple[bool, str]:
    """Shifting preserves the edge count and lands in the shifted class."""
    rng = random.Random(202)
    for i in range(200):
        g = random_bipartite(rng, 6)
        sh = shift_graph(g, policy=TrialPolicy(seed=1000 + i))
        if sh.graph.n_edges != g.n_edges or not check_shifted(sh.graph):
            return False, f"failed on {g}"
    return True, "200 random graphs, sides <= 6"


def _shift_predicates(g, k, l, policy):
    """(stress-free, rigid) read off the shifted graph, shared random draw:
    the greedy's full blocks start with the rows ``analyze`` reads.

    The shift runs the greedy trials directly: ``shift_graph`` may take the
    prefix walk, which ranks the same matrix as ``analyze``, and then the
    comparison would check nothing."""
    order = VertexOrder.admissible_graph(g.a_size, g.b_size, k, l)
    edges, _ = run_trials(policy, _edge_trial(g, order), what="shifted edge set")
    stress_free = k + 1 > g.a_size or l + 1 > g.b_size or (k + 1, l + 1) not in edges
    ekl = {(i, j) for i, j in complete_edges(g.a_size, g.b_size) if i <= k or j <= l}
    return stress_free, ekl <= edges


def check_shift_rank_agreement() -> tuple[bool, str]:
    """Shifted-graph membership verdicts of the greedy route equal rank
    verdicts, shared draw."""
    rng = random.Random(202)
    compared = 0
    for i in range(200):
        g = random_bipartite(rng, 6)
        policy = TrialPolicy(seed=1000 + i)
        for k in range(1, min(3, g.a_size) + 1):
            for l in range(1, min(3, g.b_size) + 1):
                sf_s, rig_s = _shift_predicates(g, k, l, policy)
                rep = analyze(g, k, l, policy)
                if sf_s != rep.is_stress_free or rig_s != rep.is_rigid:
                    return False, (
                        f"{g} at ({k},{l}): shift ({sf_s},{rig_s}) "
                        f"vs rank ({rep.is_stress_free},{rep.is_rigid})"
                    )
                compared += 1
    return True, f"{compared} verdict pairs agree"


def check_quadrangulations() -> tuple[bool, str]:
    """Maximal planar bipartite graphs are (2,2)-rigid and stress-free, and
    stay stress-free after deleting up to three random edges."""
    rng = random.Random(404)
    for i in range(50):
        n_faces = rng.randint(4, 18)
        g = fam.random_quadrangulation(n_faces, seed=9000 + i)
        policy = TrialPolicy(seed=2000 + i)
        rep = analyze(g, 2, 2, policy)
        if not (rep.is_rigid and rep.is_stress_free):
            return False, f"quadrangulation {i} not tight"
        edges = set(g.edges)
        for _ in range(3):
            edges.discard(rng.choice(sorted(edges)))
            sub = BipartiteGraph(g.a_size, g.b_size, frozenset(edges))
            if not analyze(sub, 2, 2, policy).is_stress_free:
                return False, f"edge-deleted subgraph of {i} has a stress"
    return True, "50 quadrangulations (N <= 20) + deletions"


def check_trees_outerplanar() -> tuple[bool, str]:
    """Trees are (1,1)-stress-free; fans with pendant trees are (2,1)-stress-free."""
    rng = random.Random(505)
    for i in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        g = fam.random_tree(n, m, seed=3000 + i)
        if not analyze(g, 1, 1, TrialPolicy(seed=30_000 + i)).is_stress_free:
            return False, f"tree {i} has a stress"
    edge = BipartiteGraph(1, 1, {(1, 1)})
    for i in range(30):
        g = fam.fan_quadrangulation(rng.randint(2, 6))
        for _ in range(rng.randint(0, 4)):
            # a pendant edge: the edge's end on the anchor's side is the anchor
            anchor = rng.choice(g.vertices())
            g = glue(g, edge, {(anchor[0], 1): anchor}).graph
        if not analyze(g, 2, 1, TrialPolicy(seed=31_000 + i)).is_stress_free:
            return False, f"outerplanar sample {i} has a stress"
    return True, "100 trees + 30 outerplanar"


def check_cone_commutation() -> tuple[bool, str]:
    """Coning commutes with shifting; cones shift the rigidity parameters."""
    rng = random.Random(606)
    for i in range(100):
        g = random_bipartite(rng, 5)
        policy = TrialPolicy(seed=4000 + i)
        order = VertexOrder.interleaved_graph(g.a_size, g.b_size)
        lhs = shift_graph(cone_left(g).graph, order.cone_left(), policy).graph
        rhs = cone_left(shift_graph(g, order, policy).graph).graph
        if lhs != rhs:
            return False, f"graph {i}"
        for k in range(1, min(2, g.a_size) + 1):
            for l in range(1, min(2, g.b_size) + 1):
                base = analyze(g, k, l, policy)
                left = analyze(cone_left(g).graph, k + 1, l, policy)
                right = analyze(cone_right(g).graph, k, l + 1, policy)
                ok = (
                    base.is_rigid == left.is_rigid == right.is_rigid
                    and base.is_stress_free
                    == left.is_stress_free
                    == right.is_stress_free
                )
                if not ok:
                    return False, f"predicate mismatch on graph {i} at ({k},{l})"
    return True, "100 graphs, edge sets and predicates"


def _lift(g, sub, count, bound, k, l, policy) -> str | None:
    """The deletion and contraction lemmas: g is (k,l)-stress-free when
    ``sub`` is and ``count <= bound``, and rigid when ``sub`` is and
    ``count >= bound``. None when neither premise holds, else the first
    conclusion that fails ("sf" or "rigid"), or "" when all hold; g is
    analyzed at most once."""
    rep_sub = analyze(sub, k, l, policy)
    claims = []
    if rep_sub.is_stress_free and count <= bound:
        claims.append("sf")
    if rep_sub.is_rigid and count >= bound:
        claims.append("rigid")
    if not claims:
        return None
    rep = analyze(g, k, l, policy)
    held = {"sf": rep.is_stress_free, "rigid": rep.is_rigid}
    return next((claim for claim in claims if not held[claim]), "")


def check_deletion_contraction_gluing() -> tuple[bool, str]:
    """Low-degree deletion, low-overlap contraction, and gluing implications."""
    rng = random.Random(707)
    counts = {"deletion": 0, "contraction": 0, "gluing": 0}

    for family, seed in (("deletion", 5000), ("contraction", 6000)):
        while counts[family] < 200:
            g = random_bipartite(rng, 5, min_side=2)
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            policy = TrialPolicy(seed=seed + counts[family])
            if family == "deletion":
                v = rng.choice(g.vertices())
                side, sub, count = v[0], delete_vertex(g, v).graph, g.degree(v)
            else:
                side = rng.choice("AB")
                u_idx, v_idx = rng.sample(range(1, g.side_size(side) + 1), 2)
                res = contract(g, (side, u_idx), (side, v_idx))
                sub, count = res.graph, res.common_neighbors
            failed = _lift(g, sub, count, l if side == "A" else k, k, l, policy)
            if failed:
                return False, f"{family}/{failed}"
            counts[family] += failed is not None

    attempts = 0
    intersections = [0, 0]  # stress-free pairs whose intersection is not, is rigid
    while counts["gluing"] < 200:
        attempts += 1
        if attempts > 50_000:
            return False, "gluing sampler starved"
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        policy = TrialPolicy(seed=7000 + attempts)
        part = counts["gluing"] % 3 + 1
        if part in (1, 2):
            # overlap large enough on both sides
            oa, ob = rng.randint(k, k + 1), rng.randint(l, l + 1)
            density = 0.9 if part == 1 else 0.45
        else:
            # overlap on one side only, and small there
            if rng.random() < 0.5:
                oa, ob = rng.randint(0, k), 0
            else:
                oa, ob = 0, rng.randint(0, l)
            density = 0.4
        a1, b1 = rng.randint(max(oa, 1), 4), rng.randint(max(ob, 1), 4)
        a2, b2 = rng.randint(max(oa, 1), 4), rng.randint(max(ob, 1), 4)
        e1 = {e for e in complete_edges(a1, b1) if rng.random() < density}
        e2 = {e for e in complete_edges(a2, b2) if rng.random() < density}
        if part == 2:
            # one drawn overlap block in both, so the intersection is that
            # block, rigid or not as the draw falls
            block = {e for e in complete_edges(oa, ob) if rng.random() < 0.8}
            e1 = {(i, j) for i, j in e1 if i <= a1 - oa or j <= b1 - ob}
            e1 |= {(a1 - oa + i, b1 - ob + j) for i, j in block}
            e2 = {(i, j) for i, j in e2 if i > oa or j > ob} | block
        g1 = BipartiteGraph(a1, b1, frozenset(e1))
        g2 = BipartiteGraph(a2, b2, frozenset(e2))
        # g2's first oa A- and ob B-vertices are g1's last ones
        ident = {("A", i): ("A", a1 - oa + i) for i in range(1, oa + 1)}
        ident.update({("B", j): ("B", b1 - ob + j) for j in range(1, ob + 1)})
        union = glue(g1, g2, ident).graph
        r1 = analyze(g1, k, l, policy)
        r2 = analyze(g2, k, l, policy)
        fired = False
        if part == 1 and r1.is_rigid and r2.is_rigid:
            fired = True
            if not analyze(union, k, l, policy).is_rigid:
                return False, "gluing/1"
        if part == 2 and r1.is_stress_free and r2.is_stress_free:
            inter = induced_subgraph(g2, range(1, oa + 1), range(1, ob + 1)).graph
            rigid = analyze(inter, k, l, policy).is_rigid
            intersections[rigid] += 1
            if rigid:
                fired = True
                if not analyze(union, k, l, policy).is_stress_free:
                    return False, "gluing/2"
        if part == 3 and r1.is_stress_free and r2.is_stress_free:
            fired = True
            if not analyze(union, k, l, policy).is_stress_free:
                return False, "gluing/3"
        if fired:
            counts["gluing"] += 1

    return True, (
        f"200 instances per implication family; {intersections[True]} of "
        f"{sum(intersections)} stress-free pairs glued on a rigid intersection"
    )


def check_double_banana() -> tuple[bool, str]:
    """Hereditary sparsity holds yet a self-stress exists."""
    g = fam.double_banana()
    lam = laman_check(g, 2, 2)
    rep = analyze(g, 2, 2, TrialPolicy(seed=808))
    ok = lam.holds and rep.stress_dim >= 1
    return ok, f"laman={lam.holds}, stress_dim={rep.stress_dim}"


def check_cube_diagonals() -> tuple[bool, str]:
    """The 3-cube plus its long diagonals is sparsity-tight at (1,4)."""
    g = fam.laman_augmented_cube(4)
    lam = laman_check(g, 1, 4)
    rep = analyze(g, 1, 4, TrialPolicy(seed=909))
    ok = (
        g.n_edges == 16
        and lam.holds
        and rep.is_rigid
        and rep.is_stress_free
    )
    return ok, f"edges={g.n_edges}, laman={lam.holds}, rigid={rep.is_rigid}"


def check_stacked_cubical() -> tuple[bool, str]:
    """Augmented stacked cubical graphs are (2, d-1)-rigid and stress-free
    with the tight edge count (d-1)|A| + 2|B| - 2(d-1)."""
    for d, tmax in ((3, 5), (4, 3)):
        for t in range(1, tmax + 1):
            g = fam.stacked_cubical_augmented(d, t, seed=40 * d + t)
            rep = analyze(g, 2, d - 1, TrialPolicy(seed=40 * d + t))
            tight = g.n_edges == (d - 1) * g.a_size + 2 * g.b_size - 2 * (d - 1)
            if not (rep.is_rigid and rep.is_stress_free and tight):
                return False, (
                    f"d={d} t={t}: rigid={rep.is_rigid} sf={rep.is_stress_free}"
                )
    return True, "d=3 t<=5 and d=4 t<=3 all tight"


def _oriented_pendant_graph(gcp) -> BipartiteGraph:
    """Facet-ridge graph with side A holding each pendant's short side."""
    frg = facet_ridge_graph(gcp.complex)
    sides = [frg.vertex_of[f][0] for f in gcp.pendant_facets[0]]
    deficient = "A" if sides.count("A") < sides.count("B") else "B"
    return frg.graph if deficient == "A" else swap_sides(frg.graph)


def check_glued_cross_polytopes() -> tuple[bool, str]:
    """The facet-ridge graph of the glued construction is not (1, d-1)-rigid."""
    gaps = []
    for d in (3, 4):
        gcp = fam.glued_cross_polytopes(d)
        g = _oriented_pendant_graph(gcp)
        rep = analyze(g, 1, d - 1, TrialPolicy(seed=111 + d))
        if rep.is_rigid:
            return False, f"d={d} came out rigid"
        gaps.append(f"d={d}: rank {rep.rank} < {rep.max_rank}")
    return True, "; ".join(gaps)


def check_octahedron_dual() -> tuple[bool, str]:
    """The facet-ridge graph of the octahedron is (1,2)-rigid."""
    frg = facet_ridge_graph(fam.cross_polytope_boundary(3))
    rep = analyze(frg.graph, 1, 2, TrialPolicy(seed=222))
    return rep.is_rigid, (
        f"rank {rep.rank} = max {rep.max_rank}" if rep.is_rigid else "not rigid"
    )


def check_facet_ridge_matrix_oracle() -> tuple[bool, str]:
    """Row independence of the facet-ridge matrix equals join avoidance of
    the shifted complex, on random balanced 2-complexes."""
    rng = random.Random(313)
    for i in range(30):
        kx = random_balanced_complex(rng, 3, 4)
        policy = TrialPolicy(seed=5500 + i)
        independent = rows_independent_M(kx, 2, policy).independent
        shifted = shift_complex(kx, policy=policy).complex
        if independent != (not contains_join(shifted, 3)):
            return False, f"complex {i} disagrees"
    return True, "30 random 2-complexes agree"


def check_join_shift() -> tuple[bool, str]:
    """Shifting distributes over joins under a nested order."""
    rng = random.Random(414)
    for i in range(20):
        k1 = random_balanced_complex(rng, rng.randint(1, 2), 3, density=0.6)
        k2 = random_balanced_complex(rng, rng.randint(1, 2), 3, density=0.6)
        policy = TrialPolicy(seed=6600 + i)
        joined = join_complexes(k1, k2)
        lhs = shift_complex(joined, policy=policy).complex
        rhs = join_complexes(
            shift_complex(k1, policy=policy).complex,
            shift_complex(k2, policy=policy).complex,
        )
        if lhs != rhs:
            return False, f"pair {i}"
    return True, "20 random joins agree"


def check_gamma_maximality() -> tuple[bool, str]:
    """The two-least-vertices complex is shifted, avoids the triple join, and
    is maximal with that property."""
    cases = [(1, [3, 4]), (2, [3, 3, 4]), (3, [3, 3, 3, 3]), (3, [4, 4, 4, 4])]
    for d, sizes in cases:
        gamma = fam.gamma_complex(d, sizes)
        if not check_shifted(gamma):
            return False, f"{sizes} not shifted"
        if contains_join(gamma, 3):
            return False, f"{sizes} contains the join"
        colors = range(1, d + 2)
        for pick in itertools.product(*[range(1, s + 1) for s in sizes]):
            if any(v <= 2 for v in pick):
                continue
            extra = frozenset(zip(colors, pick))
            enlarged = BalancedComplex(
                tuple(sizes), frozenset(gamma.facets | {extra})
            )
            if not contains_join(enlarged, 3):
                return False, f"{sizes} + {sorted(extra)} still avoids the join"
    return True, f"{len(cases)} palettes"


def check_sparse_min_degree() -> tuple[bool, str]:
    """Graphs grown by insertions of degree at most d = ``INSERTION_DEGREE``
    are (d,d)-stress-free."""
    rng = random.Random(515)
    for i in range(15):
        g = sparse_insertion_graph(rng, rng.randint(10, 20))
        if g.n_edges >= 4 * g.n_vertices:
            return False, "edge bound violated"
        policy = TrialPolicy(seed=7700 + i)
        if not analyze(g, INSERTION_DEGREE, INSERTION_DEGREE, policy).is_stress_free:
            return False, f"graph {i} has a stress"
    return True, "15 graphs, N <= 20, under 4N edges"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("rank-law-complete-bipartite", check_rank_law),
    ("shift-preserves-edges", check_shift_conservation),
    ("shift-rank-verdicts-agree", check_shift_rank_agreement),
    ("planar-quadrangulations", check_quadrangulations),
    ("trees-and-outerplanar", check_trees_outerplanar),
    ("cone-commutes-with-shifting", check_cone_commutation),
    ("deletion-contraction-gluing", check_deletion_contraction_gluing),
    ("double-banana-laman-not-stress-free", check_double_banana),
    ("cube-plus-diagonals", check_cube_diagonals),
    ("stacked-cubical-augmented", check_stacked_cubical),
    ("glued-cross-polytopes-not-rigid", check_glued_cross_polytopes),
    ("octahedron-facet-ridge-rigid", check_octahedron_dual),
    ("facet-ridge-matrix-vs-shifting", check_facet_ridge_matrix_oracle),
    ("join-shift-compatibility", check_join_shift),
    ("gamma-complex-maximality", check_gamma_maximality),
    ("sparse-min-degree", check_sparse_min_degree),
]


def run_selftest(names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all when ``names`` is empty), in ``CHECKS`` order."""
    if names:
        unknown = set(names) - {name for name, _ in CHECKS}
        if unknown:
            raise InputError(f"unknown checks: {', '.join(sorted(unknown))}")
    results = []
    for name, func in CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        passed, detail = func()
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
