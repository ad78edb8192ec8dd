"""Generators for the named example families used by tests and the CLI.

Everything here is purely combinatorial: cubes and stacked cubical polytopes
are tracked through a registry of boundary facets (each facet stored with its
own cube-grid coordinates so later gluings and augmentations can navigate
it), cross-polytope gluings identify same-color vertices facet by facet, and
quadrangulations grow by vertex splitting inside an explicit rotation system.
Every generator checks its own structural counts before returning, with
``InvariantError`` rather than ``assert``, so the checks also run under
``python -O``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .combinat import (
    COMPLEX_COLOR_CAP,
    COMPLEX_FACET_CAP,
    GRAPH_EDGE_CAP,
    BalancedComplex,
    BipartiteGraph,
    Face,
    Vertex,
    complete_edges,
    glue,
)
from .errors import InputError, InvariantError, check_cap

#: Most 2-cells of a random quadrangulation. Each split reads only the faces
#: around the split vertex, so building takes time about linear in the
#: faces: 4096 take about 0.11 s on a shared 2-vCPU VM.
QUADRANGULATION_FACE_CAP = 4096


def _check(ok: bool, what: str) -> None:
    """A generator's structural self-check; ``what`` names what must hold."""
    if not ok:
        raise InvariantError(f"generator self-check failed: {what}")


# Every generator refuses, before it builds anything, an output that the
# JSON loaders would refuse. A dimension is checked before any count that
# is exponential in it, so that no count grows beyond a few machine words.


def _check_edges(edges: int) -> None:
    check_cap("generated graph edges", edges, GRAPH_EDGE_CAP)


def _check_dimension(what: str, d: int) -> None:
    """Refuse a dimension past which 2^d alone passes the edge cap."""
    check_cap(what, d, GRAPH_EDGE_CAP.bit_length())


def _check_colors(colors: int) -> None:
    check_cap("generated complex colors", colors, COMPLEX_COLOR_CAP)


def _check_facets(facets: int) -> None:
    check_cap("generated complex facets", facets, COMPLEX_FACET_CAP)


# ---------------------------------------------------------------------------
# Elementary graph families
# ---------------------------------------------------------------------------


def complete_bipartite(n: int, m: int) -> BipartiteGraph:
    if n < 1 or m < 1:
        raise InputError("complete bipartite graph needs positive sides")
    _check_edges(n * m)
    return BipartiteGraph(n, m, complete_edges(n, m))


def cycle(n: int) -> BipartiteGraph:
    """The cycle on 2n vertices, alternating sides; cycle(2) is the square."""
    if n < 2:
        raise InputError("an even cycle needs at least 4 vertices")
    _check_edges(2 * n)
    edges = {(i, i) for i in range(1, n + 1)}
    edges |= {(i + 1, i) for i in range(1, n)}
    edges.add((1, n))
    return BipartiteGraph(n, n, frozenset(edges))


def random_tree(n: int, m: int, seed: int) -> BipartiteGraph:
    """Uniformly random spanning tree of the complete bipartite graph.

    Aldous-Broder walk: first-entry edges of a random walk form a uniform
    spanning tree.
    """
    if n < 1 or m < 1:
        raise InputError("tree sides must be positive")
    _check_edges(n + m - 1)
    rng = random.Random(seed)
    vertices: list[Vertex] = [("A", i) for i in range(1, n + 1)] + [
        ("B", j) for j in range(1, m + 1)
    ]
    current = rng.choice(vertices)
    seen = {current}
    edges: set[tuple[int, int]] = set()
    while len(seen) < len(vertices):
        side, idx = current
        if side == "A":
            nxt: Vertex = ("B", rng.randrange(1, m + 1))
        else:
            nxt = ("A", rng.randrange(1, n + 1))
        if nxt not in seen:
            seen.add(nxt)
            a, b = (idx, nxt[1]) if side == "A" else (nxt[1], idx)
            edges.add((a, b))
        current = nxt
    g = BipartiteGraph(n, m, frozenset(edges))
    _check(g.n_edges == n + m - 1, "a spanning tree")
    return g


def double_banana() -> BipartiteGraph:
    """Two copies of the complete 3x3 graph minus one edge, glued along the
    two endpoints of the missing edge. 5+5 vertices, 16 edges; the smallest
    graph whose hereditary (2,2) sparsity counts do not certify independence.
    """
    half = BipartiteGraph(3, 3, complete_edges(3, 3) - {(3, 3)})
    glued = glue(half, half, {("A", 3): ("A", 3), ("B", 3): ("B", 3)})
    _check(glued.graph.a_size == glued.graph.b_size == 5, "5 + 5 vertices")
    _check(glued.graph.n_edges == 16, "16 edges")
    return glued.graph


def fan_quadrangulation(k: int) -> BipartiteGraph:
    """Maximal outerplanar bipartite graph: a 2k-gon quadrangulated by chords
    from one corner to every other far corner. 3k - 2 edges."""
    if k < 2:
        raise InputError("fan needs a polygon with at least 4 vertices")
    _check_edges(3 * k - 2)
    g = cycle(k)
    chords = {(1, i + 1) for i in range(1, k - 1)}
    out = BipartiteGraph(k, k, g.edges | chords)
    _check(out.n_edges == 3 * k - 2, "3k - 2 edges")
    return out


# ---------------------------------------------------------------------------
# Cubes and stacked cubical polytopes
# ---------------------------------------------------------------------------


@dataclass
class CubicalGraph:
    """A cubical polytope graph plus its boundary facet registry.

    Each boundary (d-1)-cube in ``facets`` is its grid: a dict from its own
    0/1 coordinates, tuples of length d - 1, to abstract vertex ids.
    ``dense`` maps abstract vertex ids to graph vertices, which name their
    side. ``coords`` is only present for a plain cube, where it
    enables the opposite-facet augmentation.
    """

    d: int
    graph: BipartiteGraph
    facets: list[dict[tuple[int, ...], int]]
    dense: dict[int, Vertex]
    coords: dict[int, tuple[int, ...]] | None = None


class _Builder:
    """Accumulates abstract vertices and edges, then densifies per side."""

    def __init__(self):
        self.sides: list[str] = []
        self.edges: set[tuple[int, int]] = set()

    def add_vertex(self, side: str) -> int:
        self.sides.append(side)
        return len(self.sides) - 1

    def add_edge(self, u: int, v: int) -> None:
        if self.sides[u] == self.sides[v]:
            raise InputError("edge within one side")
        self.edges.add((min(u, v), max(u, v)))

    def finish(self) -> tuple[BipartiteGraph, dict[int, Vertex]]:
        dense: dict[int, Vertex] = {}
        counts = {"A": 0, "B": 0}
        for vid, side in enumerate(self.sides):
            counts[side] += 1
            dense[vid] = (side, counts[side])
        edges = set()
        for u, v in self.edges:
            a, b = (u, v) if self.sides[u] == "A" else (v, u)
            edges.add((dense[a][1], dense[b][1]))
        return BipartiteGraph(counts["A"], counts["B"], frozenset(edges)), dense


def _insert(partial: tuple[int, ...], pos: int, val: int) -> tuple[int, ...]:
    return partial[:pos] + (val,) + partial[pos:]


def cube_complex(d: int) -> CubicalGraph:
    """The d-cube graph with all 2d facets registered.

    Vertices are 0/1 vectors; sides by coordinate-sum parity, edges by Hamming
    distance one. Facets come in opposite pairs (2c, 2c+1).
    """
    if d < 1:
        raise InputError("cube dimension must be positive")
    _check_dimension("cube dimension", d)
    _check_edges(d * 2 ** (d - 1))
    b = _Builder()
    ids: dict[tuple[int, ...], int] = {}
    for x in itertools.product((0, 1), repeat=d):
        ids[x] = b.add_vertex("A" if sum(x) % 2 == 0 else "B")
    for x, vid in ids.items():
        for c in range(d):
            if x[c] == 0:
                b.add_edge(vid, ids[x[:c] + (1,) + x[c + 1 :]])
    facets = []
    for c in range(d):
        for val in (0, 1):
            grid = {
                y: ids[_insert(y, c, val)]
                for y in itertools.product((0, 1), repeat=d - 1)
            }
            facets.append(grid)
    graph, dense = b.finish()
    coords = {vid: x for x, vid in ids.items()}
    return CubicalGraph(d=d, graph=graph, facets=facets, dense=dense, coords=coords)


def cube_graph(d: int) -> BipartiteGraph:
    """Graph of the d-cube: 0/1 vectors, sides by parity, Hamming-1 edges."""
    return cube_complex(d).graph


def stacked_cubical_graph(d: int, t: int, seed: int = 0) -> CubicalGraph:
    """Graph of a stacked cubical polytope: t cubes glued facet onto facet.

    Each gluing consumes a randomly chosen boundary facet, identifies it with
    one facet of a fresh cube, and registers the fresh cube's other 2d - 1
    facets. The registry always holds exactly the boundary facets.
    """
    if d < 3:
        raise InputError("stacked cubical polytopes need dimension at least 3")
    if t < 1:
        raise InputError("need at least one cube")
    _check_dimension("cube dimension", d)
    _check_edges((d + 1) * (t + 1) * 2 ** (d - 2) - 2 ** (d - 1))
    rng = random.Random(seed)
    base = cube_complex(d)
    b = _Builder()
    b.sides = [base.dense[v][0] for v in range(len(base.dense))]
    inv = {v: k for k, v in base.dense.items()}
    for i, j in base.graph.edges:
        b.add_edge(inv[("A", i)], inv[("B", j)])
    boundary = list(base.facets)

    for _ in range(t - 1):
        f = boundary.pop(rng.randrange(len(boundary)))
        tops = {}
        for y, bottom in f.items():
            top = b.add_vertex("B" if b.sides[bottom] == "A" else "A")
            tops[y] = top
            b.add_edge(bottom, top)
        for y, top in tops.items():
            for c in range(d - 1):
                if y[c] == 0:
                    b.add_edge(top, tops[y[: c] + (1,) + y[c + 1 :]])
        boundary.append(tops)
        for c in range(d - 1):
            for val in (0, 1):
                grid = {}
                for w in itertools.product((0, 1), repeat=d - 2):
                    y = _insert(w, c, val)
                    grid[w + (0,)] = f[y]
                    grid[w + (1,)] = tops[y]
                boundary.append(grid)

    graph, dense = b.finish()
    _check(graph.n_vertices == 2**d + (t - 1) * 2 ** (d - 1), "vertex count")
    _check(graph.n_edges == (d + 1) * (t + 1) * 2 ** (d - 2) - 2 ** (d - 1), "edge count")
    _check(len(boundary) == 2 * d + (t - 1) * (2 * d - 2), "boundary facet count")
    return CubicalGraph(d=d, graph=graph, facets=boundary, dense=dense)


class Augmentation(NamedTuple):
    graph: BipartiteGraph
    added: frozenset[tuple[int, int]]


def augment_facet(cg: CubicalGraph, facet: int, mode: str) -> Augmentation:
    """Add extra edges inside (or across from) one registered facet.

    Modes:
      - "two-vertex": join the two least A-vertices of the facet to every
        B-vertex of the facet. In dimension 3 nothing new appears.
      - "opposite-facets": join one A-vertex of the facet to the facet's
        B-vertices, and a 2-face partner on the opposite facet to that
        facet's B-vertices. Plain cubes only.
      - "laman": embed the recursive extra-edge set for sparsity-tight
        augmented cubes into the facet, 2^(d-1) - d edges.
    """
    if not 0 <= facet < len(cg.facets):
        raise InputError("facet index out of range")
    f = cg.facets[facet]
    g = cg.graph
    if mode == "two-vertex":
        a_verts = sorted(v for v in f.values() if cg.dense[v][0] == "A")
        b_verts = [v for v in f.values() if cg.dense[v][0] == "B"]
        if len(a_verts) < 2:
            raise InputError("facet has fewer than two A-vertices")
        new = {
            (cg.dense[u][1], cg.dense[bv][1])
            for u in a_verts[:2]
            for bv in b_verts
        }
    elif mode == "opposite-facets":
        if cg.coords is None:
            raise InputError("opposite-facet augmentation needs a plain cube")
        f_star = cg.facets[facet ^ 1]
        c = facet // 2
        ids = {x: vid for vid, x in cg.coords.items()}
        v_id = min(
            (vid for vid in f.values() if cg.dense[vid][0] == "A"),
            key=lambda vid: cg.coords[vid],
        )
        c2 = 0 if c != 0 else 1
        x = list(cg.coords[v_id])
        x[c] ^= 1
        x[c2] ^= 1
        v_star_id = ids[tuple(x)]
        new = {
            (cg.dense[v_id][1], cg.dense[bv][1])
            for bv in f.values()
            if cg.dense[bv][0] == "B"
        }
        new |= {
            (cg.dense[v_star_id][1], cg.dense[bv][1])
            for bv in f_star.values()
            if cg.dense[bv][0] == "B"
        }
    elif mode == "laman":
        new = _laman_edges(cg, f, cg.d - 1)
    else:
        raise InputError(f"unknown augmentation mode {mode!r}")
    added = frozenset(new) - g.edges
    return Augmentation(
        BipartiteGraph(g.a_size, g.b_size, g.edges | added), added
    )


def stacked_cubical_augmented(d: int, t: int, seed: int = 0) -> BipartiteGraph:
    """Stacked cubical graph with the two-vertex augmentation in one facet.

    The result has exactly (d-1)|A| + 2|B| - 2(d-1) edges, the tight count
    for simultaneous (2, d-1) rigidity and stress-freeness; this identity is
    checked.
    """
    cg = stacked_cubical_graph(d, t, seed)
    # |A| = |B|: every glued cube adds as many vertices to each side
    _check_edges((d + 1) * cg.graph.n_vertices // 2 - 2 * (d - 1))
    out = augment_facet(cg, 0, "two-vertex").graph
    _check(out.n_edges == (d - 1) * out.a_size + 2 * out.b_size - 2 * (d - 1), "tight count")
    return out


def laman_extra_edges(m: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Extra edges on the m-cube making it (1, m+1)-sparsity-tight.

    Base m = 3: the four long diagonals. Recursion: duplicate the solution on
    the two halves x_1 = 0 and x_1 = 1 and add m - 1 fresh cross edges. The
    count 2^m - (m+1) and the bipartiteness of every edge are checked.
    """
    if m < 3:
        raise InputError("extra-edge construction starts at the 3-cube")
    if m == 3:
        edges = {
            (x, tuple(1 - c for c in x))
            for x in itertools.product((0, 1), repeat=3)
            if sum(x) % 2 == 0
        }
    else:
        edges = set()
        for x, y in laman_extra_edges(m - 1):
            edges.add(((0,) + x, (0,) + y))
            edges.add(((1,) + x, (1,) + y))
        zero = (0,) * m
        added = 0
        for i, j in itertools.combinations(range(m - 1), 2):
            v = [0] * m
            v[0] = 1
            v[1 + i] = 1
            v[1 + j] = 1
            edges.add((zero, tuple(v)))
            added += 1
            if added == m - 1:
                break
    _check(len(edges) == 2**m - (m + 1), "2^m - (m + 1) extra edges")
    _check(all(sum(x) % 2 != sum(y) % 2 for x, y in edges), "extra edges are bipartite")
    return edges


def _laman_edges(cg: CubicalGraph, grid: dict, m: int) -> set[tuple[int, int]]:
    """``laman_extra_edges(m)`` placed on ``grid`` (0/1 coordinates -> vertex
    id of ``cg``) as graph edges: the sorted dense ends put the A-end first."""
    ends = (sorted((cg.dense[grid[x]], cg.dense[grid[y]])) for x, y in laman_extra_edges(m))
    return {(a, b) for (_, a), (_, b) in ends}


def laman_augmented_cube(d: int) -> BipartiteGraph:
    """The (d-1)-cube plus 2^(d-1) - d extra edges, (1, d)-sparsity-tight.

    For d = 4 this is the 3-cube with its four long diagonals added, which is
    the complete 4x4 bipartite graph.
    """
    if d < 4:
        raise InputError("the augmented cube construction starts at d = 4")
    _check_dimension("cube dimension", d)
    _check_edges((d - 1) * 2 ** (d - 2) + 2 ** (d - 1) - d)
    cg = cube_complex(d - 1)
    g = cg.graph
    new = _laman_edges(cg, {x: vid for vid, x in cg.coords.items()}, d - 1)
    _check(not new & g.edges, "extra edges are not cube edges")
    return BipartiteGraph(g.a_size, g.b_size, g.edges | new)


# ---------------------------------------------------------------------------
# Cross-polytopes and their gluings
# ---------------------------------------------------------------------------


def cross_polytope_boundary(d: int) -> BalancedComplex:
    """Boundary of the d-dimensional cross-polytope: two vertices per color,
    all colorful picks as facets, which is the van Kampen complex at l = 1."""
    if d < 2:
        raise InputError("cross-polytope dimension must be at least 2")
    return van_kampen_complex(1, d - 1)


class GluedCrossPolytopes(NamedTuple):
    complex: BalancedComplex
    pattern: tuple[tuple[int, ...], ...]
    pendant_facets: tuple[tuple[Face, ...], ...]


def glued_cross_polytopes(
    d: int, pattern: list[tuple[int, ...]] | None = None
) -> GluedCrossPolytopes:
    """Cross-polytope boundaries glued onto one central copy.

    Each pattern entry names a facet of the central copy (a sign vector over
    {1, 2}); a fresh copy is glued there by identifying same-color vertices
    and both copies drop the shared facet. Pattern facets must be distinct and
    of one parity class so that every pendant is short by one facet on the
    same side of the facet-ridge graph. The default pattern uses 2d - 1 odd
    facets for d >= 4 and all four odd facets for d = 3.
    """
    if d < 3:
        raise InputError("glued cross-polytopes need dimension at least 3")
    _check_colors(d)
    copies = (4 if d == 3 else 2 * d - 1) if pattern is None else len(pattern)
    _check_facets((copies + 1) * 2**d - 2 * copies)
    odd = sorted(
        s for s in itertools.product((1, 2), repeat=d) if s.count(2) % 2 == 1
    )
    if pattern is None:
        pattern = odd if d == 3 else odd[: 2 * d - 1]
    pattern = [tuple(s) for s in pattern]
    if len(set(pattern)) != len(pattern):
        raise InputError("pattern facets collide")
    parities = {s.count(2) % 2 for s in pattern}
    if len(parities) != 1:
        raise InputError("pattern facets must all lie in one parity class")
    for s in pattern:
        if len(s) != d or any(c not in (1, 2) for c in s):
            raise InputError(f"{s} is not a facet of the central copy")

    copies = len(pattern)
    sizes = tuple(2 + copies for _ in range(d))
    facets: set[Face] = {
        frozenset(zip(range(1, d + 1), pick))
        for pick in itertools.product((1, 2), repeat=d)
        if tuple(pick) not in pattern
    }
    pendants = []
    for idx, s in enumerate(pattern, start=1):
        mine = []
        for pick in itertools.product((1, 2), repeat=d):
            if all(v == 1 for v in pick):
                continue
            face = frozenset(
                (c, s[c - 1]) if pick[c - 1] == 1 else (c, 2 + idx)
                for c in range(1, d + 1)
            )
            facets.add(face)
            mine.append(face)
        pendants.append(tuple(mine))
    complex_ = BalancedComplex(sizes, frozenset(facets))
    _check(len(complex_.facets) == (copies + 1) * 2**d - 2 * copies, "facet count")
    return GluedCrossPolytopes(complex_, tuple(pattern), tuple(pendants))


# ---------------------------------------------------------------------------
# Shifted-complex families
# ---------------------------------------------------------------------------


def gamma_complex(d: int, sizes: list[int]) -> BalancedComplex:
    """The maximal shifted complex avoiding three joined points per color:
    facets are the colorful picks that use one of the two least vertices of
    some color."""
    if len(sizes) != d + 1:
        raise InputError("need one size per color, d + 1 of them")
    if any(s < 2 for s in sizes):
        raise InputError("each color needs at least two vertices")
    _check_colors(len(sizes))
    _check_facets(math.prod(sizes) - math.prod(s - 2 for s in sizes))
    # each facet once, by the first color c whose vertex is one of its two least
    picks = itertools.chain.from_iterable(
        itertools.product(
            *[range(3, s + 1) for s in sizes[:c]],
            (1, 2),
            *[range(1, s + 1) for s in sizes[c + 1 :]],
        )
        for c in range(len(sizes))
    )
    facets = frozenset(frozenset(zip(range(1, d + 2), pick)) for pick in picks)
    return BalancedComplex(tuple(sizes), facets)


def van_kampen_complex(l: int, d: int) -> BalancedComplex:
    """The join of l+1 points per color over d+1 colors."""
    if l < 1 or d < 0:
        raise InputError("need l >= 1 and d >= 0")
    _check_colors(d + 1)
    _check_facets((l + 1) ** (d + 1))
    facets = frozenset(
        frozenset(zip(range(1, d + 2), pick))
        for pick in itertools.product(range(1, l + 2), repeat=d + 1)
    )
    return BalancedComplex((l + 1,) * (d + 1), facets)


# ---------------------------------------------------------------------------
# Quadrangulations of the sphere
# ---------------------------------------------------------------------------


def _rotation(faces: list[tuple], around: set[int], u: int) -> tuple[list[int], list[int]]:
    """Neighbors of u in rotation order, with the face between each pair.

    Faces are oriented 4-gons with every directed edge in exactly one face;
    walking entered-from -> leaves-to around u recovers the rotation.
    ``around`` holds the ids of the faces that contain u, read in any order.
    Returns (nbrs, fids) where faces[fids[t]] contains (nbrs[t], u,
    nbrs[(t+1) % deg]).
    """
    step: dict[int, tuple[int, int]] = {}
    for fi in around:
        f = faces[fi]
        for pos, w in enumerate(f):
            if w == u:
                step[f[pos - 1]] = (f[(pos + 1) % 4], fi)
    start = min(step)
    nbrs = [start]
    fids = []
    v = start
    while True:
        w, fi = step[v]
        fids.append(fi)
        if w == start:
            break
        nbrs.append(w)
        v = w
    _check(len(nbrs) == len(step), "a consistent rotation system")
    return nbrs, fids


def random_quadrangulation(n_faces: int, seed: int = 0) -> BipartiteGraph:
    """Random maximal planar bipartite graph with the given number of 2-cells.

    Starts from the square drawn on the sphere (two 2-cells) and repeatedly
    splits a random vertex u: two of u's neighbors b, c are chosen, the faces
    strictly between them go to a fresh vertex of u's side, and the freed
    corridor closes with the new 4-gon (z, b, u, c). Every face stays a 4-gon
    and every maximal planar bipartite graph is reachable. The output has
    2N - 4 edges, checked. Uniformity of the distribution is not claimed.
    Each vertex keeps the ids of its faces, so a split reads only u's faces.
    """
    if n_faces < 2:
        raise InputError("a sphere quadrangulation has at least 2 faces")
    check_cap("quadrangulation faces", n_faces, QUADRANGULATION_FACE_CAP)
    rng = random.Random(seed)
    sides = ["A", "A", "B", "B"]
    faces: list[tuple] = [(0, 2, 1, 3), (0, 3, 1, 2)]
    around: list[set[int]] = [{0, 1} for _ in range(4)]
    for _ in range(n_faces - 2):
        u = rng.randrange(len(sides))
        nbrs, fids = _rotation(faces, around[u], u)
        deg = len(nbrs)
        i = rng.randrange(deg)
        j = (i + rng.randrange(1, deg)) % deg
        z = len(sides)
        sides.append(sides[u])
        moved = set()
        pos = i
        while pos != j:
            fi = fids[pos]
            faces[fi] = tuple(z if w == u else w for w in faces[fi])
            moved.add(fi)
            pos = (pos + 1) % deg
        new = len(faces)
        faces.append((z, nbrs[i], u, nbrs[j]))
        around[u] -= moved
        around.append(moved)
        for v in faces[new]:
            around[v].add(new)
    _check(len(faces) == n_faces, "the requested number of 2-cells")
    b = _Builder()
    b.sides = sides
    directed = set()
    for f in faces:
        _check(len(set(f)) == 4, "a 2-cell has 4 distinct vertices")
        for pos in range(4):
            u, v = f[pos], f[(pos + 1) % 4]
            directed.add((u, v))
            b.add_edge(u, v)
    # an orientable sphere map: every directed edge bounds exactly one face
    _check(len(directed) == 4 * n_faces, "every directed edge bounds one face")
    _check(all((v, u) in directed for u, v in directed), "an orientable sphere map")
    graph, _ = b.finish()
    _check(graph.n_edges == 2 * graph.n_vertices - 4, "2N - 4 edges")
    return graph
