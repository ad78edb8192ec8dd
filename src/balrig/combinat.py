"""Combinatorial data types and structural transforms.

Bipartite graphs live on two ordered sides A and B with dense 1-based indices;
an edge is the pair (i, j) with i on side A and j on side B. Balanced
complexes are stored by their maximal faces only, each face a set of colored
vertices (color, index) with at most one vertex per color; the downward
closure is materialized on demand and kept on the complex. Transforms return
new values together with explicit old-to-new vertex maps so callers can track
vertices across operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InvariantError

#: A graph vertex: ("A", i) or ("B", j), 1-based.
Vertex = tuple[str, int]
#: A colored vertex of a complex: (color, index), both 1-based.
ColoredVertex = tuple[int, int]
Face = frozenset  # of ColoredVertex


# ---------------------------------------------------------------------------
# Bipartite graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph with sides A (size ``a_size``) and B (``b_size``).

    Immutable after construction; safe to share and to use as a dict key.
    """

    a_size: int
    b_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.a_size < 0 or self.b_size < 0:
            raise InputError("side sizes must be nonnegative")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (1 <= i <= self.a_size and 1 <= j <= self.b_size):
                raise InputError(f"edge ({i},{j}') out of range")

    @property
    def n_vertices(self) -> int:
        return self.a_size + self.b_size

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> list[Vertex]:
        return [("A", i) for i in range(1, self.a_size + 1)] + [
            ("B", j) for j in range(1, self.b_size + 1)
        ]

    def side_size(self, side: str) -> int:
        return self.a_size if side == "A" else self.b_size

    def has_vertex(self, v: Vertex) -> bool:
        side, idx = v
        return side in ("A", "B") and 1 <= idx <= self.side_size(side)

    def neighbors(self, v: Vertex) -> set[int]:
        """Indices on the opposite side adjacent to v."""
        side, idx = v
        if side == "A":
            return {j for i, j in self.edges if i == idx}
        return {i for i, j in self.edges if j == idx}

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "a_size": self.a_size,
            "b_size": self.b_size,
            "edges": [list(e) for e in self.edge_list()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteGraph":
        try:
            edges = frozenset((int(i), int(j)) for i, j in data["edges"])
            return cls(int(data["a_size"]), int(data["b_size"]), edges)
        except InputError:
            raise
        except Exception as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc


def complete_edges(n: int, m: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in range(1, n + 1) for j in range(1, m + 1))


def swap_sides(g: BipartiteGraph) -> BipartiteGraph:
    """The same graph with the roles of the two sides exchanged."""
    return BipartiteGraph(g.b_size, g.a_size, frozenset((j, i) for i, j in g.edges))


class GraphTransform(NamedTuple):
    graph: BipartiteGraph
    vertex_map: dict[Vertex, Vertex]


class Contraction(NamedTuple):
    graph: BipartiteGraph
    common_neighbors: int
    vertex_map: dict[Vertex, Vertex]


class Gluing(NamedTuple):
    graph: BipartiteGraph
    map1: dict[Vertex, Vertex]
    map2: dict[Vertex, Vertex]


def _dense_map(size: int, removed: set[int]) -> dict[int, int]:
    """Old index -> new index after deleting ``removed``, order preserved."""
    out = {}
    new = 0
    for old in range(1, size + 1):
        if old not in removed:
            new += 1
            out[old] = new
    return out


def delete_vertex(g: BipartiteGraph, v: Vertex) -> GraphTransform:
    """Induced subgraph on all vertices except v; indices reindexed densely."""
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {v}")
    side, idx = v
    amap = _dense_map(g.a_size, {idx} if side == "A" else set())
    bmap = _dense_map(g.b_size, {idx} if side == "B" else set())
    if side == "A":
        kept = [(i, j) for i, j in g.edges if i != idx]
    else:
        kept = [(i, j) for i, j in g.edges if j != idx]
    graph = BipartiteGraph(
        len(amap), len(bmap), frozenset((amap[i], bmap[j]) for i, j in kept)
    )
    vmap: dict[Vertex, Vertex] = {("A", o): ("A", n) for o, n in amap.items()}
    vmap.update({("B", o): ("B", n) for o, n in bmap.items()})
    return GraphTransform(graph, vmap)


def contract(g: BipartiteGraph, u: Vertex, v: Vertex) -> Contraction:
    """Contract u with v (same side): u's edges move to v, u is deleted.

    Doubled edges collapse, so the result loses exactly |C| edges where C is
    the set of common neighbors; |C| is returned because the rigidity
    implications of a contraction are stated in terms of it.
    """
    if u == v:
        raise InputError("cannot contract a vertex with itself")
    if u[0] != v[0]:
        raise InputError("contraction requires two vertices on the same side")
    if not (g.has_vertex(u) and g.has_vertex(v)):
        raise InputError("unknown vertex in contraction")
    common = len(g.neighbors(u) & g.neighbors(v))
    side = u[0]
    if side == "A":
        moved = {(v[1], j) for i, j in g.edges if i == u[1]}
        kept = {(i, j) for i, j in g.edges if i != u[1]}
    else:
        moved = {(i, v[1]) for i, j in g.edges if j == u[1]}
        kept = {(i, j) for i, j in g.edges if j != u[1]}
    merged = BipartiteGraph(g.a_size, g.b_size, frozenset(kept | moved))
    deleted = delete_vertex(merged, u)
    vmap = dict(deleted.vertex_map)
    vmap[u] = deleted.vertex_map[v]
    return Contraction(deleted.graph, common, vmap)


def cone_left(g: BipartiteGraph) -> GraphTransform:
    """Add a new A-vertex, ordered before all of A, joined to every B-vertex.

    The new vertex becomes ("A", 1); existing A-indices shift up by one.
    """
    edges = {(i + 1, j) for i, j in g.edges} | {
        (1, j) for j in range(1, g.b_size + 1)
    }
    graph = BipartiteGraph(g.a_size + 1, g.b_size, frozenset(edges))
    vmap: dict[Vertex, Vertex] = {("A", i): ("A", i + 1) for i in range(1, g.a_size + 1)}
    vmap.update({("B", j): ("B", j) for j in range(1, g.b_size + 1)})
    return GraphTransform(graph, vmap)


def cone_right(g: BipartiteGraph) -> GraphTransform:
    """Mirror of cone_left: new B-vertex ("B", 1) joined to every A-vertex."""
    edges = {(i, j + 1) for i, j in g.edges} | {
        (i, 1) for i in range(1, g.a_size + 1)
    }
    graph = BipartiteGraph(g.a_size, g.b_size + 1, frozenset(edges))
    vmap: dict[Vertex, Vertex] = {("B", j): ("B", j + 1) for j in range(1, g.b_size + 1)}
    vmap.update({("A", i): ("A", i) for i in range(1, g.a_size + 1)})
    return GraphTransform(graph, vmap)


def induced_subgraph(
    g: BipartiteGraph, a_subset: Iterable[int], b_subset: Iterable[int]
) -> GraphTransform:
    """Restriction of g to the chosen side-A and side-B indices."""
    a_keep = sorted(set(a_subset))
    b_keep = sorted(set(b_subset))
    for i in a_keep:
        if not 1 <= i <= g.a_size:
            raise InputError(f"A-index {i} out of range")
    for j in b_keep:
        if not 1 <= j <= g.b_size:
            raise InputError(f"B-index {j} out of range")
    amap = {old: new for new, old in enumerate(a_keep, start=1)}
    bmap = {old: new for new, old in enumerate(b_keep, start=1)}
    edges = frozenset(
        (amap[i], bmap[j]) for i, j in g.edges if i in amap and j in bmap
    )
    graph = BipartiteGraph(len(a_keep), len(b_keep), edges)
    vmap: dict[Vertex, Vertex] = {("A", o): ("A", n) for o, n in amap.items()}
    vmap.update({("B", o): ("B", n) for o, n in bmap.items()})
    return GraphTransform(graph, vmap)


def glue(
    g1: BipartiteGraph, g2: BipartiteGraph, ident: dict[Vertex, Vertex]
) -> Gluing:
    """Union of g1 and g2 with some g2-vertices identified to g1-vertices.

    ``ident`` maps vertices of g2 to vertices of g1, side-preserving and
    injective. g1 keeps its indices; unidentified g2-vertices are appended
    after g1's on each side, preserving their relative order.
    """
    for src, dst in ident.items():
        if src[0] != dst[0]:
            raise InputError("identification must preserve sides")
        if not g2.has_vertex(src) or not g1.has_vertex(dst):
            raise InputError(f"identification {src} -> {dst} out of range")
    if len(set(ident.values())) != len(ident):
        raise InputError("identification must be injective")

    map1 = {v: v for v in g1.vertices()}
    map2: dict[Vertex, Vertex] = {}
    sizes = {"A": g1.a_size, "B": g1.b_size}
    for side, size2 in (("A", g2.a_size), ("B", g2.b_size)):
        for idx in range(1, size2 + 1):
            v = (side, idx)
            if v in ident:
                map2[v] = ident[v]
            else:
                sizes[side] += 1
                map2[v] = (side, sizes[side])
    edges = set(g1.edges)
    for i, j in g2.edges:
        edges.add((map2[("A", i)][1], map2[("B", j)][1]))
    graph = BipartiteGraph(sizes["A"], sizes["B"], frozenset(edges))
    return Gluing(graph, map1, map2)


# ---------------------------------------------------------------------------
# Vertex orders
# ---------------------------------------------------------------------------


class VertexOrder:
    """A total order on the vertices of a graph or a colored complex.

    The order must restrict to the natural (index) order within every side or
    color class. The induced lexicographic order on faces compares sorted
    tuples of vertex positions; for an edge that means smaller endpoint first,
    ties broken by the larger endpoint.
    """

    def __init__(self, sequence: Iterable[tuple]):
        self.sequence: tuple = tuple(sequence)
        if len(set(self.sequence)) != len(self.sequence):
            raise InputError("vertex order contains duplicates")
        self._pos = {v: i for i, v in enumerate(self.sequence)}
        last: dict = {}
        for part, idx in self.sequence:
            if part in last and idx <= last[part]:
                raise InputError(
                    "vertex order must extend the natural order on each side/color"
                )
            last[part] = idx

    def __len__(self) -> int:
        return len(self.sequence)

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexOrder) and self.sequence == other.sequence

    def __hash__(self) -> int:
        return hash(self.sequence)

    def __repr__(self) -> str:
        return f"VertexOrder({list(self.sequence)!r})"

    def position(self, v: tuple) -> int:
        return self._pos[v]

    def lex_key(self, face: Iterable[tuple]) -> tuple[int, ...]:
        return tuple(sorted(self._pos[v] for v in face))

    def covers_graph(self, g: BipartiteGraph) -> bool:
        return set(self.sequence) == set(g.vertices())

    def is_admissible(self, k: int, l: int) -> bool:
        """[k] on side A together with [l] on side B is an initial segment."""
        want = {("A", i) for i in range(1, k + 1)} | {
            ("B", j) for j in range(1, l + 1)
        }
        return set(self.sequence[: k + l]) == want

    def is_admissible_uniform(self, l: int, n_colors: int) -> bool:
        """The least l vertices of each color form an initial segment."""
        want = {(c, i) for c in range(1, n_colors + 1) for i in range(1, l + 1)}
        return set(self.sequence[: l * n_colors]) == want

    @classmethod
    def interleaved_graph(cls, a_size: int, b_size: int) -> "VertexOrder":
        """1 < 1' < 2 < 2' < ...; admissible for every (k, k) and (k+1, k)."""
        seq: list[tuple] = []
        for i in range(1, max(a_size, b_size) + 1):
            if i <= a_size:
                seq.append(("A", i))
            if i <= b_size:
                seq.append(("B", i))
        return cls(seq)

    @classmethod
    def admissible_graph(
        cls, a_size: int, b_size: int, k: int, l: int
    ) -> "VertexOrder":
        """Default (k, l)-admissible order: [k], then [l'], then the rest interleaved."""
        if k > a_size or l > b_size:
            raise InputError("(k,l)-admissible order needs k <= |A| and l <= |B|")
        seq: list[tuple] = [("A", i) for i in range(1, k + 1)]
        seq += [("B", j) for j in range(1, l + 1)]
        for i in range(1, max(a_size, b_size) + 1):
            if k < i <= a_size:
                seq.append(("A", i))
            if l < i <= b_size:
                seq.append(("B", i))
        return cls(seq)

    @classmethod
    def interleaved_complex(cls, color_sizes: Sequence[int]) -> "VertexOrder":
        """Colors interleaved by index; (l,...,l)-admissible for every l."""
        seq = [
            (c, i)
            for i in range(1, max(color_sizes, default=0) + 1)
            for c in range(1, len(color_sizes) + 1)
            if i <= color_sizes[c - 1]
        ]
        return cls(seq)

    @classmethod
    def concatenated(cls, first: "VertexOrder", second: "VertexOrder", color_shift: int) -> "VertexOrder":
        """Order on a join: all of ``first``, then ``second`` with colors shifted."""
        seq = list(first.sequence) + [
            (c + color_shift, i) for c, i in second.sequence
        ]
        return cls(seq)

    def cone_left(self) -> "VertexOrder":
        """Order for the left cone: the new vertex ("A", 1) becomes smallest."""
        shifted = [("A", i + 1) if s == "A" else (s, i) for s, i in self.sequence]
        return VertexOrder([("A", 1)] + shifted)

    def cone_right(self) -> "VertexOrder":
        shifted = [("B", i + 1) if s == "B" else (s, i) for s, i in self.sequence]
        return VertexOrder([("B", 1)] + shifted)


# ---------------------------------------------------------------------------
# Balanced complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalancedComplex:
    """A colored simplicial complex stored by its maximal faces.

    Vertices are (color, index) pairs, colors 1..len(color_sizes). Every face
    has at most one vertex per color, which makes the complex balanced by
    construction. ``facets`` must be an antichain; the other faces are
    derived on first use (``all_faces``) and cached on the instance. The
    complex is *pure* when all maximal faces use every color; operations
    that require purity check it explicitly.
    """

    color_sizes: tuple[int, ...]
    facets: frozenset[Face]

    def __post_init__(self):
        object.__setattr__(self, "color_sizes", tuple(self.color_sizes))
        object.__setattr__(self, "facets", frozenset(frozenset(f) for f in self.facets))
        if not self.facets:
            raise InputError("a complex needs at least one (possibly empty) face")
        for f in self.facets:
            colors = [c for c, _ in f]
            if len(set(colors)) != len(colors):
                raise InputError("a face may use each color at most once")
            for c, i in f:
                if not (1 <= c <= len(self.color_sizes)):
                    raise InputError(f"color {c} out of range")
                if not (1 <= i <= self.color_sizes[c - 1]):
                    raise InputError(f"vertex ({c},{i}) out of range")
        for f, h in itertools.combinations(self.facets, 2):
            if f <= h or h <= f:
                raise InputError("maximal faces must form an antichain")

    @cached_property
    def _all_faces(self) -> frozenset[Face]:
        out: set[Face] = set()
        for f in self.facets:
            fl = sorted(f)
            for r in range(len(fl) + 1):
                out.update(frozenset(c) for c in itertools.combinations(fl, r))
        return frozenset(out)

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def n_colors(self) -> int:
        return len(self.color_sizes)

    def is_pure(self) -> bool:
        """All maximal faces colorful: one vertex of every color."""
        return all(len(f) == self.n_colors for f in self.facets)

    def sorted_facets(self) -> list[tuple[ColoredVertex, ...]]:
        return sorted(tuple(sorted(f)) for f in self.facets)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "color_sizes": list(self.color_sizes),
            "facets": [[list(v) for v in f] for f in self.sorted_facets()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BalancedComplex":
        try:
            facets = frozenset(
                frozenset((int(c), int(i)) for c, i in f) for f in data["facets"]
            )
            k = cls(tuple(int(s) for s in data["color_sizes"]), facets)
        except InputError:
            raise
        except Exception as exc:
            raise InputError(f"malformed complex JSON: {exc}") from exc
        if "dim" in data and int(data["dim"]) != k.dim:
            raise InputError("declared dim does not match facets")
        return k

    @classmethod
    def from_maximal_candidates(
        cls, color_sizes: Sequence[int], faces: Iterable[Face]
    ) -> "BalancedComplex":
        """Build a complex from faces that may not form an antichain."""
        pool = [frozenset(f) for f in faces]
        maximal = [f for f in pool if not any(f < h for h in pool)]
        return cls(tuple(color_sizes), frozenset(maximal))


def all_faces(k: BalancedComplex) -> frozenset[Face]:
    """Downward closure of the maximal faces, including the empty face.

    Computed once per complex and kept on the instance, so it goes away with
    the complex.
    """
    return k._all_faces


def is_face(k: BalancedComplex, sigma: Iterable[ColoredVertex]) -> bool:
    sigma = frozenset(sigma)
    return any(sigma <= f for f in k.facets)


def f_vector(k: BalancedComplex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_dim); f_-1 = 1 counts the empty face."""
    counts = [0] * (k.dim + 2)
    for f in all_faces(k):
        counts[len(f)] += 1
    return tuple(counts)


def faces_with_colorset(k: BalancedComplex, colors: Iterable[int]) -> set[Face]:
    """All faces whose color support is exactly the given color set.

    Each maximal face contributes at most one such restriction (one vertex per
    color), so this runs over facets without materializing the closure.
    """
    t = frozenset(colors)
    out = set()
    for f in k.facets:
        if t <= {c for c, _ in f}:
            out.add(frozenset((c, i) for c, i in f if c in t))
    return out


def ridges(k: BalancedComplex) -> set[Face]:
    """Codimension-1 faces of a pure complex."""
    if not k.is_pure():
        raise InputError("ridges are defined here for pure complexes only")
    out = set()
    for f in k.facets:
        for v in f:
            out.add(f - {v})
    return out


def antistar(k: BalancedComplex, sigma: Iterable[ColoredVertex]) -> BalancedComplex:
    """Subcomplex of faces not containing sigma."""
    sigma = frozenset(sigma)
    if not is_face(k, sigma):
        raise InputError("antistar of a non-face")
    keep = [f for f in all_faces(k) if not sigma <= f]
    return BalancedComplex.from_maximal_candidates(k.color_sizes, keep)


def link(k: BalancedComplex, sigma: Iterable[ColoredVertex]) -> BalancedComplex:
    """Faces disjoint from sigma whose union with sigma is a face.

    The palette is kept; sigma's colors simply go unused in the link.
    """
    sigma = frozenset(sigma)
    if not is_face(k, sigma):
        raise InputError("link of a non-face")
    duals = [f - sigma for f in k.facets if sigma <= f]
    return BalancedComplex.from_maximal_candidates(k.color_sizes, duals)


def join_complexes(k1: BalancedComplex, k2: BalancedComplex) -> BalancedComplex:
    """Join K * L; k2's colors are shifted above k1's to keep palettes disjoint."""
    shift = k1.n_colors
    facets = frozenset(
        f1 | frozenset((c + shift, i) for c, i in f2)
        for f1 in k1.facets
        for f2 in k2.facets
    )
    return BalancedComplex(k1.color_sizes + k2.color_sizes, facets)


def graph_to_complex(g: BipartiteGraph) -> BalancedComplex:
    """The graph as a balanced 1-complex: side A is color 1, side B color 2."""
    faces = [frozenset({(1, i), (2, j)}) for i, j in g.edges]
    faces += [
        frozenset({(1, i)})
        for i in range(1, g.a_size + 1)
        if not g.neighbors(("A", i))
    ]
    faces += [
        frozenset({(2, j)})
        for j in range(1, g.b_size + 1)
        if not g.neighbors(("B", j))
    ]
    if not faces:
        faces = [frozenset()]
    return BalancedComplex((g.a_size, g.b_size), frozenset(faces))


def complex_to_graph(k: BalancedComplex) -> BipartiteGraph:
    """Inverse of graph_to_complex for 1-dimensional 2-colored complexes."""
    if k.n_colors != 2 or k.dim > 1:
        raise InputError("complex_to_graph needs a 1-dimensional 2-colored complex")
    edges = frozenset((dict(f)[1], dict(f)[2]) for f in k.facets if len(f) == 2)
    return BipartiteGraph(k.color_sizes[0], k.color_sizes[1], edges)


class FacetRidgeGraph(NamedTuple):
    graph: BipartiteGraph
    facet_of: dict[Vertex, Face]
    vertex_of: dict[Face, Vertex]


def facet_ridge_graph(k: BalancedComplex) -> FacetRidgeGraph:
    """Graph on the facets of a pure complex, adjacent when sharing a ridge.

    Requires every ridge to lie in at most two facets and the adjacency graph
    to be 2-colorable. The side assignment is deterministic: in each connected
    component the lexicographically least facet goes to side A, and within a
    side facets are numbered in lexicographic order.
    """
    if not k.is_pure():
        raise InputError("facet-ridge graph needs a pure complex")
    facets = k.sorted_facets()
    by_ridge: dict[Face, list[int]] = {}
    for fi, f in enumerate(facets):
        fset = frozenset(f)
        for v in f:
            by_ridge.setdefault(fset - {v}, []).append(fi)
    adj: dict[int, set[int]] = {fi: set() for fi in range(len(facets))}
    for ridge, members in by_ridge.items():
        if len(members) > 2:
            raise InputError(
                f"ridge {sorted(ridge)} lies in {len(members)} facets; "
                "the facet-ridge graph needs at most two"
            )
        if len(members) == 2:
            a, b = members
            adj[a].add(b)
            adj[b].add(a)
    side: dict[int, str] = {}
    for start in range(len(facets)):
        if start in side:
            continue
        side[start] = "A"
        queue = [start]
        while queue:
            cur = queue.pop(0)
            for nb in sorted(adj[cur]):
                want = "B" if side[cur] == "A" else "A"
                if nb not in side:
                    side[nb] = want
                    queue.append(nb)
                elif side[nb] != want:
                    raise InputError(
                        "facet adjacency contains an odd cycle; "
                        "cannot 2-color the facet-ridge graph"
                    )
    a_facets = [fi for fi in range(len(facets)) if side[fi] == "A"]
    b_facets = [fi for fi in range(len(facets)) if side[fi] == "B"]
    vertex_of: dict[Face, Vertex] = {
        frozenset(facets[fi]): ("A", n) for n, fi in enumerate(a_facets, 1)
    }
    vertex_of.update(
        {frozenset(facets[fi]): ("B", n) for n, fi in enumerate(b_facets, 1)}
    )
    edges = set()
    for fi, nbs in adj.items():
        va = vertex_of[frozenset(facets[fi])]
        if va[0] != "A":
            continue
        for nb in nbs:
            vb = vertex_of[frozenset(facets[nb])]
            edges.add((va[1], vb[1]))
    graph = BipartiteGraph(len(a_facets), len(b_facets), frozenset(edges))
    facet_of = {v: f for f, v in vertex_of.items()}
    return FacetRidgeGraph(graph, facet_of, vertex_of)


def subdivide_star(
    k: BalancedComplex,
    sigma: Iterable[ColoredVertex],
    s: BalancedComplex,
    x: Iterable[ColoredVertex],
) -> BalancedComplex:
    """Replace the star of sigma by S joined with the link of sigma.

    S must be pure of the same dimension as sigma, on exactly sigma's colors,
    with x a missing facet of S. x's vertices are identified color-by-color
    with sigma's; the other S-vertices become new vertices appended to the
    palette. The result is antistar(sigma) united with (S * link(sigma)).
    """
    sigma = frozenset(sigma)
    x = frozenset(x)
    if len(sigma) < 2:
        raise InputError("subdivide_star needs a non-vertex face")
    if not is_face(k, sigma):
        raise InputError("sigma is not a face")
    sigma_colors = {c for c, _ in sigma}
    if s.n_colors != k.n_colors:
        raise InputError("S must be given on the same palette length as K")
    if any(len(f) != len(sigma) for f in s.facets):
        raise InputError("S must be pure of the same dimension as sigma")
    s_colors = {c for f in s.facets for c, _ in f}
    if s_colors != sigma_colors or {c for c, _ in x} != sigma_colors:
        raise InputError("S and x must use exactly sigma's colors")
    if is_face(s, x):
        raise InputError("x must be missing from S")
    for v in x:
        if not is_face(s, x - {v}):
            raise InputError("x must be a missing facet: every proper subset a face")

    sigma_by_color = dict(sigma)
    new_sizes = list(k.color_sizes)
    vmap: dict[ColoredVertex, ColoredVertex] = {}
    for c, i in sorted(x):
        vmap[(c, i)] = (c, sigma_by_color[c])
    for c, i in sorted({v for f in s.facets for v in f}):
        if (c, i) not in vmap:
            new_sizes[c - 1] += 1
            vmap[(c, i)] = (c, new_sizes[c - 1])

    anti_faces = [f for f in all_faces(k) if not sigma <= f]
    lk = [f - sigma for f in k.facets if sigma <= f]
    glued = [frozenset(vmap[v] for v in sf) | lf for sf in s.facets for lf in lk]
    result = BalancedComplex.from_maximal_candidates(
        tuple(new_sizes), anti_faces + glued
    )
    top = k.dim + 1
    f_top_anti = sum(1 for f in anti_faces if len(f) == top)
    got = sum(1 for f in result.facets if len(f) == top)
    if got != f_top_anti + len(s.facets) * len(lk):
        raise InvariantError("top-face bookkeeping violated in subdivide_star")
    return result
