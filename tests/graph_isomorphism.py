"""Brute-force graph isomorphism, for tests that compare generated graphs."""

import itertools

from balrig.combinat import BipartiteGraph, swap_sides
from balrig.errors import SizeCapError


def are_isomorphic(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Brute-force isomorphism test for graphs with at most 10 per side.

    Tries all side-preserving bijections, and the side-swapped ones when the
    side sizes allow it.
    """
    if max(g1.a_size, g1.b_size, g2.a_size, g2.b_size) > 10:
        raise SizeCapError("isomorphism brute force capped at 10 vertices per side")
    candidates = []
    if g1.a_size == g2.a_size and g1.b_size == g2.b_size:
        candidates.append(g2)
    if g1.a_size == g2.b_size and g1.b_size == g2.a_size:
        candidates.append(swap_sides(g2))
    for h in candidates:
        if g1.n_edges != h.n_edges:
            continue
        a_range = range(1, g1.a_size + 1)
        b_range = range(1, g1.b_size + 1)
        for aperm in itertools.permutations(a_range):
            amap = {i: aperm[i - 1] for i in a_range}
            for bperm in itertools.permutations(b_range):
                bmap = {j: bperm[j - 1] for j in b_range}
                if all((amap[i], bmap[j]) in h.edges for i, j in g1.edges):
                    return True
    return False
