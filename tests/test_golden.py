"""Outputs that must not change when only the speed of a route does.

The digests were recorded before the rigidity rows were built from drawn
vertex vectors, and every later change that claims the same outputs must
keep them: the sha256 of each stress basis, as JSON, and of the stdout of
the CLI's small-prime, one-trial commands, which take the peel's fallback
and the echelon's degenerate draws. The shift digests were recorded before
already-shifted components were settled without elimination, the prefix
walk's digests before a walk step stopped at its rank cap, the rank
digests of dense graphs before a rank stopped at its layout's bound, the
last three shift digests before a graph's route turned on whether it is
shifted, the graph operations' digest before they shared one
relabelling, the generator digest before the cross-polytope was built
as a van Kampen complex and the laman augmentations shared one mapping to
dense edges, the complement digest before graphs and complexes were
ranked through their complement in the complete join, the stress
digests of the graphs that take that route before their bases were read
off it, and the empty complex's digest before its layout lost a branch of
its own.
"""

import hashlib
import itertools
import json
import random

import pytest

from balrig import families as fam
from balrig.cli import main
from balrig.combinat import (
    BalancedComplex,
    BipartiteGraph,
    VertexOrder,
    cone_left,
    cone_right,
    contract,
    delete_vertex,
    glue,
    induced_subgraph,
)
from balrig.errors import InputError, TrialDisagreementError
from balrig.exactla import DEFAULT_PRIME, TrialPolicy
from balrig.rigidity import analyze, max_rank, rows_independent_M, stress_space
from balrig.shifting import _prefix_trial


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def half_dense_8x9() -> BipartiteGraph:
    rng = random.Random(7)
    pairs = [(i, j) for i in range(1, 9) for j in range(1, 10)]
    return BipartiteGraph(8, 9, frozenset(e for e in pairs if rng.random() < 0.5))


def half_dense_6x6() -> BipartiteGraph:
    """A half-dense graph, not shifted: recorded on the greedy shifting
    trial, it now takes the prefix walk."""
    rng = random.Random(1)
    pairs = [(i, j) for i in range(1, 7) for j in range(1, 7)]
    return BipartiteGraph(6, 6, frozenset(e for e in pairs if rng.random() < 0.5))


def half_dense_10x11() -> BipartiteGraph:
    """Half of the 110 edges of K_{10,11}, rigid at (3,2): its layout's
    rank bound, 47, lies below its 53 core rows."""
    rng = random.Random(11)
    pairs = [(i, j) for i in range(1, 11) for j in range(1, 12)]
    return BipartiteGraph(10, 11, frozenset(rng.sample(pairs, len(pairs) // 2)))


def dense_8x8() -> BipartiteGraph:
    """58 of the 64 edges of K_{8,8}: not shifted, recorded on the greedy
    shifting trial before the route turned on shiftedness; it now takes the
    prefix walk."""
    rng = random.Random(8)
    pairs = [(i, j) for i in range(1, 9) for j in range(1, 9)]
    return BipartiteGraph(8, 8, frozenset(rng.sample(pairs, 58)))


def random_complex_334() -> BalancedComplex:
    """A random pure 3-color complex: 45% of the colorful picks of sizes
    (3, 3, 4) as facets."""
    rng = random.Random(1)
    picks = list(itertools.product(range(1, 4), range(1, 4), range(1, 5)))
    chosen = rng.sample(picks, round(0.45 * len(picks)))
    return BalancedComplex((3, 3, 4), frozenset(frozenset(enumerate(p, start=1)) for p in chosen))


STRESS_CASES = {
    "K_4,4": lambda: (fam.complete_bipartite(4, 4), 2, 2),
    "double banana": lambda: (fam.double_banana(), 1, 2),
    "quad64": lambda: (fam.random_quadrangulation(64, seed=0), 2, 2),
    "half-dense 8x9": lambda: (half_dense_8x9(), 2, 2),
    # graphs that take the complement route
    "K_8,8 at (4,4)": lambda: (fam.complete_bipartite(8, 8), 4, 4),
    "dense 8x8": lambda: (dense_8x8(), 2, 2),
    "K_5,5": lambda: (fam.complete_bipartite(5, 5), 2, 2),
    "half-dense 10x11 at (1,1)": lambda: (half_dense_10x11(), 1, 1),
    "K_3,3 at (4,4)": lambda: (fam.complete_bipartite(3, 3), 4, 4),  # above a side
}

#: The policies by key: the default policy at seeds 0 and 1, and one trial at
#: p = 5, where some quadrangulation blocks pass before one fails, so the
#: peel's fallback and the echelon's inverses both run; one trial at p = 2;
#: and three at p = 3 and seed 123, where the dense 8x8 graph's first round
#: disagrees, and the doubled round agrees on another dimension than the
#: first trial's
POLICIES = {seed: TrialPolicy(seed=seed) for seed in (0, 1)}
POLICIES.update({("p5", seed): TrialPolicy(prime=5, trials=1, seed=seed) for seed in (0, 1)})
POLICIES[("p2", 0)] = TrialPolicy(prime=2, trials=1, seed=0)
POLICIES[("p3", 123)] = TrialPolicy(prime=3, trials=3, seed=123)

#: (case, policy key): (dimension, sha256 of the vectors as JSON)
STRESS_DIGESTS = {
    ("K_4,4", 0): (4, "4a7f68fe0e991e085c3e7ca4d01f9c353555fe0e80ece326b36a3d3306bdf925"),
    ("K_4,4", 1): (4, "5a61e1c1ee161c417c51eca38a70d375c838ade589a2f44cb1598047afc6cee2"),
    ("double banana", 0): (3, "38f1b333a4d401b7303c9330704a894a64dffb4fbd90a58d3f5e8d6ca4c43ed6"),
    ("double banana", 1): (3, "53ca491c3673f1ff31c6922359a0efcb3078c73796036f57d7af92fd8a158003"),
    ("quad64", 0): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("quad64", 1): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("half-dense 8x9", 0): (8, "02de156536cf7f6a90df1b0f7b405e627713d7031744bba8242380c3e9be17e4"),
    ("half-dense 8x9", 1): (8, "0fc1b6b82ea965f4fb71fb3361865b675a77bbad1db772c3632ee0cf90aad93c"),
    ("quad64", ("p5", 0)): (8, "e7bb4686bd664525d29a6ccc0d6377294e77990fd736d2337a238641383e8d0a"),
    ("quad64", ("p5", 1)): (15, "3c17628649c5f6e1eed126e8f870498a35de7e9203bb6bf36a7ab53cdb10fe44"),
    # recorded before a routed graph's basis was read off its complement
    ("K_8,8 at (4,4)", 0): (16, "78455beafe00e63a3d7b718c36abdf78fc00a09cab2f19e5e55220885be4555d"),
    ("K_8,8 at (4,4)", 1): (16, "d7df92fdb589907ea78d607ce1edbb875e5bea3c3bef97733ad1ac7fb4430342"),
    ("dense 8x8", 0): (30, "f24f7c997264eaa574020569f6ab824a26693958cfc1704d9a8e191606bc05c7"),
    ("dense 8x8", ("p3", 123)):
        (30, "59c84e00335a0a84e3ce28d550e6ccc34e65a5e842ce7d0e34ba882280fedee9"),
    ("K_5,5", ("p2", 0)): (9, "d846d530189f731323a9df00b450ae8f0186c2475a88cb76628aba7d351f35e8"),
    ("half-dense 10x11 at (1,1)", 0):
        (35, "78f3983a6b5dd58fd5d8ad3ff80f59eb51ab5b692765881f7989061c697936a3"),
    ("K_3,3 at (4,4)", 0): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}


@pytest.mark.parametrize("case, seed", list(STRESS_DIGESTS))
def test_stress_bases_keep_their_digests(case, seed):
    g, k, l = STRESS_CASES[case]()
    basis = stress_space(g, k, l, POLICIES[seed])
    assert (basis.dim, sha256(json.dumps(basis.vectors))) == STRESS_DIGESTS[(case, seed)]


INPUTS = {
    "quad.json": ["generate", "quadrangulation", "--faces", "16", "--seed", "3"],
    "quad64.json": ["generate", "quadrangulation", "--faces", "64", "--seed", "0"],
    "tree.json": ["generate", "tree", "--n", "6", "--m", "7", "--seed", "2"],
    "banana.json": ["generate", "double-banana"],
    "glued.json": ["generate", "glued-cross-polytopes", "--d", "3"],
    "cp4.json": ["generate", "cross-polytope", "--d", "4"],
    "gamma334.json": ["generate", "gamma", "--d", "2", "--sizes", "3,3,4"],
    "k43.json": ["generate", "complete", "--n", "4", "--m", "3"],
    "k88.json": ["generate", "complete", "--n", "8", "--m", "8"],
    "k29.json": ["generate", "complete", "--n", "2", "--m", "9"],
}

#: inputs no ``generate`` command builds, written from their JSON form
WRITTEN = {
    "random334.json": random_complex_334,
    "half6.json": half_dense_6x6,
    "half8x9.json": half_dense_8x9,
    "half10x11.json": half_dense_10x11,
    "dense8.json": dense_8x8,
    "empty.json": lambda: BalancedComplex((), frozenset({frozenset()})),
}

#: the small-prime, one-trial commands of CI's hash-seed list: sha256 of stdout.
#: At p = 5, 22 blocks of the 64-face quadrangulation pass before the 23rd fails
CLI_DIGESTS = {
    "analyze --graph quad.json -k 2 -l 2 --prime 2 --trials 1":
        "ca1e6f75fabf244851f90cd0e0bf88347a125625d3a8a39165bed415ccb2af2c",
    "analyze --graph banana.json -k 1 -l 2 --prime 2 --trials 1":
        "0bd1286e0cf206de82d63af35d444dae16e9b73fc7b57e5b9c2b643e2ec338cb",
    "analyze --graph tree.json -k 1 -l 1 --prime 2 --trials 1":
        "14b2ccb7073f6c0a3f6e8a190d54521ff56000afd30b632381f8e26a307fdb10",
    "mcheck --complex glued.json -l 2 --prime 2 --trials 1":
        "0e634bc9b1ad072949dc76560aca7e83bfeb72a89a57b114f447048d1e7f05fa",
    "mcheck --complex cp4.json -l 2 --prime 2 --trials 1":
        "e6e35c67d626204a08a27ec4350f30f2f017146f7f133acac55789a0a126e207",
    "analyze --graph quad64.json -k 2 -l 2 --prime 5 --trials 1":
        "0040d6a8d39321dc31c570c80c8879ee0de712183d6cd92459372be2e8740579",
}

#: shift outputs, recorded before already-shifted components were settled
#: without elimination: (exit code, sha256 of stdout). cp4, gamma and K_{4,3}
#: are shifted; the glued complex is not, and its one trial at p = 2 agrees
#: on a non-shifted face set (exit 3); the random complex and the half-dense
#: graph, which now takes the prefix walk, are not shifted either
SHIFT_DIGESTS = {
    "shift --complex cp4.json --prime 2 --trials 1":
        (0, "308fff2320554bde900f902f8bdf1e124ac558f12d09e025e6b30b7c81ab6620"),
    "shift --complex gamma334.json --prime 2 --trials 1":
        (0, "927c1758b1569258bcd207e4c1da4546b02e37440179a3f82c0ccfb34a9de893"),
    "shift --complex glued.json --prime 2 --trials 1":
        (3, "2278b0d63b5284d7acf7b9891baef4fb7032a3e670fc7f7faa9d74e91b104ed2"),
    "shift --complex random334.json --prime 3 --trials 1":
        (0, "1c20c402fb2d707c0ac39bfdb0dd2f0ae705f48e2a1036da8e9b41fecb2cdc1d"),
    "shift --complex random334.json":
        (0, "d62a7716e2d8fdb5692958fa25dae2a04cb79ec73ad0e5af9bb65daf911bdaba"),
    "shift --graph k43.json --prime 2 --trials 1":
        (0, "f44364355261027fecb38fb6b626f47cec01b634542bff77e2584a3c6f315e80"),
    "shift --graph half6.json":
        (0, "6265af3618dc8837a8ee1648a319c97f6bb26d0fd33486bf44f1cf1561cd174d"),
    # on the prefix walk, recorded before its steps stopped at the rank cap
    "shift --graph quad64.json":
        (0, "86a9e8949fbe395a67f0111d4aa4446de00f7b15fbfed345aea796b04e96545d"),
    "shift --graph quad64.json --prime 3 --trials 1":
        (0, "ac35276de060982d7aa22f72d3798f107c2f6ce06152aa42c6623908a545bf57"),
    "shift --graph half8x9.json":
        (0, "65e614cf87d4a3919a28bb57429406a16501df8a90aa2981b2406f14ba6f03e7"),
    "shift --graph half8x9.json --prime 3 --trials 1":
        (0, "0ed060ec4b03aa6e3eb1304055fd7581b4bb27c65ff49fc1b38a541b1b62b2e3"),
    # recorded before the route turned on shiftedness: K_{2,9} took the walk
    # and is now settled; the dense graph took the greedy and now walks
    "shift --graph k29.json":
        (0, "6eda1b9749e18f1c0fb4b8f6a843ff858f5316d01078de7b2140d4145d03a1f4"),
    "shift --graph k29.json --prime 2 --trials 1":
        (0, "55f487d08cd35edcf65d9913699c850c2aafa4667056f9a35bbc9346c24f336b"),
    "shift --graph dense8.json":
        (0, "23df0882c3ec2dd02c3ce1bae95bbf574c552ed3b4e0f2ca3fc44b4f753c1cc6"),
}


#: ranks whose layout's bound lies below their core rows, recorded before a
#: rank stopped at that bound: sha256 of stdout. K_{8,8} at (4,4) has 64
#: rows and rank 48; the half-dense graph's one trial at p = 2 ends below
#: the bound, so every row goes in
RANK_BOUND_DIGESTS = {
    "analyze --graph k88.json -k 4 -l 4":
        "866871119cefcc1a7f3affb2206a03c521f6cce0daacce92304175f0c9f259e3",
    "analyze --graph half10x11.json -k 3 -l 2":
        "626032c62e9da99f628d1bbc1c6257df827080e4fa0ed1b3d3e7271a0dcef0da",
    "analyze --graph half10x11.json -k 3 -l 2 --prime 2 --trials 1":
        "9299bb8b832cc08cc7c5e532a8aa8eb7c45187a227f91c06c7be8d95eee10b3b",
}


#: the complex on no colors, whose one facet is empty and meets no ridge,
#: recorded before its layout lost a branch of its own: sha256 of stdout
EMPTY_COMPLEX_DIGEST = "0e0d4e1ba624a674ea9951d456975468580620e3cc5490557079cb75c09b1b17"


def run_cli(tmp_path, capsys, command) -> tuple[int, str]:
    """The exit code and stdout of ``command``, its ``.json`` arguments read
    from the inputs written under ``tmp_path``."""
    for name, argv in INPUTS.items():
        assert main(argv) == 0
        (tmp_path / name).write_text(capsys.readouterr().out)
    for name, build in WRITTEN.items():
        (tmp_path / name).write_text(json.dumps(build().to_json_dict()))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command.split()]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_small_prime_cli_outputs_keep_their_digests(tmp_path, capsys, command):
    code, out = run_cli(tmp_path, capsys, command)
    assert (code, sha256(out)) == (0, CLI_DIGESTS[command])


@pytest.mark.parametrize("command", list(RANK_BOUND_DIGESTS))
def test_capped_ranks_keep_their_digests(tmp_path, capsys, command):
    code, out = run_cli(tmp_path, capsys, command)
    assert (code, sha256(out)) == (0, RANK_BOUND_DIGESTS[command])


@pytest.mark.parametrize("command", list(SHIFT_DIGESTS))
def test_shift_outputs_keep_their_digests(tmp_path, capsys, command):
    code, out = run_cli(tmp_path, capsys, command)
    assert (code, sha256(out)) == SHIFT_DIGESTS[command]


def test_the_empty_complex_keeps_its_digest(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "mcheck --complex empty.json -l 2")
    assert (code, sha256(out)) == (0, EMPTY_COMPLEX_DIGEST)


#: sha256 of the prefix walk's edge sets, as JSON, over the graphs and orders
#: below, p in (2, 3, 5) and seeds 0-19, recorded before a walk step stopped
#: at its rank cap. Small primes give the degenerate draws a wrong cap would
#: change, and the CLI would hide most of them behind exit 3
WALK_DIGEST = "4baa322822654af150aa6e390c86afafa450b6df5a5bdbfba3ffa8b8c7183280"


def test_prefix_walks_keep_their_digest():
    out = []
    for g in (fam.random_tree(6, 7, 2), fam.random_quadrangulation(16, 3), half_dense_8x9()):
        a_first = [("A", i) for i in range(1, g.a_size + 1)]
        a_first += [("B", j) for j in range(1, g.b_size + 1)]
        for order in (VertexOrder.interleaved_graph(g.a_size, g.b_size), VertexOrder(a_first)):
            walk = _prefix_trial(g, order)
            out.append([[sorted(walk(p, seed)) for seed in range(20)] for p in (2, 3, 5)])
    assert sha256(json.dumps(out)) == WALK_DIGEST


def random_graph(rng: random.Random, low: int = 1, high: int = 7) -> BipartiteGraph:
    n, m = rng.randint(low, high), rng.randint(low, high)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    return BipartiteGraph(n, m, frozenset(e for e in pairs if rng.random() < 0.5))


def transform_json(res) -> list:
    """A transform's graph, vertex maps and, for a contraction, its common
    neighbors, as canonical JSON data."""
    out = []
    for part in res:
        if isinstance(part, BipartiteGraph):
            part = part.to_json_dict()
        elif isinstance(part, dict):
            part = sorted([list(k), list(v)] for k, v in part.items())
        out.append(part)
    return out


#: sha256 of every graph operation's graph, maps and common neighbors, as
#: JSON, over 200 seeded random graphs with sides 1-7: each vertex deletion,
#: each same-side contraction, both cones, one seeded induced subgraph and
#: one seeded gluing per graph. Recorded before the operations shared one
#: relabelling
TRANSFORM_DIGEST = "128409f32301bb3eb7007df9f942af3b13a503c38f8c064e60ec44f7861602fd"


def test_graph_operations_keep_their_digest():
    rng = random.Random(21)
    out = []
    for _ in range(200):
        g = random_graph(rng)
        vs = g.vertices()
        out += [transform_json(delete_vertex(g, v)) for v in vs]
        out += [transform_json(contract(g, u, v)) for u in vs for v in vs if u != v and u[0] == v[0]]
        out += [transform_json(cone_left(g)), transform_json(cone_right(g))]
        a_keep = rng.sample(range(1, g.a_size + 1), rng.randint(0, g.a_size))
        b_keep = rng.sample(range(1, g.b_size + 1), rng.randint(0, g.b_size))
        out.append(transform_json(induced_subgraph(g, a_keep, b_keep)))
        g2 = random_graph(rng)
        ident = {}
        for side in "AB":
            shared = rng.randint(0, min(g.side_size(side), g2.side_size(side)))
            srcs = rng.sample(range(1, g2.side_size(side) + 1), shared)
            dsts = rng.sample(range(1, g.side_size(side) + 1), shared)
            ident.update({(side, s): (side, d) for s, d in zip(srcs, dsts)})
        out.append(transform_json(glue(g, g2, ident)))
    assert sha256(json.dumps(out)) == TRANSFORM_DIGEST


#: ``generate`` for every family at its defaults and at one larger setting
GENERATE_COMMANDS = [
    ["generate", family] for family in (
        "complete", "cycle", "tree", "cube", "stacked-cubical", "laman-cube",
        "double-banana", "fan", "quadrangulation", "cross-polytope",
        "glued-cross-polytopes", "gamma", "van-kampen",
    )
] + [
    "generate complete --n 5 --m 7".split(),
    "generate cycle --n 8".split(),
    "generate tree --n 9 --m 11 --seed 5".split(),
    "generate cube --d 6".split(),
    "generate stacked-cubical --d 4 --t 4 --seed 3 --augment".split(),
    "generate laman-cube --d 7".split(),
    "generate fan --n 7".split(),
    "generate quadrangulation --faces 40 --seed 2".split(),
    "generate cross-polytope --d 6".split(),
    "generate glued-cross-polytopes --d 5".split(),
    "generate gamma --d 3 --sizes 3,4,5,3".split(),
    "generate van-kampen --l 3 --d 3".split(),
]

#: sha256 of the exit code and stdout of each ``generate`` command above, and
#: of ``augment_facet`` in every mode at every facet of the d-cube, d = 3..6,
#: and of a stacked cubical 4-polytope, as JSON. Recorded before the
#: cross-polytope was built as a van Kampen complex and before the laman
#: augmentations shared one mapping to dense edges
GENERATOR_DIGEST = "47a81362a56bdfc6b94c601830614fe632639e12fd81529c88e56e45148a16cd"


def augmentation_json(cg, facet: int, mode: str) -> list | str:
    try:
        aug = fam.augment_facet(cg, facet, mode)
    except InputError as exc:
        return str(exc)
    return [aug.graph.edge_list(), sorted(aug.added)]


def test_generators_keep_their_digest(capsys, monkeypatch):
    monkeypatch.delenv("BALRIG_SEED", raising=False)
    out = []
    for argv in GENERATE_COMMANDS:
        out.append([main(argv), capsys.readouterr().out])
    cubes = [fam.cube_complex(d) for d in range(3, 7)] + [fam.stacked_cubical_graph(4, 3, seed=1)]
    for cg in cubes:
        for facet in range(len(cg.facets)):
            for mode in ("two-vertex", "opposite-facets", "laman"):
                out.append(augmentation_json(cg, facet, mode))
    assert sha256(json.dumps(out)) == GENERATOR_DIGEST


def complement_graphs() -> list:
    """(g, k, l): K_{5,6} at (2,3), K_{8,8} at (4,4), and 22 seeded random
    graphs, sides 1-8, with more edges than their maximal rank."""
    rng = random.Random(23)
    cases = [(fam.complete_bipartite(5, 6), 2, 3), (fam.complete_bipartite(8, 8), 4, 4)]
    while len(cases) < 24:
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        k, l = rng.randint(1, n), rng.randint(1, m)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        density = rng.choice((0.5, 0.7, 0.9, 1.0))
        g = BipartiteGraph(n, m, frozenset(e for e in pairs if rng.random() < density))
        if g.n_edges > max_rank(g, k, l):
            cases.append((g, k, l))
    return cases


def complement_complexes() -> list:
    """(kx, l): the 3- and 4-cross-polytopes at l = 1 and 2, the glued
    3-cross-polytopes at l = 1, and 16 seeded random pure complexes of 2-4
    color classes of 1-4 vertices."""
    rng = random.Random(29)
    cases = [(fam.cross_polytope_boundary(d), l) for d in (3, 4) for l in (1, 2)]
    cases.append((fam.glued_cross_polytopes(3).complex, 1))
    for _ in range(16):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
        picks = list(itertools.product(*[range(1, s + 1) for s in sizes]))
        density = rng.choice((0.3, 0.6, 0.9, 1.0))
        chosen = [p for p in picks if rng.random() < density] or picks[:1]
        kx = BalancedComplex(sizes, frozenset(frozenset(enumerate(p, start=1)) for p in chosen))
        cases.append((kx, rng.randint(1, 3)))
    return cases


def report_json(call) -> dict | list:
    """A report as JSON data, or the verdicts of trials that disagree."""
    try:
        return call().to_json_dict()
    except TrialDisagreementError as exc:
        return ["disagree", list(exc.verdicts)]


def stress_dim_json(g, k, l, policy) -> list:
    try:
        basis = stress_space(g, k, l, policy)
    except TrialDisagreementError as exc:
        return ["disagree", list(exc.verdicts)]
    return [basis.dim, basis.meta.trials, basis.meta.escalated]


#: sha256 of the ``analyze`` reports and ``stress_space`` dimensions of the
#: graphs above and the ``rows_independent_M`` reports of the complexes, as
#: JSON, at p = 2, 3 and the default, one trial at seed 0 and three at seed
#: 1. Recorded before they were ranked through their complement; all 24
#: graphs and 17 of the 21 complexes take that route now
COMPLEMENT_DIGEST = "6122a69f5213facb2cb70e9c9b9bd31bf3ee7129b842c2f65271209e6872b6a9"


def test_complement_route_reports_keep_their_digest():
    policies = [
        TrialPolicy(prime=p, trials=trials, seed=seed)
        for p in (2, 3, DEFAULT_PRIME)
        for trials, seed in ((1, 0), (3, 1))
    ]
    out = []
    for g, k, l in complement_graphs():
        for policy in policies:
            out.append(report_json(lambda: analyze(g, k, l, policy)))
            out.append(stress_dim_json(g, k, l, policy))
    for kx, l in complement_complexes():
        for policy in policies:
            out.append(report_json(lambda: rows_independent_M(kx, l, policy)))
    assert sha256(json.dumps(out)) == COMPLEMENT_DIGEST
