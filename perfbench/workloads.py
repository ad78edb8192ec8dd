"""The three workloads: seeded inputs, the public calls, and their gates.

A workload is a few input sets, each a list of ``Call``s that makes one
round. The harness runs rounds in a closed loop, cycling through the sets,
and gives every call of every round its own trial-policy seed, so a set that
comes round again gets fresh random draws.

Every gate rests on facts that do not depend on the random draw:

* sphere quadrangulations are (2,2)-rigid and stress-free (rank = E), and
  trees are (1,1)-rigid and stress-free; adding slots keeps rows
  independent, so both stay stress-free with k or l above a side size;
* on a (k,l)-admissible order, (k+1,l+1) is missing from the shifted graph
  exactly when the graph is (k,l)-stress-free, and every pair (i,j) with
  i <= k or j <= l is present exactly when it is (k,l)-rigid;
* stress_space(g).dim = E - analyze(g).rank for the same (k,l);
* K_{n,n} is a shifting fixpoint, with rank ln + kn - kl;
* the facet-ridge matrix M(K,2) has independent rows exactly when the
  shifted complex avoids the join of three points per color;
* shifting keeps the edge count or f-vector and lands in the shifted class.

A gate also asks each call to repeat the verdict it gave the first time its
set ran.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("sparse-graphs", "dense-graphs", "complexes-cli")


@dataclass
class Call:
    """One timed public call and the gate on its verdict.

    ``invoke(policy_seed)`` makes the call and returns its raw result;
    ``verdict(raw)`` reduces that to a comparable value outside the timed
    region; ``gate(verdict, earlier)`` returns an error message or None, where
    ``earlier`` maps the ``key`` of earlier calls in the round to their
    verdicts.
    """

    kind: str
    label: str
    invoke: Callable[[int], Any]
    verdict: Callable[[Any], Any]
    gate: Callable[[Any, dict], str | None]
    key: str | None = None
    bytes_in: int = 0


# ---------------------------------------------------------------------------
# Draw-independent facts used by the gates
# ---------------------------------------------------------------------------


def _is_shifted_edges(edges) -> bool:
    return all((p, q) in edges for i, j in edges for p in range(1, i + 1) for q in range(1, j + 1))


def _shift_predicates(edges, n, m, k, l) -> tuple[bool, bool]:
    """(stress-free, rigid) read off a graph shifted on a (k,l)-admissible order."""
    stress_free = k + 1 > n or l + 1 > m or (k + 1, l + 1) not in edges
    rigid = all((i, j) in edges for i in range(1, n + 1) for j in range(1, m + 1) if i <= k or j <= l)
    return stress_free, rigid


def _closure(facets) -> set:
    faces = set()
    for f in facets:
        fl = sorted(f)
        for r in range(len(fl) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(fl, r))
    return faces


def _f_vector(facets) -> tuple[int, ...]:
    faces = _closure(facets)
    counts = [0] * (max(len(f) for f in faces) + 1)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def _is_shifted_faces(facets) -> bool:
    faces = _closure(facets)
    return all(
        (f - {(c, i)}) | {(c, smaller)} in faces
        for f in faces
        for c, i in f
        for smaller in range(1, i)
    )


# ---------------------------------------------------------------------------
# Calls into the library; names are looked up at call time so that tracing
# wrappers installed on the modules are seen
# ---------------------------------------------------------------------------


def _report(rep) -> tuple:
    return (rep.rank, rep.max_rank, rep.is_rigid, rep.is_stress_free, bool(rep.warnings))


def _analyze_call(bal, g, k, l, label, gate, key=None) -> Call:
    return Call(
        kind="analyze",
        label=f"{label} ({k},{l})",
        invoke=lambda seed: bal.analyze(g, k, l, bal.TrialPolicy(seed=seed)),
        verdict=_report,
        gate=gate,
        key=key,
    )


def _stress_call(bal, g, k, l, label, gate) -> Call:
    return Call(
        kind="stress_space",
        label=f"{label} ({k},{l})",
        invoke=lambda seed: bal.stress_space(g, k, l, bal.TrialPolicy(seed=seed)),
        verdict=lambda basis: basis.dim,
        gate=gate,
    )


def _shift_call(bal, g, order, label, gate, key=None) -> Call:
    return Call(
        kind="shift_graph",
        label=label,
        invoke=lambda seed: bal.shift_graph(g, order, bal.TrialPolicy(seed=seed)),
        verdict=lambda res: res.graph.edges,
        gate=gate,
        key=key,
    )


def _cli_call(bal, argv, label, gate, key, bytes_in) -> Call:
    def invoke(seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bal.cli.main(argv + ["--seed", str(seed)])
        return code, out.getvalue()

    def verdict(raw):
        code, text = raw
        data = json.loads(text)
        data.pop("meta", None)
        for field in ("prime", "seed", "trials", "escalated", "failure_bound"):
            data.pop(field, None)
        return code, json.dumps(data, sort_keys=True)

    return Call(
        kind=f"cli.{argv[0]}",
        label=label,
        invoke=invoke,
        verdict=verdict,
        gate=gate,
        key=key,
        bytes_in=bytes_in,
    )


# ---------------------------------------------------------------------------
# sparse-graphs
# ---------------------------------------------------------------------------


def _sparse_graphs(bal, rng, tiny) -> list[Call]:
    fam = bal.families
    analyze_faces = [6, 8] if tiny else [16 + i * 48 // 39 for i in range(40)]
    shift_faces = [6] if tiny else [8 + i // 2 for i in range(18)]
    # sizes follow fixed schedules and only the shapes are random, so that
    # seeds differ in structure rather than in the amount of work
    tree_sides = [(3, 4)] if tiny else [(4 + i, 33 - i) for i in range(30)]
    # (A side, B side, k, l) with k above the A side
    warn_cases = [(2, 3, 10, 2)] if tiny else [
        (2 + i % 4, 2 + (i + 1) % 4, 10 + i, 1 + i % 3) for i in range(12)
    ]
    calls = []

    def tight(e):
        def gate(v, _earlier):
            rank, top, rigid, free, _warn = v
            if not (rank == e == top and rigid and free):
                return f"expected rigid and stress-free with rank {e}, got {v}"
        return gate

    for nf in analyze_faces:
        q = fam.random_quadrangulation(nf, seed=rng.randrange(1 << 30))
        calls.append(_analyze_call(bal, q, 2, 2, f"quadrangulation N={nf}", tight(q.n_edges)))
    for n, m in tree_sides:
        t = fam.random_tree(n, m, seed=rng.randrange(1 << 30))
        calls.append(_analyze_call(bal, t, 1, 1, f"tree {n}+{m}", tight(t.n_edges)))
    for n, m, k, l in warn_cases:
        t = fam.random_tree(n, m, seed=rng.randrange(1 << 30))

        def warned(v, _earlier, e=t.n_edges):
            rank, _top, _rigid, free, warn = v
            if not (rank == e and free and warn):
                return f"expected stress-free rank {e} with a warning, got {v}"

        calls.append(_analyze_call(bal, t, k, l, f"tree {n}+{m} above a side", warned))
    for nf in shift_faces:
        q = fam.random_quadrangulation(nf, seed=rng.randrange(1 << 30))

        def shifted(edges, _earlier, q=q):
            if len(edges) != q.n_edges or not _is_shifted_edges(edges):
                return "shifted graph lost edges or is not shifted"
            # the default interleaved order is (2,2)-admissible
            if _shift_predicates(edges, q.a_size, q.b_size, 2, 2) != (True, True):
                return "shifted quadrangulation does not read as (2,2)-tight"

        calls.append(_shift_call(bal, q, None, f"quadrangulation N={nf}", shifted))
    return calls


# ---------------------------------------------------------------------------
# dense-graphs
# ---------------------------------------------------------------------------

_DENSE_KL = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]


def _half_density(bal, rng, n, m):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    return bal.BipartiteGraph(n, m, frozenset(rng.sample(pairs, len(pairs) // 2)))


def _dense_group(bal, idx, g, kl) -> list[Call]:
    """Default and admissible shifts, analyze and stress_space on one graph."""
    k, l = kl
    n, m, e = g.a_size, g.b_size, g.n_edges
    label = f"random {n}x{m} E={e}"
    order = bal.VertexOrder.admissible_graph(n, m, k, l)
    interleaved_ok = bal.VertexOrder.interleaved_graph(n, m).is_admissible(k, l)
    dkey, akey, rkey = f"{idx}:default", f"{idx}:admissible", f"{idx}:analyze"

    def shifted(edges, _earlier):
        if len(edges) != e or not _is_shifted_edges(edges):
            return "shifted graph lost edges or is not shifted"

    def agrees(v, earlier):
        rank, top, rigid, free, _warn = v
        want = _shift_predicates(earlier[akey], n, m, k, l)
        if (free, rigid) != want:
            return f"analyze (stress-free, rigid) {(free, rigid)} vs shifted {want}"
        if interleaved_ok and _shift_predicates(earlier[dkey], n, m, k, l) != want:
            return "default-order shift disagrees with the admissible-order shift"
        if not (rank <= min(e, top) and free == (rank == e) and rigid == (rank == top)):
            return f"inconsistent report {v}"

    def stress_dim(dim, earlier):
        if dim != e - earlier[rkey][0]:
            return f"stress dimension {dim} != E - rank = {e - earlier[rkey][0]}"

    return [
        _shift_call(bal, g, None, f"{label} default order", shifted, key=dkey),
        _shift_call(bal, g, order, f"{label} ({k},{l})-admissible", shifted, key=akey),
        _analyze_call(bal, g, k, l, label, agrees, key=rkey),
        _stress_call(bal, g, k, l, label, stress_dim),
    ]


def _complete_group(bal, n, kl) -> list[Call]:
    k, l = kl
    g = bal.families.complete_bipartite(n, n)
    label = f"K_{n},{n}"

    def fixpoint(edges, _earlier):
        if edges != g.edges:
            return "complete bipartite graph is not a shifting fixpoint"

    def rank_law(v, _earlier):
        want = l * n + k * n - k * l
        if not (v[0] == want and v[2]):
            return f"rank {v[0]} != {want} or not rigid"

    def stresses(dim, _earlier):
        if dim != (n - k) * (n - l):
            return f"stress dimension {dim} != {(n - k) * (n - l)}"

    return [
        _shift_call(bal, g, None, label, fixpoint),
        _analyze_call(bal, g, k, l, label, rank_law),
        _stress_call(bal, g, k, l, label, stresses),
    ]


def _dense_graphs(bal, rng, tiny) -> list[Call]:
    # fixed side and (k,l) schedules; the edge sets are random
    sides = [(4, 5)] if tiny else [(6 + i % 6, 6 + (5 * i + 3) % 6) for i in range(20)]
    complete = [(3, (1, 2))] if tiny else [
        (5, (1, 1)), (5, (2, 2)), (6, (2, 1)), (6, (3, 2)), (7, (3, 3)), (7, (4, 2)), (8, (4, 4))
    ]
    calls = []
    for idx, (n, m) in enumerate(sides):
        calls += _dense_group(bal, idx, _half_density(bal, rng, n, m), _DENSE_KL[idx % len(_DENSE_KL)])
    for n, kl in complete:
        calls += _complete_group(bal, n, kl)
    return calls


# ---------------------------------------------------------------------------
# complexes-cli
# ---------------------------------------------------------------------------


def _random_complex(bal, rng, sizes, density=0.45):
    """A random pure complex: a fixed share of the colorful picks as facets."""
    picks = list(itertools.product(*[range(1, s + 1) for s in sizes]))
    chosen = rng.sample(picks, max(1, round(density * len(picks))))
    return bal.BalancedComplex(sizes, frozenset(frozenset(enumerate(p, start=1)) for p in chosen))


def _complex_calls(bal, idx, label, kx, path: Path) -> list[Call]:
    """``shift`` and ``mcheck -l 2`` through the CLI on one complex."""
    path.write_text(json.dumps(kx.to_json_dict(), sort_keys=True))
    size = path.stat().st_size
    skey = f"{idx}:shift"

    def shifted(v, _earlier):
        code, text = v
        if code != 0:
            return f"shift exited {code}: {text[:200]}"
        facets = [frozenset(map(tuple, f)) for f in json.loads(text)["facets"]]
        if _f_vector(facets) != _f_vector(kx.facets) or not _is_shifted_faces(facets):
            return "shifted complex changed the f-vector or is not shifted"

    def join_free(v, earlier):
        code, text = v
        if code != 0:
            return f"mcheck exited {code}: {text[:200]}"
        shifted_kx = bal.BalancedComplex.from_json_dict(json.loads(earlier[skey][1]))
        want = not bal.contains_join(shifted_kx, 3)
        if json.loads(text)["rows_independent"] != want:
            return f"M(K,2) row independence disagrees with join avoidance ({want})"

    return [
        _cli_call(bal, ["shift", "--complex", str(path)], label, shifted, skey, size),
        _cli_call(bal, ["mcheck", "--complex", str(path), "-l", "2"], label, join_free, None, size),
    ]


def _named_complexes(bal, tiny, workdir: Path) -> list[Call]:
    """The family complexes; they are the same in every input set."""
    fam = bal.families
    named = [("cross-polytope d=3", fam.cross_polytope_boundary(3))]
    if not tiny:
        named += [
            ("cross-polytope d=4", fam.cross_polytope_boundary(4)),
            ("cross-polytope d=5", fam.cross_polytope_boundary(5)),
            ("glued cross-polytopes d=3", fam.glued_cross_polytopes(3).complex),
            ("gamma 3,3,3", fam.gamma_complex(2, [3, 3, 3])),
            ("gamma 4,3,3", fam.gamma_complex(2, [4, 3, 3])),
            ("gamma 4,4,3", fam.gamma_complex(2, [4, 4, 3])),
            ("gamma 3,3,3,3", fam.gamma_complex(3, [3, 3, 3, 3])),
        ]
    calls = []
    for idx, (label, kx) in enumerate(named):
        calls += _complex_calls(bal, f"named-{idx}", label, kx, workdir / f"named-{idx}.json")
    return calls


def _random_complexes(bal, rng, tiny, workdir: Path) -> list[Call]:
    # color sizes run through all of {2,3,4}^3, then the first 15 again
    palettes = list(itertools.product((2, 3, 4), repeat=3))
    calls = []
    for idx, sizes in enumerate([(2, 3, 3)] if tiny else (palettes + palettes)[:42]):
        kx = _random_complex(bal, rng, sizes)
        calls += _complex_calls(bal, idx, f"random 2-complex {sizes}", kx, workdir / f"random-{idx}.json")
    return calls


#: Input sets per run. Rounds cycle through them, so that a run's medians
#: average over the shapes of many random inputs, not one draw of them.
INPUT_SETS = 8


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[list[Call]]:
    """The input sets of workload ``name``, each the calls of one round,
    generated from ``seed``. The complexes workload writes its CLI inputs
    under ``workdir``.
    """
    import balrig as bal
    import balrig.cli  # noqa: F401  (attribute access bal.cli below)
    import balrig.families  # noqa: F401

    rng = random.Random(f"{name}:{seed}")
    if name == "complexes-cli":
        named = _named_complexes(bal, tiny, workdir)
    sets = []
    for index in range(2 if tiny else INPUT_SETS):
        if name == "sparse-graphs":
            sets.append(_sparse_graphs(bal, rng, tiny))
        elif name == "dense-graphs":
            sets.append(_dense_graphs(bal, rng, tiny))
        elif name == "complexes-cli":
            setdir = workdir / f"set-{index}"
            setdir.mkdir(exist_ok=True)
            sets.append(named + _random_complexes(bal, rng, tiny, setdir))
        else:
            raise ValueError(f"unknown workload {name!r}")
    return sets
