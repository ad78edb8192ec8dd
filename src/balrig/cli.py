"""Command-line front end.

Subcommands map one-to-one onto library calls: ``shift`` and ``analyze`` /
``laman`` / ``mcheck`` run the core computations on JSON graphs or complexes,
``generate`` emits the example families, and ``selftest`` runs the full
acceptance suite and prints a property -> pass/fail table.

Output is canonical JSON (sorted keys, sorted edge and facet lists), so a
fixed (input, seed, prime, trials) quadruple reproduces identical bytes.
Errors surface as structured objects with distinct exit codes: 2 usage,
3 input, 4 size cap, 5 trial disagreement (the error object then lists the
disagreeing per-trial verdicts under ``verdicts``), 6 failed certification
invariant. The environment variable BALRIG_SEED overrides the seed flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinat import BalancedComplex, BipartiteGraph, VertexOrder
from .errors import BalrigError, InputError, TrialDisagreementError
from .exactla import DEFAULT_PRIME, TrialPolicy
from . import families as fam
from .rigidity import analyze, laman_check, rows_independent_M
from .selftest import run_selftest
from .shifting import shift_complex, shift_graph


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_graph(path: str) -> BipartiteGraph:
    return BipartiteGraph.from_json_dict(_load_json(path))


def _load_complex(path: str) -> BalancedComplex:
    return BalancedComplex.from_json_dict(_load_json(path))


def _parse_graph_order(spec: str, g: BipartiteGraph) -> VertexOrder:
    """Explicit order tokens look like A1,B1,A2,...; sides must be covered."""
    seq = []
    for token in spec.split(","):
        token = token.strip()
        if len(token) < 2 or token[0] not in "AB" or not token[1:].isdigit():
            raise InputError(f"bad order token {token!r}; expected like A1 or B2")
        seq.append((token[0], int(token[1:])))
    order = VertexOrder(seq)
    if not order.covers_graph(g):
        raise InputError("order does not list every vertex exactly once")
    return order


def _parse_complex_order(spec: str, k: BalancedComplex) -> VertexOrder:
    """Explicit order tokens look like 1.1,2.1,... as color.index pairs."""
    seq = []
    for token in spec.split(","):
        token = token.strip()
        try:
            color, idx = token.split(".")
            seq.append((int(color), int(idx)))
        except ValueError as exc:
            raise InputError(f"bad order token {token!r}; expected color.index") from exc
    return VertexOrder(seq)


def _jsonable(verdict):
    """A trial verdict as JSON data: sets become sorted lists, tuples lists."""
    if isinstance(verdict, (set, frozenset)):
        return sorted(_jsonable(v) for v in verdict)
    if isinstance(verdict, (list, tuple)):
        return [_jsonable(v) for v in verdict]
    return verdict


def _effective_seed(args) -> int:
    env = os.environ.get("BALRIG_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError as exc:
        raise InputError("BALRIG_SEED must be an integer") from exc


def _policy(args) -> TrialPolicy:
    return TrialPolicy(trials=args.trials, prime=args.prime, seed=_effective_seed(args))


def _emit(args, data: dict, table_lines: list[str]) -> None:
    if args.format == "table":
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(_dumps(data))


def _cmd_shift(args) -> int:
    policy = _policy(args)
    if args.graph:
        g = _load_graph(args.graph)
        order = None
        if args.order != "default-admissible":
            order = _parse_graph_order(args.order, g)
        res = shift_graph(g, order, policy)
        data = res.graph.to_json_dict()
        data["meta"] = res.meta.to_json_dict()
        _emit(args, data, [f"shifted edges: {res.graph.edge_list()}"])
    else:
        kx = _load_complex(args.complex)
        order = None
        if args.order != "default-admissible":
            order = _parse_complex_order(args.order, kx)
        res = shift_complex(kx, order, policy)
        data = res.complex.to_json_dict()
        data["meta"] = res.meta.to_json_dict()
        _emit(args, data, [f"shifted facets: {res.complex.sorted_facets()}"])
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    rep = analyze(g, args.k, args.l, _policy(args))
    data = rep.to_json_dict()
    lines = [f"{key}: {data[key]}" for key in sorted(data)]
    _emit(args, data, lines)
    return 0


def _cmd_laman(args) -> int:
    g = _load_graph(args.graph)
    rep = laman_check(g, args.k, args.l)
    data = rep.to_json_dict()
    lines = [f"{key}: {data[key]}" for key in sorted(data)]
    _emit(args, data, lines)
    return 0


def _cmd_mcheck(args) -> int:
    kx = _load_complex(args.complex)
    rep = rows_independent_M(kx, args.l, _policy(args))
    data = rep.to_json_dict()
    lines = [f"{key}: {data[key]}" for key in sorted(data)]
    _emit(args, data, lines)
    return 0


def _cmd_generate(args) -> int:
    name = args.family
    seed = _effective_seed(args)
    if name == "complete":
        out = fam.complete_bipartite(args.n, args.m)
    elif name == "cycle":
        out = fam.cycle(args.n)
    elif name == "tree":
        out = fam.random_tree(args.n, args.m, seed)
    elif name == "cube":
        out = fam.cube_graph(args.d)
    elif name == "stacked-cubical":
        if args.augment:
            out = fam.stacked_cubical_augmented(args.d, args.t, seed)
        else:
            out = fam.stacked_cubical_graph(args.d, args.t, seed).graph
    elif name == "laman-cube":
        out = fam.laman_augmented_cube(args.d)
    elif name == "double-banana":
        out = fam.double_banana()
    elif name == "fan":
        out = fam.fan_quadrangulation(args.n)
    elif name == "quadrangulation":
        out = fam.random_quadrangulation(args.faces, seed)
    elif name == "cross-polytope":
        out = fam.cross_polytope_boundary(args.d)
    elif name == "glued-cross-polytopes":
        out = fam.glued_cross_polytopes(args.d).complex
    elif name == "gamma":
        sizes = [int(s) for s in args.sizes.split(",")]
        out = fam.gamma_complex(args.d, sizes)
    elif name == "van-kampen":
        out = fam.van_kampen_complex(args.l, args.d)
    else:
        raise InputError(f"unknown family {name!r}")
    sys.stdout.write(_dumps(out.to_json_dict()))
    return 0


def _cmd_selftest(args) -> int:
    names = args.only.split(",") if args.only else None
    results = run_selftest(names)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}\n")
        failures += not r.passed
    sys.stdout.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balrig",
        description="Balanced shifting and bipartite rigidity over a prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_kl=False, needs_graph=True, needs_complex=False):
        if needs_graph and needs_complex:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--graph", help="graph JSON path ('-' for stdin)")
            grp.add_argument("--complex", help="complex JSON path ('-' for stdin)")
        elif needs_graph:
            p.add_argument("--graph", required=True, help="graph JSON path")
        else:
            p.add_argument("--complex", required=True, help="complex JSON path")
        if needs_kl:
            p.add_argument("-k", type=int, required=True)
            p.add_argument("-l", type=int, required=True)
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--trials", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("shift", help="balanced shifting of a graph or complex")
    common(p, needs_graph=True, needs_complex=True)
    p.add_argument(
        "--order",
        default="default-admissible",
        help="default-admissible, or explicit tokens A1,B1,... (graphs) "
        "or 1.1,2.1,... (complexes)",
    )
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("analyze", help="rigidity / stress-freeness report")
    common(p, needs_kl=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("laman", help="hereditary sparsity count check")
    common(p, needs_kl=True)
    p.set_defaults(func=_cmd_laman)

    p = sub.add_parser("mcheck", help="facet-ridge matrix row independence")
    common(p, needs_graph=False, needs_complex=True)
    p.add_argument("-l", type=int, required=True)
    p.set_defaults(func=_cmd_mcheck)

    p = sub.add_parser("generate", help="emit an example family as JSON")
    p.add_argument(
        "family",
        choices=[
            "complete",
            "cycle",
            "tree",
            "cube",
            "stacked-cubical",
            "laman-cube",
            "double-banana",
            "fan",
            "quadrangulation",
            "cross-polytope",
            "glued-cross-polytopes",
            "gamma",
            "van-kampen",
        ],
    )
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--faces", type=int, default=8)
    p.add_argument("--sizes", default="3,3,3,3", help="comma list, one per color")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", action="store_true", help="stacked-cubical only")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of check names")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BalrigError as exc:
        error = {"code": exc.exit_code, "kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, TrialDisagreementError) and exc.verdicts is not None:
            error["verdicts"] = [_jsonable(v) for v in exc.verdicts]
        sys.stdout.write(_dumps({"error": error}))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
