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
import re
import sys
from functools import cache

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
    """The JSON document at ``path`` (``-`` for stdin). Text that is not
    UTF-8, not JSON or nested too deeply to parse is refused as input."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_graph(path: str) -> BipartiteGraph:
    return BipartiteGraph.from_json_dict(_load_json(path))


def _load_complex(path: str) -> BalancedComplex:
    return BalancedComplex.from_json_dict(_load_json(path))


#: An index on the command line: a non-empty run of ASCII digits. ``int``
#: also reads signs, underscores, spaces and other scripts' digits.
_INDEX = "([0-9]+)"


def _read_tokens(spec: str, pattern: str, message: str) -> list[tuple[str, ...]]:
    """The groups of each comma-separated token of ``spec``, stripped, that
    ``pattern`` matches whole; any other token raises ``InputError`` with
    ``message`` formatted for the token and the spec."""
    groups = []
    for token in spec.split(","):
        token = token.strip()
        match = re.fullmatch(pattern, token)
        if match is None:
            raise InputError(message.format(token=token, spec=spec))
        groups.append(match.groups())
    return groups


def _parse_graph_order(spec: str) -> VertexOrder:
    """Explicit order tokens look like A1,B1,A2,...; coverage of the graph
    is ``shift_graph``'s check."""
    message = "bad order token {token!r}; expected like A1 or B2"
    tokens = _read_tokens(spec, "([AB])" + _INDEX, message)
    return VertexOrder((side, int(i)) for side, i in tokens)


def _parse_complex_order(spec: str) -> VertexOrder:
    """Explicit order tokens look like 1.1,2.1,... as color.index pairs."""
    message = "bad order token {token!r}; expected color.index"
    tokens = _read_tokens(spec, _INDEX + r"\." + _INDEX, message)
    return VertexOrder((int(c), int(i)) for c, i in tokens)


def _int(text: str) -> int:
    """An integer option, or ``BALRIG_SEED``: once stripped, an optional
    ``-`` and then an index."""
    if re.fullmatch("-?" + _INDEX, text.strip()) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_sizes(spec: str) -> list[int]:
    message = "bad --sizes {spec!r}; expected integers like 3,3,4"
    return [int(s) for (s,) in _read_tokens(spec, _INDEX, message)]


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
        return _int(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
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
    explicit = args.order != "default-admissible"
    if args.graph:
        g = _load_graph(args.graph)
        order = _parse_graph_order(args.order) if explicit else None
        res = shift_graph(g, order, policy)
        shifted, line = res.graph, f"shifted edges: {res.graph.edge_list()}"
    else:
        kx = _load_complex(args.complex)
        order = _parse_complex_order(args.order) if explicit else None
        res = shift_complex(kx, order, policy)
        shifted, line = res.complex, f"shifted facets: {res.complex.sorted_facets()}"
    data = shifted.to_json_dict()
    data["meta"] = res.meta.to_json_dict()
    _emit(args, data, [line])
    return 0


def _cmd_report(args) -> int:
    data = args.report(args).to_json_dict()
    _emit(args, data, [f"{key}: {data[key]}" for key in sorted(data)])
    return 0


#: Each example family by name, as a builder of (arguments, effective seed).
FAMILIES = {
    "complete": lambda a, seed: fam.complete_bipartite(a.n, a.m),
    "cycle": lambda a, seed: fam.cycle(a.n),
    "tree": lambda a, seed: fam.random_tree(a.n, a.m, seed),
    "cube": lambda a, seed: fam.cube_graph(a.d),
    "stacked-cubical": lambda a, seed: (
        fam.stacked_cubical_augmented(a.d, a.t, seed)
        if a.augment
        else fam.stacked_cubical_graph(a.d, a.t, seed).graph
    ),
    "laman-cube": lambda a, seed: fam.laman_augmented_cube(a.d),
    "double-banana": lambda a, seed: fam.double_banana(),
    "fan": lambda a, seed: fam.fan_quadrangulation(a.n),
    "quadrangulation": lambda a, seed: fam.random_quadrangulation(a.faces, seed),
    "cross-polytope": lambda a, seed: fam.cross_polytope_boundary(a.d),
    "glued-cross-polytopes": lambda a, seed: fam.glued_cross_polytopes(a.d).complex,
    "gamma": lambda a, seed: fam.gamma_complex(a.d, _parse_sizes(a.sizes)),
    "van-kampen": lambda a, seed: fam.van_kampen_complex(a.l, a.d),
}


def _cmd_generate(args) -> int:
    out = FAMILIES[args.family](args, _effective_seed(args))
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


def _verdict_parser(sub, name: str, summary: str, func) -> argparse.ArgumentParser:
    """A subcommand with the trial policy and output format options."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--prime", type=_int, default=DEFAULT_PRIME)
    p.add_argument("--trials", type=_int, default=3)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=func)
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    about 2 ms, a large part of a small verdict call, and parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="balrig",
        description="Balanced shifting and bipartite rigidity over a prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verdict_parser(sub, "shift", "balanced shifting of a graph or complex", _cmd_shift)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="graph JSON path ('-' for stdin)")
    grp.add_argument("--complex", help="complex JSON path ('-' for stdin)")
    p.add_argument(
        "--order",
        default="default-admissible",
        help="default-admissible, or explicit tokens A1,B1,... (graphs) "
        "or 1.1,2.1,... (complexes)",
    )

    inputs = {
        "--graph": dict(required=True, help="graph JSON path"),
        "--complex": dict(required=True, help="complex JSON path"),
        "-k": dict(type=_int, required=True),
        "-l": dict(type=_int, required=True),
    }
    reports = [
        ("analyze", "rigidity / stress-freeness report", ("--graph", "-k", "-l"),
         lambda a: analyze(_load_graph(a.graph), a.k, a.l, _policy(a))),
        ("laman", "hereditary sparsity count check", ("--graph", "-k", "-l"),
         lambda a: laman_check(_load_graph(a.graph), a.k, a.l)),
        ("mcheck", "facet-ridge matrix row independence", ("--complex", "-l"),
         lambda a: rows_independent_M(_load_complex(a.complex), a.l, _policy(a))),
    ]
    for name, summary, flags, report in reports:
        p = _verdict_parser(sub, name, summary, _cmd_report)
        for flag in flags:
            p.add_argument(flag, **inputs[flag])
        p.set_defaults(report=report)

    p = sub.add_parser("generate", help="emit an example family as JSON")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--n", type=_int, default=3)
    p.add_argument("--m", type=_int, default=3)
    p.add_argument("--d", type=_int, default=3)
    p.add_argument("--t", type=_int, default=2)
    p.add_argument("--l", type=_int, default=2)
    p.add_argument("--faces", type=_int, default=8)
    p.add_argument("--sizes", default="3,3,3,3", help="comma list, one per color")
    p.add_argument("--seed", type=_int, default=0)
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
