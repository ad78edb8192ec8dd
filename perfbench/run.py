"""balrig's benchmark: closed-loop verdict workloads and a traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse-graphs --seed 1 --seconds 30 --trace 0

and its smoke test with ``python3 -m pytest perfbench/test_smoke.py``.

One process, one thread, one caller: each verdict call starts only after the
previous one returned and its verdict passed the correctness gate. Calls are
grouped in rounds, one pass over one of the workload's input sets; rounds
repeat until ``--seconds`` have passed, and the round in progress is finished.

``--trace 0`` prints the end-to-end metrics. ``calls_per_s``, ``call_s.p50``
and ``call_s.p90`` are computed per round (at least 100 calls each) and
reported as the median over rounds. ``setup_s`` is the median over several
fresh processes, started between rounds, of the time from process start to
the point where the first call could be timed: importing balrig, generating
the inputs and writing the CLI's JSON files. All times are corrected for host
speed (see ``hostspeed.py``); the metadata line gives them uncorrected, as
wall-clock seconds, under ``wall_clock``.

``--trace 1`` alternates untraced and traced rounds and prints the per-layer
split of the traced rounds, every count per traced verdict call, together
with the traced and untraced call rates. Spans are written to
``.perfbench_out/`` when the run ends.

The last line of standard output is the result object; the line before it
holds the run's metadata. The exit code is 0 only if every call passed its
gate, and 2 when the checkout holds no balrig sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_REFERENCE_PASSES = 9
READY = "perfbench-setup-ready"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _balrig_modules() -> dict:
    import balrig
    import balrig.cli
    import balrig.combinat
    import balrig.exactla
    import balrig.families
    import balrig.rigidity
    import balrig.shifting

    mods = {name: getattr(balrig, name) for name in
            ("cli", "combinat", "exactla", "families", "rigidity", "shifting")}
    mods["balrig"] = balrig
    return mods


def _workdir(tag: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_only(args) -> int:
    """Child process for one set-up sample: set up, report, clean up."""
    workdir = _workdir("setup")
    try:
        _balrig_modules()
        workloads.build(args.workload, args.seed, workdir, args.tiny)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_sample(args) -> tuple[float, float]:
    """Seconds from starting a fresh process until its set-up is done, as
    (host-speed corrected, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    ref_before = _reference(SETUP_REFERENCE_PASSES)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        rest = child.stdout.read()
        code = child.wait()
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code}): {line}{rest}")
    ref_after = _reference(SETUP_REFERENCE_PASSES)
    return (t1 - t0) * hostspeed.NOMINAL_S * 2 / (ref_before + ref_after), t1 - t0


def _reference(passes: int) -> float:
    """Median time of several passes of the host speed reference."""
    return statistics.median(hostspeed.reference_seconds() for _ in range(passes))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs rounds of calls, gates every verdict and keeps the timings."""

    def __init__(self, sets, seed):
        self.sets = sets
        self.seed = seed
        # per untraced round: the host-speed corrected call latencies and the
        # raw ones; per round, by traced or not: corrected calls per second
        self.round_latencies: list[list[float]] = []
        self.round_raw_latencies: list[list[float]] = []
        self.round_rates: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failures: list[str] = []
        self.kinds: Counter = Counter()
        self.first_verdicts: dict[tuple[int, int], object] = {}
        self.traced_calls = 0

    def policy_seed(self, rnd: int, idx: int) -> int:
        return (self.seed * 7919 + rnd) * 1009 + idx

    def run_round(self, rnd: int, tracer: Tracer | None = None) -> None:
        earlier: dict = {}
        latencies, raw_latencies = [], []
        which = rnd % len(self.sets)
        ref_before = hostspeed.reference_seconds()
        for idx, call in enumerate(self.sets[which]):
            seed = self.policy_seed(rnd, idx)
            self.attempted += 1
            self.kinds[call.kind] += 1
            raw, error = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raw = call.invoke(seed)
                else:
                    raw = tracer.run_root(f"{rnd}:{idx}", call.kind, call.invoke, seed)
            except Exception as exc:  # a raising call is a failed call; keep going
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            ref_after = hostspeed.reference_seconds()
            raw_latencies.append(elapsed)
            latencies.append(elapsed * hostspeed.NOMINAL_S * 2 / (ref_before + ref_after))
            ref_before = ref_after
            if tracer is not None:
                self.traced_calls += 1
                if call.kind.startswith("cli.") and raw is not None:
                    tracer.counters["cli.io.bytes_in"] += call.bytes_in
                    tracer.counters["cli.io.bytes_out"] += len(raw[1].encode())
            if error is None:
                error = self._gate(call, raw, (which, idx), earlier)
            if error is not None:
                self.failures.append(
                    f"round {rnd} set {which} call {idx} {call.kind} {call.label}: {error}")
        self.round_rates[tracer is not None].append(len(latencies) / sum(latencies))
        if tracer is None:
            self.round_latencies.append(latencies)
            self.round_raw_latencies.append(raw_latencies)

    def _gate(self, call, raw, where, earlier) -> str | None:
        try:
            verdict = call.verdict(raw)
            if call.key is not None:
                earlier[call.key] = verdict
            if self.first_verdicts.setdefault(where, verdict) != verdict:
                return "verdict differs from the first round's"
            return call.gate(verdict, earlier)
        except Exception as exc:  # a gate that cannot read the output fails the call
            return f"gate raised {type(exc).__name__}: {exc}"

    def verdict_digest(self) -> str:
        canon = [
            (where, sorted(v) if isinstance(v, frozenset) else v)
            for where, v in sorted(self.first_verdicts.items())
        ]
        return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]


def run_loop(loop: Loop, seconds: float, tracer: Tracer | None, between=None) -> None:
    """Rounds until ``seconds`` have passed. With a tracer, every other round
    is traced, starting untraced, and the parity flips after each pass over
    the input sets so that every set runs both ways. ``between()`` runs after
    each round, outside the timed calls."""
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds or (tracer and rnd < 2):
        traced = tracer is not None and (rnd + rnd // len(loop.sets)) % 2 == 1
        if traced:
            tracer.install()
        try:
            loop.run_round(rnd, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if between is not None:
            between()
        rnd += 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _call_metrics(round_latencies) -> tuple[float, float, float]:
    """Calls per second, p50 and p90, each per round, as medians over rounds."""
    rates = [len(lat) / sum(lat) for lat in round_latencies]
    p50 = [statistics.median(lat) for lat in round_latencies]
    p90 = [statistics.quantiles(lat, n=10, method="inclusive")[8] for lat in round_latencies]
    return statistics.median(rates), statistics.median(p50), statistics.median(p90)


def end_to_end(loop: Loop, setup_samples: list[tuple[float, float]]) -> dict:
    """Taking each call metric per round and reporting the median over
    rounds keeps a stretch of host contention from moving it."""
    rate, p50, p90 = _call_metrics(loop.round_latencies)
    return {
        "calls_per_s": _metric(rate, "1/s"),
        "call_s.p50": _metric(p50, "s"),
        "call_s.p90": _metric(p90, "s"),
        "setup_s": _metric(statistics.median(c for c, _ in setup_samples), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def raw_end_to_end(loop: Loop, setup_samples: list[tuple[float, float]]) -> dict:
    """The same timings as wall-clock seconds, without the host correction."""
    rate, p50, p90 = _call_metrics(loop.round_raw_latencies)
    return {
        "calls_per_s": rate,
        "call_s.p50": p50,
        "call_s.p90": p90,
        "setup_s": statistics.median(r for _, r in setup_samples),
    }


def per_layer(loop: Loop, tracer: Tracer) -> dict:
    """Per-layer metrics of the traced rounds; a layer none of whose entry
    points exist reads null."""
    self_s, calls, root_total = tracer.self_times()
    n = loop.traced_calls
    out = {}

    def put(name, value, unit, present=True):
        out[name] = _metric(value if present else None, unit)

    for layer in list(layers.CALL_LAYERS) + ["harness", "tracing"]:
        present = layer in tracer.layers_present or layer in ("harness", "tracing")
        if layer in layers.CALL_LAYERS:
            put(f"{layer}.calls", calls[layer] / n, "count/call", present)
        put(f"{layer}.self_s", self_s[layer] / n, "s/call", present)
        put(f"{layer}.share", self_s[layer] / root_total, "ratio", present)
        for suffix in layers.COUNTERS.get(layer, []):
            put(f"{layer}.{suffix}", tracer.counters[f"{layer}.{suffix}"] / n,
                "B/call" if layer == "cli.io" else "count/call", present)
    for name, num, base in layers.RATIOS:
        layer = name.rsplit(".", 1)[0]
        total = tracer.counters[base]
        put(name, tracer.counters[num] / total if total else None, "ratio",
            layer in tracer.layers_present)
    setup_self, setup_calls, _ = tracer.self_times(setup=True)
    present = "families.generate" in tracer.layers_present
    put("families.generate.calls", setup_calls["families.generate"], "count", present)
    put("families.generate.self_s", setup_self["families.generate"], "s", present)
    untraced = statistics.median(loop.round_rates[False])
    traced = statistics.median(loop.round_rates[True])
    put("tracing.calls_per_s_untraced", untraced, "1/s")
    put("tracing.calls_per_s_traced", traced, "1/s")
    put("tracing.slowdown", untraced / traced, "ratio")
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_stats() -> tuple[int, str]:
    """Line count of src/balrig and a digest of its sources."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted((SRC / "balrig").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def metadata(args, loop: Loop, extra: dict) -> dict:
    lines, digest = _source_stats()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_balrig_lines": lines,
        "src_balrig_sha256": digest,
        "input_sets": len(loop.sets),
        "calls_per_round": [len(calls) for calls in loop.sets],
        "calls_by_kind": dict(sorted(loop.kinds.items())),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failed_frac": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:10],
        "verdict_digest": loop.verdict_digest(),
    }
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(args) -> tuple[dict, dict, int]:
    """One benchmark run; returns (result, metadata, exit code)."""
    t_setup = time.perf_counter()
    modules = _balrig_modules()
    workdir = _workdir("run")
    tracer = None
    setup_samples: list[tuple[float, float]] = []

    def sample_setup():
        # spread over the run, so that one stretch of host contention
        # does not set the median
        if not args.trace and len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(setup_sample(args))

    try:
        if args.trace:
            tracer = Tracer()
            tracer.prepare(modules, layers.SETUP_LAYERS)
            tracer.install()
            try:
                sets = tracer.run_root("setup", "setup", workloads.build,
                                       args.workload, args.seed, workdir, args.tiny)
            finally:
                tracer.uninstall()
            tracer.prepare(modules, layers.CALL_LAYERS)
        else:
            sets = workloads.build(args.workload, args.seed, workdir, args.tiny)
        setup_inproc = time.perf_counter() - t_setup
        loop = Loop(sets, args.seed)
        run_loop(loop, args.seconds, tracer, sample_setup)
        for _ in range(SETUP_REPEATS):
            sample_setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {"setup_inproc_s": setup_inproc, "setup_samples_s": setup_samples}
    if tracer is None:
        metrics = end_to_end(loop, setup_samples)
        extra["wall_clock"] = raw_end_to_end(loop, setup_samples)
        extra["rounds"] = len(loop.round_latencies)
        extra["p90_samples_per_round"] = min(len(calls) for calls in sets)
        extra["p90_tail_samples_per_round"] = min(
            sum(1 for x in lat if x > statistics.quantiles(lat, n=10, method="inclusive")[8])
            for lat in loop.round_latencies
        )
    else:
        metrics = per_layer(loop, tracer)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        extra.update({
            "rounds_untraced": len(loop.round_rates[False]),
            "rounds_traced": len(loop.round_rates[True]),
            "traced_calls": loop.traced_calls,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "missing_entry_points": tracer.missing_entry_points,
            "counter_errors": tracer.counter_errors,
        })
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    return result, metadata(args, loop, extra), 0 if not loop.failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "balrig" / "__init__.py").is_file():
        print(f"perfbench: no balrig sources at {SRC / 'balrig'}", file=sys.stderr)
        return 2
    # the CLI lets BALRIG_SEED override --seed; inputs come from --seed alone
    os.environ.pop("BALRIG_SEED", None)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    result, meta, code = run(args)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
