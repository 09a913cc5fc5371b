#!/usr/bin/env python3
"""squig benchmark: seeded closed-loop workloads with an oracle check.

Run from the root of a source checkout:

    python3 bench/run.py --workload rosette --seed 1 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` and ``bench/README.md``):

* ``rosette``  - uniform points for sin_n/cos_n/arcsin_n, n in 3..64;
* ``boundary`` - corner, edge-image, pole, far-field and slit-guard points;
* ``batch``    - maclaurin(ctx, 80), run_all() and the documented CLI commands.

One caller thread issues each call after the previous one returned (closed
loop).  Every returned value is checked against an independent mpmath
oracle after the timed loop.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same calls run once untraced and once traced, and the JSON holds the
per-layer metrics, including the tracing overhead.  Spans are written to
``.bench_out/`` in the checkout.  Every reported time is scaled to a
reference host speed by a probe that runs during the calls (``probe.py``).

The work of a run is fixed by the seed and ``--seconds``: each workload runs
a number of rounds sized so that it measures about ``--seconds`` seconds at
the commit that introduced the benchmark (``boundary`` and ``batch`` have a
floor, below).  Faster code therefore finishes the same calls sooner, and
the oracle's cost per run stays bounded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from probe import REFERENCE_S, Probe

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

# Rounds per second of --seconds, calibrated on a 2-core box at the commit
# that added the benchmark, and the minimum rounds for each workload.
# boundary runs whole cycles of its five edge-offset decades (see points.py);
# one cycle is 1120 calls, so that p99 has ten samples above it.
ROUNDS_PER_SECOND = {"rosette": 50.0, "boundary": 0.1, "batch": 0.1}
MIN_ROUNDS = {"rosette": 20, "boundary": 5, "batch": 2}
SETUP_REPEATS = 9

MACLAURIN_N = (3, 8, 32)
MACLAURIN_TERMS = 80
CLI_N = 4
SERIES_TERMS = 60
CLI_TIMEOUT_S = 150
ORACLE_WORKERS = 2
ORACLE_TIMEOUT_S = 150
FAIL_TYPES = ("ConvergenceError", "QuadratureError", "ZeroDivisionError",
              "OverflowError", "DomainError")
CLI_COMMANDS = ("eval", "series", "verify", "grid_sin", "grid_F", "constants")
VERIFY_FAMILIES = ("integral_slit", "integral_ray", "limit_at_infinity", "winding",
                   "periodicity_sin3", "trisection", "sc_factorization",
                   "riemann_normalization")


def log(msg: str) -> None:
    print(msg, flush=True)


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS[workload], round(seconds * ROUNDS_PER_SECOND[workload]))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


# The first call is at points.first_point, which builds every context cache.
# The probe is imported only after the timed part, so that the modules it
# loads do not shorten the import of squig.
_SETUP = """
import time
t0 = time.perf_counter()
import squig
{body}
seconds = time.perf_counter() - t0
import sys
sys.path.insert(0, {bench!r})
import probe
probe.warm_up()
slices = [probe.probe_slice() for _ in range(probe.MIN_READINGS)]
print(seconds * probe.REFERENCE_S / probe.trimmed_mean(slices))
"""
_SETUP_EVAL = """
for n in {ns!r}:
    ctx = squig.make_context(n)
    squig.sin_n(ctx, 0.4 * ctx.A + 0.2 * ctx.P)
"""


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import (+ contexts and first calls),
    each scaled to the probe's reference host speed."""
    from points import N_VALUES

    body = "" if workload == "batch" else _SETUP_EVAL.format(ns=N_VALUES)
    code = _SETUP.format(body=body, bench=str(BENCH))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def make_contexts(squig):
    from points import N_VALUES, first_point

    contexts = {}
    for n in N_VALUES:
        ctx = squig.make_context(n)
        squig.sin_n(ctx, first_point(ctx))
        contexts[n] = ctx
    return contexts


# ---------------------------------------------------------------------------
# evaluation workloads


def run_calls(squig, contexts, calls, tracer=None):
    """Closed loop over ``calls``; returns (records, loop seconds).

    A record is (value, exception type name or None, seconds).  Every
    exception is caught and timed until it was raised.  Times are scaled to
    the probe's reference host speed (``probe.py``), and the loop time is
    their sum.
    """
    fns = {"sin": squig.sin_n, "cos": squig.cos_n, "arcsin": squig.arcsin_n}
    raw = []
    clock = time.perf_counter
    with Probe() as probe:
        start = clock()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.request = i + 1
            fn = fns[call.fn]
            ctx = contexts[call.n]
            t0 = clock()
            try:
                value = fn(ctx, call.z)
                err = None
            except Exception as exc:  # every failure is data, never fatal
                value, err = None, type(exc).__name__
            raw.append((value, err, t0, clock()))
        wall_s = clock() - start
    records = [(value, err, probe.scaled(t0, t1)) for value, err, t0, t1 in raw]
    log_probe(probe, wall_s)
    return records, sum(r[2] for r in records)


def log_probe(probe, wall_s) -> None:
    log(f"probe: median reading {statistics.median(probe.values) * 1e3:.3f} ms "
        f"(reference {REFERENCE_S * 1e3:.3f} ms), {len(probe.values)} readings, "
        f"{probe.seconds:.2f} s of {wall_s:.2f} s wall")


def judge_calls(calls, records):
    """Oracle verdict per call: 'ok', 'wrong' or the exception type name.

    Runs after the timed loop, in ORACLE_WORKERS worker processes.
    """
    verdicts = [err for _, err, _ in records]
    todo = []
    for i, (call, (result, err, _)) in enumerate(zip(calls, records)):
        if err is not None:
            continue
        # sin_n/cos_n return an EvalResult, whose value None is a pole flag
        value = result if call.fn == "arcsin" else result.value
        if value is None:
            verdicts[i] = "wrong"
        else:
            todo.append((i, (call.fn, call.n, call.z, complex(value))))
    parts = [todo[k::ORACLE_WORKERS] for k in range(ORACLE_WORKERS)]
    results = run_oracle_workers([[item for _, item in part] for part in parts])
    for part, verdict in zip(parts, results):
        for (i, _), v in zip(part, verdict):
            verdicts[i] = v
    return verdicts


def run_oracle_workers(parts):
    """Judges each part in a ``bench/oracle.py`` process; returns the verdicts.

    Inputs and outputs go through pickle files in OUT_DIR.  Every worker is
    waited for, and killed first if the run is leaving early.
    """
    OUT_DIR.mkdir(exist_ok=True)
    files = [(OUT_DIR / f"oracle-{os.getpid()}-{k}.in.pickle",
              OUT_DIR / f"oracle-{os.getpid()}-{k}.out.pickle") for k in range(len(parts))]
    procs = []
    try:
        for part, (src, dst) in zip(parts, files):
            src.write_bytes(pickle.dumps(part))
            procs.append(subprocess.Popen([sys.executable, str(BENCH / "oracle.py"),
                                           str(src), str(dst)], cwd=ROOT))
        results = []
        for proc, (_, dst) in zip(procs, files):
            code = proc.wait(timeout=ORACLE_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"oracle worker exited with code {code}")
            results.append(pickle.loads(dst.read_bytes()))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for paths in files:
            for path in paths:
                path.unlink(missing_ok=True)


def generate(workload, contexts, seed, rounds):
    from points import boundary_round, rosette_round

    make = rosette_round if workload == "rosette" else boundary_round
    calls = []
    for r in range(rounds):
        calls.extend(make(contexts, seed, r))
    return calls


def inputs_digest(items) -> str:
    """SHA-256 over the repr of every generated input, in order."""
    import hashlib

    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def latency_metrics(durations, verdicts, loop_s) -> dict:
    ms = sorted(d * 1e3 for d in durations)
    ok = sum(1 for v in verdicts if v == "ok")
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p99_ms": percentile(ms, 0.99),
        "ok_calls_per_s": ok / loop_s,
        "ok_share": ok / len(verdicts),
    }


def failure_counts(verdicts) -> Counter:
    return Counter(v for v in verdicts if v != "ok")


def unexpected_failures(calls, verdicts) -> int:
    from points import KNOWN_DEFECT_RAISES, KNOWN_DEFECT_STRATA

    return sum(1 for c, v in zip(calls, verdicts)
               if v != "ok" and c.stratum not in KNOWN_DEFECT_STRATA
               and (c.fn, v) not in KNOWN_DEFECT_RAISES)


# ---------------------------------------------------------------------------
# batch workload


def cli_literal(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def batch_tasks(squig, seed: int) -> tuple:
    """One round: maclaurin per n, run_all, and the CLI commands.

    Each documented CLI command is a call of its own.  Returns (tasks,
    blocks, point of the eval command): a block is a run of task indices
    that keeps its order when a round is shuffled.
    """
    import random

    rng = random.Random(f"{seed}:batch")
    n_eval = rng.choice((3, 4, 5, 8))
    ctx = squig.make_context(n_eval)
    z = squig.sample_domain(ctx, rng, 1)[0]
    commands = [
        ("eval", ["eval", "--n", str(n_eval), "--fn", "sin", f"--z={cli_literal(z)}"]),
        ("series", ["series", "--n", str(CLI_N), "--terms", str(SERIES_TERMS)]),
        ("verify", ["verify", "--stable"]),
        ("grid_sin", ["grid", "--n", str(CLI_N), "--map", "sin"]),
        ("grid_F", ["grid", "--n", str(CLI_N), "--map", "F"]),
        ("constants", ["constants", "--n", str(n_eval)]),
    ]
    tasks = [("maclaurin", n) for n in MACLAURIN_N] + [("run_all", None)]
    blocks = [[i] for i in range(len(tasks))]
    # the CLI commands run one after another, in the documented order
    blocks.append(list(range(len(tasks), len(tasks) + len(commands))))
    tasks += [("cli", command) for command in commands]
    return tasks, blocks, (n_eval, z)


def run_batch_round(squig, tasks, order):
    """Runs tasks in ``order``; returns {task index: (output, error, start,
    end)}, times from ``time.perf_counter``.

    A CLI command's output is its CompletedProcess, None if it ran into
    CLI_TIMEOUT_S; a nonzero exit code is its error.
    """
    out = {}
    clock = time.perf_counter
    for i in order:
        name, arg = tasks[i]
        if name == "maclaurin":
            ctx = squig.make_context(arg)  # fresh context: no cached series
            t0 = clock()
            try:
                result, err = squig.maclaurin(ctx, MACLAURIN_TERMS), None
            except Exception as exc:
                result, err = None, type(exc).__name__
        elif name == "run_all":
            t0 = clock()
            try:
                result, err = squig.run_all(), None
            except Exception as exc:
                result, err = None, type(exc).__name__
        else:
            t0 = clock()
            try:
                result = subprocess.run([sys.executable, "-m", "squig.cli"] + arg[1],
                                        env=child_env(), cwd=ROOT, capture_output=True,
                                        timeout=CLI_TIMEOUT_S)
                err = f"exit{result.returncode}" if result.returncode else None
            except subprocess.TimeoutExpired:
                result, err = None, "TimeoutExpired"
        out[i] = (result, err, t0, clock())
    return out


@functools.lru_cache(maxsize=None)
def series_reference(n: int, terms: int) -> tuple:
    """(degrees, coefficients) of the nonzero terms, from the ODE recurrence."""
    from oracle import maclaurin_ode

    pairs = [(n * k + 1, c) for k, c in enumerate(maclaurin_ode(n, terms)) if c != 0]
    return tuple(d for d, _ in pairs), tuple(c for _, c in pairs)


def judge_batch(task, point, result):
    """Verdict of one batch task's output against the independent references."""
    name, arg = task
    if name == "maclaurin":
        return (result.degrees, result.coeffs) == series_reference(arg, MACLAURIN_TERMS)
    if name == "run_all":
        return bool(result) and all(r.passed for r in result)
    return judge_cli(arg[0], point, result.stdout)


def judge_cli(name, point, stdout):
    from oracle import Oracle, pi_n

    if name in ("grid_sin", "grid_F"):
        return stdout.startswith(b"<?xml") and stdout.rstrip().endswith(b"</svg>")
    doc = json.loads(stdout)
    if name == "eval":
        n, z = point
        v = doc["value"]
        return Oracle(n).check("sin", z, complex(v["re"], v["im"]))[0]
    if name == "series":
        degrees, coeffs = series_reference(CLI_N, SERIES_TERMS)
        rows = [(r["degree"], r["numerator"], r["denominator"]) for r in doc["rows"]]
        return rows == [(d, c.numerator, c.denominator) for d, c in zip(degrees, coeffs)]
    if name == "verify":
        return bool(doc) and all(r["pass"] for r in doc)
    if name == "constants":
        n = point[0]
        return abs(doc["pi_n"] - pi_n(n)) <= 1e-10 * max(1.0, abs(doc["pi_n"]))
    raise ValueError(name)


def batch_component_times(tasks, rounds_out) -> dict:
    """Median over rounds of the maclaurin, run_all and CLI times."""
    per_round = {"maclaurin_s": [], "verify_s": [], "cli_s": []}
    per_cli = {c: [] for c in CLI_COMMANDS}
    for out in rounds_out:
        for key, task in (("maclaurin_s", "maclaurin"), ("verify_s", "run_all"), ("cli_s", "cli")):
            per_round[key].append(sum(out[i][2] for i, (name, _) in enumerate(tasks)
                                      if name == task))
        for i, (name, arg) in enumerate(tasks):
            if name == "cli":
                per_cli[arg[0]].append(out[i][2])
    times = {k: statistics.median(v) for k, v in per_round.items()}
    times.update({f"cli.{c}.s": statistics.median(v) for c, v in per_cli.items()})
    return times


def batch_pass(squig, seed, rounds, tracer=None):
    """Runs ``rounds`` rounds; returns (tasks, point, per-round outputs, loop s).

    Outputs map task index to (output, error, seconds), the seconds scaled to
    the probe's reference host speed as in run_calls.
    """
    import random

    tasks, blocks, point = batch_tasks(squig, seed)
    rng = random.Random(f"{seed}:batch-order")
    orders = []
    for _ in range(rounds):
        rng.shuffle(blocks)
        orders.append([i for block in blocks for i in block])
    raw = []
    with Probe() as probe:
        start = time.perf_counter()
        for order in orders:
            if tracer is not None:
                tracer.request += 1
            raw.append(run_batch_round(squig, tasks, order))
        wall_s = time.perf_counter() - start
    log_probe(probe, wall_s)
    outputs = [{i: (result, err, probe.scaled(t0, t1)) for i, (result, err, t0, t1) in out.items()}
               for out in raw]
    return tasks, point, outputs, sum(dt for out in outputs for _, _, dt in out.values())


def batch_verdicts(tasks, point, outputs):
    verdicts, durations = [], []
    for out in outputs:
        for i, task in enumerate(tasks):
            result, err, dt = out[i]
            durations.append(dt)
            if err is not None:
                verdicts.append(err)
            else:
                verdicts.append("ok" if judge_batch(task, point, result) else "wrong")
    return verdicts, durations


# ---------------------------------------------------------------------------
# per-layer metrics


PER_LAYER_SPANS = {
    "geometry.make_context": ("calls",),
    "geometry.fold": ("calls", "self_ms"),
    "geometry.contains_Sigma": ("calls", "self_ms"),
    "squigfn.corner_chart": ("calls", "self_ms"),
    "squigfn.slit_edge": ("calls", "self_ms"),
    "squigfn.maclaurin": ("calls", "self_ms"),
    "numerics.integrate_smooth": ("calls", "evaluations", "self_ms"),
    "numerics.newton_invert": ("calls", "raised", "self_ms"),
    "numerics.sector_ray_integral": ("calls", "self_ms"),
    "numerics.sector_segment_integral": ("calls", "self_ms"),
    "numerics.integrate_endpoint_singular": ("calls", "evaluations", "self_ms"),
    "numerics.integrate_tail": ("calls", "evaluations", "self_ms"),
    "numerics.tanh_sinh": ("calls", "evaluations", "self_ms"),
    "numerics.revert_series": ("calls", "self_ms"),
}


def layer_metrics(tracer, verdicts) -> dict:
    from spans import routes, summarize

    layers = summarize(tracer.spans)
    m = {}
    for name, keys in PER_LAYER_SPANS.items():
        layer = layers.get(name, {"calls": 0, "raised": 0, "count": 0,
                                  "total_ms": 0.0, "self_ms": 0.0})
        for key in keys:
            m[f"{name}.{key}"] = layer["count"] if key == "evaluations" else layer[key]
    m["geometry.make_context.ms"] = layers.get("geometry.make_context", {}).get("total_ms", 0.0)
    newton = layers.get("numerics.newton_invert")
    passes = layers.get("numerics.newton_pass", {"count": 0, "self_ms": 0.0})
    # the damped-Newton passes are private to newton_invert: one layer
    m["numerics.newton_invert.self_ms"] += passes["self_ms"]
    m["numerics.newton_invert.iterations"] = passes["count"]
    m["numerics.newton_invert.ok_ratio"] = (
        (newton["calls"] - newton["raised"]) / newton["calls"] if newton else 0.0)
    m["squigfn.self_ms"] = sum(v["self_ms"] for k, v in layers.items() if k.startswith("squigfn."))
    for route, share in routes(tracer.spans).items():
        m[f"squigfn.route.{route}_share"] = share
    fails = failure_counts(verdicts)
    for t in FAIL_TYPES:
        m[f"fail.{t}"] = fails.pop(t, 0)
    m["fail.wrong"] = fails.pop("wrong", 0)
    m["fail.other"] = sum(fails.values())
    m["trace.spans"] = len(tracer.spans)
    return m


def units(name: str) -> str:
    if name == "ok_calls_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    if name.endswith(".exit"):
        return "code"
    return "count"


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rosette", "boundary", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so that it kills and waits for its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "squig" / "__init__.py").is_file():
        print(f"error: no squig sources under {SRC}; run from a squig checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import squig
    if Path(squig.__file__).resolve().parent != (SRC / "squig").resolve():
        print(f"error: imported squig from {squig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rounds = rounds_for(args.workload, args.seconds)
    log(f"workload={args.workload} seed={args.seed} rounds={rounds} trace={args.trace}")
    setup_s = measure_setup(args.workload)
    log(f"setup_s (median of {SETUP_REPEATS} fresh interpreters): {setup_s:.4f}")

    if args.workload == "batch":
        result = run_batch(squig, args, rounds, setup_s)
    else:
        result = run_eval(squig, args, rounds, setup_s)
    print(json.dumps(result))
    return 0


def report(metrics: dict, fails: Counter, attempted: int) -> None:
    for name, value in metrics.items():
        log(f"  {name:<44s} {value:>14.6g} {units(name)}")
    failed = sum(fails.values())
    log(f"  {'fail_share':<44s} {failed / attempted:>14.6g} ratio "
        f"({failed} of {attempted}: {dict(sorted(fails.items()))})")


def run_eval(squig, args, rounds, setup_s) -> dict:
    contexts = make_contexts(squig)
    calls = generate(args.workload, contexts, args.seed, rounds)
    log(f"inputs sha256 {inputs_digest(calls)}")
    records, loop_s = run_calls(squig, contexts, calls)
    rss = peak_rss_mb()
    log(f"timed loop: {len(calls)} calls in {loop_s:.3f} s")

    if not args.trace:
        t0 = time.perf_counter()
        verdicts = judge_calls(calls, records)
        log(f"oracle: {time.perf_counter() - t0:.1f} s")
        metrics = {"setup_s": setup_s,
                   **latency_metrics([r[2] for r in records], verdicts, loop_s),
                   "peak_rss_mb": rss}
        fails = failure_counts(verdicts)
        report(metrics, fails, len(calls))
        by_stratum = Counter((c.stratum, c.n) for c, v in zip(calls, verdicts) if v != "ok")
        if by_stratum:
            log("  failures by (stratum, n): " + ", ".join(
                f"{s}/{n}: {k}" for (s, n), k in sorted(by_stratum.items())))
        slowest = sorted(range(len(calls)), key=lambda i: records[i][2], reverse=True)
        log("  slowest calls: " + ", ".join(
            f"{calls[i].stratum}/{calls[i].n}/{calls[i].fn} {records[i][2] * 1e3:.0f} ms {verdicts[i]}"
            for i in slowest[:12]))
        return result_json(metrics, len(calls), fails, not unexpected_failures(calls, verdicts))

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced_contexts = make_contexts(squig)  # set-up spans, request 0
        traced, traced_s = run_calls(squig, traced_contexts, calls, tracer)
    finally:
        tracer.uninstall()
    verdicts = judge_calls(calls, traced)
    plain = latency_metrics([r[2] for r in records], verdicts, loop_s)
    with_trace = latency_metrics([r[2] for r in traced], verdicts, traced_s)
    metrics = layer_metrics(tracer, verdicts)
    metrics.update(overhead(plain, with_trace, loop_s, traced_s))
    metrics.update(zero_batch_metrics())
    write_spans(tracer, args)
    fails = failure_counts(verdicts)
    report(metrics, fails, len(calls))
    return result_json(metrics, len(calls), fails, not unexpected_failures(calls, verdicts))


def overhead(plain, traced, loop_s, traced_s) -> dict:
    return {
        "trace.overhead.loop_share": traced_s / loop_s - 1.0,
        "trace.overhead.latency_p50_ms": traced["latency_p50_ms"] - plain["latency_p50_ms"],
        "trace.overhead.latency_p99_ms": traced["latency_p99_ms"] - plain["latency_p99_ms"],
    }


def zero_batch_metrics() -> dict:
    m = {"maclaurin_s": 0.0, "verify_s": 0.0, "cli_s": 0.0}
    m.update({f"verify.{f}.ms": 0.0 for f in VERIFY_FAMILIES})
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = 0.0
        m[f"cli.{c}.exit"] = 0
    return m


def write_spans(tracer, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    log(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def run_batch(squig, args, rounds, setup_s) -> dict:
    tasks, point, outputs, loop_s = batch_pass(squig, args.seed, rounds)
    log(f"inputs sha256 {inputs_digest(tasks + [point])}")
    rss = peak_rss_mb()
    log(f"timed loop: {rounds} rounds of {len(tasks)} tasks in {loop_s:.3f} s")
    verdicts, durations = batch_verdicts(tasks, point, outputs)
    components = batch_component_times(tasks, outputs)

    if not args.trace:
        metrics = {"setup_s": setup_s, **latency_metrics(durations, verdicts, loop_s),
                   "peak_rss_mb": rss}
        fails = failure_counts(verdicts)
        report(metrics, fails, len(verdicts))
        for name, value in components.items():
            log(f"  {name:<44s} {value:>14.6g} s")
        return result_json(metrics, len(verdicts), fails, not fails)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced_out, traced_s = batch_pass(squig, args.seed, rounds, tracer)
    finally:
        tracer.uninstall()
    traced_verdicts, traced_durations = batch_verdicts(tasks, point, traced_out)
    plain = latency_metrics(durations, verdicts, loop_s)
    with_trace = latency_metrics(traced_durations, traced_verdicts, traced_s)
    metrics = layer_metrics(tracer, traced_verdicts)
    metrics.update(overhead(plain, with_trace, loop_s, traced_s))
    metrics.update(zero_batch_metrics())
    metrics.update(components)
    for f in VERIFY_FAMILIES:
        # the library's own timer, from the untraced pass; summed over n
        per_round = [sum(r.runtime_ms for r in out[i][0] if r.name == f)
                     for out in outputs for i, (name, _) in enumerate(tasks)
                     if name == "run_all" and out[i][0]]
        metrics[f"verify.{f}.ms"] = statistics.median(per_round) if per_round else 0.0
    for out in outputs:
        for i, (name, arg) in enumerate(tasks):
            if name == "cli":
                # the last nonzero exit code; -1 marks a run into CLI_TIMEOUT_S
                proc = out[i][0]
                code = proc.returncode if proc is not None else -1
                if code:
                    metrics[f"cli.{arg[0]}.exit"] = code
    write_spans(tracer, args)
    fails = failure_counts(traced_verdicts)
    report(metrics, fails, len(traced_verdicts))
    return result_json(metrics, len(traced_verdicts), fails, not fails)


def result_json(metrics: dict, attempted: int, fails: Counter, correct: bool) -> dict:
    """The last line: every failure (raised or wrong) is counted in ``failed``.

    ``correct`` is false when a call failed outside the strata with known
    defects (``points.KNOWN_DEFECT_STRATA``); failures inside them are
    reported, not hidden, through ``failed``, ``ok_share`` and ``fail.*``.
    """
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
