"""Benchmark of the dpo engine: one workload per run, one caller, closed loop.

    python3 perfbench/run.py --workload rewrite_chain --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else: the engine is imported from
``src/`` next to this directory and nowhere else.  A run sets the workload
up SETUPS times (fresh engine import, input generation, files, warm-up) and
reports the median as ``setup_s``; it then times whole rounds of ops until
``--seconds`` have passed, checking every output with ``oracle.py``.  Times
are rescaled to a nominal machine speed (see NOMINAL_REF_S).  With
``--trace 1`` the engine's public functions are wrapped (``tracing.py``) and
the per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is the result as one JSON object.  ``--smoke`` runs
tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ENGINE_MODULES = ("errors", "graph", "morphism", "constructions", "diagrams", "rewriting", "independence", "io", "cli")
SETUPS = 5
OP_LIMIT_S = 30  # an op still running after this is aborted and counted as failed
# A virtual machine shared with other tenants can change speed by up to 2x
# within seconds.  A fixed piece of work, reference_loop(), is timed between
# every two ops,
# and each op's time is rescaled by NOMINAL_REF_S over the mean of the two
# reference times around it: times read as if the machine always ran the
# reference loop in NOMINAL_REF_S.
NOMINAL_REF_S = 0.003


def reference_loop() -> int:
    """Fixed pure-Python work on dicts and sets of ints, like the engine's."""
    d = {i: i * 2 for i in range(20000)}
    keys = frozenset(d)
    return sum(1 for k in keys if d[k] > 5)


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class OpTimeout(Exception):
    """Raised inside an op that ran past OP_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeout(f"op ran past {OP_LIMIT_S} s")


def load_engine() -> SimpleNamespace:
    """Import the engine afresh from ``src/`` and return its modules."""
    for name in [n for n in sys.modules if n == "dpo" or n.startswith("dpo.")]:
        del sys.modules[name]
    engine = SimpleNamespace(**{m: importlib.import_module(f"dpo.{m}") for m in ENGINE_MODULES})
    origin = Path(sys.modules["dpo"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dpo was imported from {origin}, not from {SRC}")
    return engine


class Tally:
    """What the timed loop saw: latencies, successes and failures by class."""

    def __init__(self):
        self.reference: list[float] = [time_reference()]
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.ok = 0
        self.failures: Counter[str] = Counter()
        self.mismatches: list[str] = []
        self.out_bytes = 0
        self.cli_ops = 0

    def run(self, op, tracer=None) -> None:
        if op.before:
            op.before()
        if tracer is not None:
            tracer.op = len(self.latencies)
        clock = time.perf_counter
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            start = clock()
            try:
                outcome = op.call()
            finally:
                elapsed = clock() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            raised = False
        except Exception as exc:  # every failure is data: record its class
            outcome, raised = exc, True
        self.reference.append(time_reference())
        self.latencies.append(elapsed)
        self.by_kind.setdefault(op.kind, []).append(elapsed)
        op.outcome = outcome
        if raised and type(outcome).__name__ != op.expect:
            self.failures[type(outcome).__name__] += 1
            return
        if op.written is not None:
            self.out_bytes += op.written(outcome)
            self.cli_ops += 1
        try:
            problems = op.check(outcome)
        except Exception as exc:  # an output too malformed to check
            problems = [f"checker raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures["mismatch"] += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{op.kind}: {'; '.join(problems[:3])}")
            return
        op.ok = True
        self.ok += 1

    def factors(self) -> list[float]:
        """Per op: NOMINAL_REF_S over the mean reference time around it."""
        r = self.reference
        return [2 * NOMINAL_REF_S / (r[i] + r[i + 1]) for i in range(len(self.latencies))]


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "dpo" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        return run(args, workdir)
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    import networkx

    from tracing import Tracer, metric_names
    from workloads import WORKLOADS

    setup_raw, setup_times = [], []
    for _ in range(SETUPS):
        before = time_reference()
        start = time.perf_counter()
        engine = load_engine()
        rng = Random(f"{args.workload}:{args.seed}")
        workload = WORKLOADS[args.workload](engine, rng, args.smoke, workdir)
        for call in workload.warmup():
            call()
        setup_raw.append(time.perf_counter() - start)
        setup_times.append(setup_raw[-1] * 2 * NOMINAL_REF_S / (before + time_reference()))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    tally = Tally()
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            for op in workload.round():
                tally.run(op, tracer)
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start

    raw = tally.latencies
    factors = tally.factors()
    lat = [t * f for t, f in zip(raw, factors)]
    attempted, failed = len(lat), sum(tally.failures.values())
    busy = sum(raw)
    tail_pct = workload.tail_pct
    tail = percentile(lat, tail_pct)
    p50 = percentile(lat, 50)
    say = print
    say(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    say(f"machine: nproc={os.cpu_count()} python={platform.python_version()} networkx={networkx.__version__} (checker only)")
    say(f"timed {rounds} rounds, {attempted} ops in {wall:.2f} s of wall time, {busy:.2f} s inside the system")
    say(f"reference loop: median {statistics.median(tally.reference) * 1e3:.3f} ms, nominal {NOMINAL_REF_S * 1e3:g} ms;"
        f" raw op p50 {percentile(raw, 50) * 1e3:.3f} ms, p{tail_pct} {percentile(raw, tail_pct) * 1e3:.3f} ms;"
        f" per-kind times below are raw")
    for kind, times in tally.by_kind.items():
        say(f"  {kind:28s} {len(times):5d} ops  p50 {statistics.median(times) * 1e3:9.3f} ms"
            f"  max {max(times) * 1e3:9.3f} ms  {sum(times) / busy:6.1%} of the time")
    if tally.failures:
        say(f"failed ops by class: {dict(sorted(tally.failures.items()))}")
    for m in tally.mismatches:
        say(f"mismatch: {m}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (tally.ok / sum(lat), "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "ok_share": (tally.ok / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        beyond = sum(1 for x in lat if x > tail)
        notes = {
            "setup_s": f"median of {SETUPS}, raw " + ", ".join(f"{t:.3f}" for t in setup_raw),
            "op_tail_ms": f"p{tail_pct} of {attempted} samples, {beyond} beyond it",
            "ok_share": f"failed_share {failed / attempted:.4f}",
        }
        if tally.cli_ops:
            say(f"out_bytes_per_op = {tally.out_bytes / tally.cli_ops:.0f} B")
    else:
        units = dict(metric_names())
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(factors).items()}
        metrics["trace.op_p50_ms"] = (p50 * 1e3, "ms")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        metrics["cli.out_bytes_per_op"] = (tally.out_bytes / tally.cli_ops if tally.cli_ops else 0, "B")
        notes = {}
        (HERE / "_work").mkdir(exist_ok=True)
        tracer.write(HERE / "_work" / f"spans-{args.workload}.json")
    for name, (value, unit) in metrics.items():
        if tracer is None or value:
            note = f"  ({notes[name]})" if name in notes else ""
            say(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": "mismatch" not in tally.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
