"""End-to-end CQA request benchmark: a closed loop, one client, no worker pool.

Run from the repository root::

    python3 perfbench/run.py --workload key_repairs.enumerate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` times the requests and reports the end-to-end metrics;
``--trace 1`` replays the same seeded requests twice, untraced then with
every layer's entry points wrapped (see ``tracing.py``), and reports the
per-layer split.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process and prints the
per-operation metrics of all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Set-ups measured per run, each in a fresh process: the first in-process
#: one plus this many probes.  Their median is ``setup_s``.
SETUP_PROBES = 2
#: Share of a run's requests the traced run replays untraced, then traced.
UNTRACED_SHARE = 0.4
#: A run stops early, short of its requests, after this many ``--seconds``.
CAP_FACTOR = 1.5
#: Fewest samples beyond a percentile before it is reported.
TAIL_SAMPLES = 10


#: Calibration loop time, in seconds, that normalised times are quoted at.
REFERENCE_PROBE_S = 0.001
#: Longest gap between speed probes during a timed loop, in seconds.
PROBE_EVERY_S = 0.025


def _calibration_loop() -> int:
    """Fixed interpreter work — tuples, frozensets, a dict — to clock the CPU."""

    table = {}
    for i in range(2000):
        table[(i, "k")] = frozenset((i, i + 1, i + 2))
    return sum(len(value) + key[0] for key, value in table.items())


class Speedometer:
    """The machine's momentary speed, from a calibration loop timed often.

    On a shared host the same request runs up to ~1.5x slower for seconds
    at a time.  Each request's time is therefore also reported *normalised*:
    multiplied by ``REFERENCE_PROBE_S`` over the calibration loop's time
    (the best of three) measured around it, i.e. quoted at a fixed
    reference speed.  The probes are outside the request's own timing.
    """

    def __init__(self) -> None:
        self.last = self.probe()

    def probe(self) -> float:
        best = float("inf")
        for _ in range(3):
            started = perf_counter()
            _calibration_loop()
            best = min(best, perf_counter() - started)
        self.last = best
        self.at = perf_counter()
        return best

    def current(self) -> float:
        """The latest probe, refreshed when older than ``PROBE_EVERY_S``."""

        if perf_counter() - self.at > PROBE_EVERY_S:
            self.probe()
        return self.last

    @staticmethod
    def normalise(seconds: float, before: float, after: float) -> float:
        """*seconds* at the reference speed, given the probes around them."""

        return seconds * REFERENCE_PROBE_S * 2.0 / (before + after)


def _bootstrap() -> None:
    """Make the checkout's library importable, or stop without a result."""

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library source at {ROOT / 'src' / 'repro'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` with fewer than 10 samples beyond it."""

    if not values or (q > 0.5 and len(values) * (1.0 - q) < TAIL_SAMPLES):
        return None
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


# --------------------------------------------------------------------------- measuring
def set_up(workload: str, seed: int, scale: str):
    """Generate inputs, build sessions and warm up one request, untimed."""

    import workloads

    speed = Speedometer()
    before = speed.last
    started = perf_counter()
    scenario = workloads.build(workload, seed, scale)
    failures = scenario.setup_checks()
    steps = scenario.steps(workloads.WORKLOADS[workload][1])
    failures += scenario.warm_up(steps)
    elapsed = perf_counter() - started
    return scenario, steps, failures, speed.normalise(elapsed, before, speed.probe())


def request_count(workload: str, seconds: float) -> int:
    """The fixed number of requests a run of *seconds* makes.

    The amount of work in a run does not depend on how fast the program
    is: state that builds up over a run (the writes of ``mutate_query``,
    stale answers in the session's cache) is then the same for every
    program, and so is what the run measures.  Each workload's rate is set
    so that the timed loop takes about 0.9 ``--seconds`` on the machine it
    was written on.
    """

    import workloads

    return max(1, round(workloads.REQUESTS_PER_SECOND[workload] * seconds))


def timed_loop(
    steps, requests: int, cap_seconds: float, tracer=None, wall: Optional[List[float]] = None,
):
    """Closed loop: the next request starts when the previous one returned.

    Makes *requests* requests, or fewer if *cap_seconds* run out first.
    Returns ``(durations, ok, failures)`` with each duration normalised by
    :class:`Speedometer` (``wall`` gets the raw ones); building each step
    (fresh session, writes between requests) and checking its answer are
    untimed.
    """

    durations: List[float] = []
    ok: List[bool] = []
    failures: List[str] = []
    speed = Speedometer()
    deadline = perf_counter() + cap_seconds
    while len(durations) < requests and perf_counter() < deadline:
        try:
            step = next(steps)
        except Exception:
            failures.append(traceback.format_exc(limit=4))
            break
        before = speed.current()
        started = perf_counter()
        try:
            result = tracer.request(step.session, step.run) if tracer else step.run()
            raised = False
        except Exception:
            failures.append(traceback.format_exc(limit=4))
            raised = True
        elapsed = perf_counter() - started
        if wall is not None:
            wall.append(elapsed)
        durations.append(speed.normalise(elapsed, before, speed.current()))
        ok.append(not raised and step.check(result))
        if not raised and not ok[-1]:
            failures.append(f"{step.op}: answer differs from the oracle")
    return durations, ok, failures


def setup_probe(workload: str, seed: int, scale: str) -> float:
    """``setup_s`` of one fresh process (the memos start empty there too)."""

    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--scale", scale],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    if probe["failures"]:
        raise RuntimeError(f"set-up probe found wrong answers: {probe['failures']}")
    return probe["setup_s"]


def _tally(requests_ok: List[bool], setup_failures: List[str], loop_failures: List[str]):
    """``(attempted, failed)``: every request, plus the set-up's oracle checks
    as one attempt, plus a step that could not even be built."""

    unbuilt = len(loop_failures) - requests_ok.count(False)
    attempted = len(requests_ok) + 1 + unbuilt
    return attempted, requests_ok.count(False) + (1 if setup_failures else 0) + unbuilt


def measure(workload: str, seed: int, seconds: float, scale: str) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric plus the per-operation detail."""

    import workloads

    scenario, steps, setup_failures, setup_s = set_up(workload, seed, scale)
    wall: List[float] = []
    requests = request_count(workload, seconds)
    durations, ok, loop_failures = timed_loop(steps, requests, seconds * CAP_FACTOR, wall=wall)
    setups = [setup_s] + [setup_probe(workload, seed, scale) for _ in range(SETUP_PROBES)]
    good = [d for d, fine in zip(durations, ok) if fine]
    op = workloads.WORKLOADS[workload][1]
    p50, p90 = percentile(good, 0.5), percentile(good, 0.9)
    # With no correct request there is no latency: ``None`` (JSON null), so
    # a broken run cannot read as the fastest one.
    metrics = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(good) / sum(durations) if durations else 0.0,
        "latency_p50_ms": p50 * 1000.0 if p50 is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = _tally(ok, setup_failures, loop_failures)
    detail = {
        "workload": workload,
        "op": op,
        "samples": len(durations),
        "requests": requests,
        f"{op}_p50_ms": metrics["latency_p50_ms"],
        f"{op}_p90_ms": p90 * 1000.0 if p90 is not None else None,
        "wall_p50_ms": statistics.median(wall) * 1000.0 if wall else None,
        "failed_ratio": failed / attempted,
        "setups_s": setups,
    }
    if op == "sweep":
        detail["sweep_vs_tracker_mismatches"] = scenario.sweep_vs_tracker_mismatches
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "failures": setup_failures + loop_failures,
    }


def measure_traced(workload: str, seed: int, seconds: float, scale: str) -> Dict[str, Any]:
    """The traced run: the same seeded requests untraced, then traced."""

    from tracing import Tracer

    _, steps, setup_failures, _ = set_up(workload, seed, scale)
    requests = max(1, round(request_count(workload, seconds) * UNTRACED_SHARE))
    cap = seconds * CAP_FACTOR
    plain, plain_ok, plain_failures = timed_loop(steps, requests, cap * UNTRACED_SHARE)
    del steps

    _, steps, more_setup_failures, _ = set_up(workload, seed, scale)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_ok, traced_failures = timed_loop(
            steps, len(plain), cap * (1.0 - UNTRACED_SHARE), tracer=tracer
        )
    finally:
        tracer.uninstall()
    common = min(len(plain), len(traced))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced[:common]) / statistics.median(plain[:common]) if common else None
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-seed{seed}.jsonl")
    first = _tally(plain_ok, setup_failures, plain_failures)
    second = _tally(traced_ok, more_setup_failures, traced_failures)
    return {
        "metrics": metrics,
        "detail": {"workload": workload, "samples": len(traced), "requests": requests,
                   "untraced_samples": len(plain)},
        "attempted": first[0] + second[0],
        "failed": first[1] + second[1],
        "failures": setup_failures + plain_failures + more_setup_failures + traced_failures,
    }


# --------------------------------------------------------------------------- reporting
def _line(name: str, value: Optional[float], unit: str, samples: Any) -> str:
    shown = "omitted" if value is None else f"{value:.4f}"
    return f"{name:<40} {shown:>14} {unit:<6} n={samples}"


def report_one(result: Dict[str, Any], trace: bool) -> None:
    from tracing import PER_LAYER

    detail = result["detail"]
    print(f"workload {detail['workload']}: closed loop, 1 client, workers=0")
    for failure in result["failures"]:
        print(f"FAILED {failure.strip().splitlines()[-1]}", file=sys.stderr)
    samples = detail["samples"]
    if samples < detail["requests"]:
        print(f"cut at the time cap after {samples} of {detail['requests']} requests")
    if trace:
        for name, value in result["metrics"].items():
            print(_line(name, value, PER_LAYER[name][0], samples))
    else:
        op = detail["op"]
        for name in (f"{op}_p50_ms", f"{op}_p90_ms"):
            value = detail[name]
            print(_line(name, value, "ms", samples))
            if value is None:
                print(f"  ({name} omitted: {samples} samples leave fewer than "
                      f"{TAIL_SAMPLES} beyond the 90th percentile)")
        print(_line("wall-clock p50 (not normalised)", detail["wall_p50_ms"], "ms", samples))
        print(_line("setup_s", result["metrics"]["setup_s"], "s", len(detail["setups_s"])))
        for name in ("requests_per_s", "peak_rss_mb"):
            print(_line(name, result["metrics"][name], END_TO_END[name], samples))
        print(_line("failed_ratio", detail["failed_ratio"], "ratio", result["attempted"]))
        if "sweep_vs_tracker_mismatches" in detail:
            print(_line("sweep_vs_tracker_mismatches",
                        detail["sweep_vs_tracker_mismatches"], "count", samples))


def run_all(args) -> int:
    """Every workload in its own process; one table of all their metrics."""

    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            sys.stderr.write(f"perfbench: {workload} exited {completed.returncode}\n")
            return completed.returncode
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}/{name}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is the self-test's smallest setting")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    import workloads
    from tracing import PER_LAYER

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        _, _, failures, setup_s = set_up(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": setup_s, "failures": failures}))
        return 0
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds, args.scale)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale)
        units = END_TO_END
    report_one(result, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
