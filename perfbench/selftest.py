"""Self-test of the benchmark; run from the repository root::

    python3 perfbench/selftest.py

Checks, on every workload at its smallest setting:

* a run emits exactly the metrics ``BENCHMARK.json`` declares, each with its
  unit, untraced (end-to-end) and traced (per-layer), and answers correctly;
* each oracle rejects a deliberately corrupted answer, and the timed loop
  counts that request as failed;
* the same ``--seed`` reproduces identical inputs and another seed does not;
* the traced layers' self times add up to the requests' wall-clock;
* without the library source next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def corrupt(result):
    """A wrong answer of the same type as *result*."""

    if isinstance(result, bool):
        return not result
    if isinstance(result, int):
        return result + 1
    if isinstance(result, frozenset):
        return result - {next(iter(result))} if result else frozenset({("bogus",)})
    return dataclasses.replace(result, repair_count=result.repair_count + 1)


def check_emitted_metrics(spec) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            expect(completed.returncode == 0, f"{workload} exited {completed.returncode}: "
                   f"{completed.stderr[-800:]}")
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared, f"{workload} trace={trace}: emitted {emitted}")
        print(f"ok   every workload emits every {section} metric with its unit")


def check_oracles_reject_corruption() -> None:
    for workload, (_, op) in workloads.WORKLOADS.items():
        scenario = workloads.build(workload, 3, "smoke")
        steps = scenario.steps(op)
        expect(not scenario.warm_up(steps), f"{workload}: warm-up failed")
        step = next(steps)
        result = step.run()
        expect(step.check(result), f"{workload}: the true answer was rejected")
        expect(not step.check(corrupt(result)), f"{workload}: a corrupted answer passed")

        scenario = workloads.build(workload, 3, "smoke")
        steps = scenario.steps(op)
        scenario.warm_up(steps)
        corrupted = (
            dataclasses.replace(s, run=lambda s=s: corrupt(s.run())) for s in steps
        )
        _, ok, failures = run.timed_loop(corrupted, 2, 60.0)
        expect(ok == [False, False] and len(failures) == 2,
               f"{workload}: the loop counted {ok} for corrupted answers")
    print("ok   every oracle rejects a corrupted answer and the loop counts it failed")


def check_seed_reproduces_inputs() -> None:
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 5, "smoke").inputs_digest()
        again = workloads.build(workload, 5, "smoke").inputs_digest()
        other = workloads.build(workload, 6, "smoke").inputs_digest()
        expect(first == again, f"{workload}: seed 5 gave two different inputs")
        expect(first != other, f"{workload}: seeds 5 and 6 gave the same inputs")
    print("ok   the seed reproduces identical inputs")


#: Most of an ``enumerate`` request that no wrapped layer may leave uncovered.
UNATTRIBUTED_SHARE = 0.05


def check_spans_nest_and_cover() -> None:
    for workload, scale in (("key_repairs.enumerate", "full"), ("fk_rewrite.sql", "smoke"),
                            ("mutate_query.query", "smoke")):
        _, steps, failures, _ = run.set_up(workload, 3, scale)
        tracer = Tracer()
        tracer.install()
        try:
            _, ok, _ = run.timed_loop(steps, 2, 60.0, tracer=tracer)
        finally:
            tracer.uninstall()
        expect(all(ok) and not failures, f"{workload}: wrong answers while traced")
        spans = tracer.spans
        for name, start, end, parent, op in spans:
            expect(start <= end, f"{workload}: span {name} ends before it starts")
            if parent >= 0:
                _, outer_start, outer_end, _, outer_op = spans[parent]
                expect(outer_start <= start and end <= outer_end and op == outer_op,
                       f"{workload}: span {name} is not inside its parent {spans[parent][0]}")
        if workload == "key_repairs.enumerate":
            roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
            uncovered = tracer.layer_metrics()["session.unattributed_ms"] * tracer.ops / 1000.0
            expect(uncovered < UNATTRIBUTED_SHARE * roots,
                   f"{workload}: no layer covers {uncovered / roots:.0%} of the requests")
    print("ok   traced spans nest, and the layers cover the enumerate request")


def check_fails_without_library(spec) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        completed = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    expect(completed.returncode != 0, "ran without the library source")
    expect('"metrics"' not in completed.stdout, "printed a result without the library source")
    print("ok   without the library source it exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check_seed_reproduces_inputs()
    check_oracles_reject_corruption()
    check_spans_nest_and_cover()
    check_fails_without_library(spec)
    check_emitted_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
