"""Shared helpers for the experiment benchmarks.

Every benchmark module reproduces one experiment of EXPERIMENTS.md: it
prints the table/series the experiment is about (who wins, by what factor,
where the crossover lies) and registers ``pytest-benchmark`` timings for
the operations involved so that ``pytest benchmarks/ --benchmark-only``
yields both the qualitative result and the timing table.

Each table is also available as a JSON record of the shared shape
``{"experiment": <title>, "headers": [...], "rows": [[...], ...]}``:
:func:`emit_json` prints it (or writes it to a file), and
:func:`print_table` emits it automatically into the directory named by
the ``REPRO_BENCH_JSON`` environment variable when that is set, so every
``bench_e*`` script produces machine-readable results the same way.

Repair-engine benchmarks report the counters of
:class:`repro.core.repairs.RepairStatistics`; besides the search-tree
counts (``states_explored``, ``candidates_found``, ``repairs_found``,
``dead_branches``) these include the instrumentation added with the
incremental engine:

* ``violation_updates`` — incremental tracker updates, one per fact
  add/delete along the search (``method="incremental"`` only);
* ``constraints_reevaluated`` — seeded per-constraint update passes the
  tracker ran; the gap to ``violation_updates × |IC|`` measures how much
  the predicate → constraint index pruned;
* ``leq_d_comparisons`` — pairwise ``≤_D`` checks in the minimality
  filter (quadratic in the candidate count; ``DeltaMinimality`` checks
  for the frontier search, definitional ``leq_deltas`` calls for
  ``naive``);
* ``search_seconds`` / ``minimality_seconds`` — wall-clock split between
  candidate enumeration and the ``≤_D`` filter, so a benchmark can tell
  which phase a configuration is bound by.

Session-level benchmarks (E13) additionally report the counters of
:class:`repro.session.ConsistentDatabase`: the LRU effectiveness
numbers of ``cache_info()`` (hits/misses/evictions across rewritten
queries, plans, conflict graphs, repair lists and answer sets) and
``statistics.tracker_rebuilds`` (full violation sweeps — a healthy
warm session performs exactly one, on first use, regardless of how many
mutations and queries follow).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.clock import now

if TYPE_CHECKING:
    from repro.workloads.case import ScenarioCase


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(result, wall seconds)`` of one call, read off the obs clock.

    Every benchmark times through :func:`repro.obs.clock.now` — the same
    injectable clock the spans and engine statistics use — so a test can
    install a :class:`repro.obs.clock.FakeClock` and make the whole
    timing path deterministic.
    """

    started = now()
    result = fn()
    return result, now() - started


def best_of(fn: Callable[[], object], reps: int = 3) -> Tuple[object, float]:
    """The best (minimum) wall-clock over *reps* calls, damping scheduler noise."""

    best = float("inf")
    result: object = None
    for _ in range(max(reps, 1)):
        result, elapsed = timed(fn)
        best = min(best, elapsed)
    return result, best


#: Where the pinned regression corpus lives, relative to this file.
_CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def corpus_workload(
    n_random: int = 6, seed: int = 2001
) -> List["ScenarioCase"]:
    """A mixed benchmark workload: the pinned corpus plus seeded scenarios.

    Loads every witness document under ``tests/corpus/`` (the explorer's
    shrunk regression cases — small, adversarial, null-heavy) and tops
    the list up with *n_random* :func:`repro.workloads.random_scenario`
    cases derived from *seed*.  Deterministic for fixed arguments, so a
    benchmark sweeping this workload measures the same cases on every
    run; E15 uses it to check the kernel and naive paths agree beyond the
    synthetic grouped-key instances.
    """

    from repro.explore.serialize import document_to_case, loads
    from repro.workloads import random_scenario

    cases: List["ScenarioCase"] = []
    for path in sorted(_CORPUS_DIR.glob("*.json")):
        cases.append(document_to_case(loads(path.read_text())))
    for index in range(max(n_random, 0)):
        cases.append(random_scenario(seed=seed + index))
    return cases


def _json_record(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> Dict[str, object]:
    return {
        "experiment": title,
        "headers": list(headers),
        "rows": [[cell for cell in row] for row in rows],
    }


def emit_json(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    path: Optional[str] = None,
) -> Dict[str, object]:
    """Emit the experiment series as JSON; print to stdout unless *path* given."""

    record = _json_record(title, headers, rows)
    rendered = json.dumps(record, indent=2, default=str)
    if path is None:
        print(rendered)
    else:
        Path(path).write_text(rendered + "\n")
    return record


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a small aligned table; used for the per-experiment result series.

    When ``REPRO_BENCH_JSON`` names a directory, the same series is also
    written there as ``<slugified-title>.json``.
    """

    original: List[List[object]] = [list(row) for row in rows]
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in original]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers))
    separator = "-" * len(line)
    print()
    print(f"== {title} ==")
    print(line)
    print(separator)
    for row in materialised:
        print("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    print(separator)

    json_dir = os.environ.get("REPRO_BENCH_JSON")
    if json_dir:
        directory = Path(json_dir)
        directory.mkdir(parents=True, exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:80] or "experiment"
        emit_json(title, headers, original, path=str(directory / f"{slug}.json"))
