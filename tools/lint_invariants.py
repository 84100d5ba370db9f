#!/usr/bin/env python3
"""AST lint enforcing the repository's cross-cutting invariants.

The architectural rules that keep the codebase honest are not expressible
in off-the-shelf linters, so this stdlib-only script walks the AST of
every Python file and enforces them as CI-gated errors:

========  ====================================================================
Rule      Invariant
========  ====================================================================
INV001    clock discipline: no ``time.perf_counter`` / ``time.process_time``
          outside ``src/repro/obs/clock.py`` — all timing goes through the
          swappable clock so tests can use the deterministic ``FakeClock``
INV002    pool ownership: no ``ProcessPoolExecutor`` / ``multiprocessing.Pool``
          outside ``src/repro/core/parallel.py`` — one owner for worker
          lifecycle, warm reuse and fault-tolerant respawn
INV003    no broad exception handlers (bare ``except`` / ``except Exception``
          / ``except BaseException``) in the hot evaluation paths — they
          swallow the typed budget/cancellation errors the resilience layer
          depends on
INV004    kernel-free reference paths: the naive modules that cross-validate
          the compiled kernel, and the dict-based matcher they share
          (``repro.compile.matchers``), must never import ``repro.compile``
          (absolute or relative imports alike) — otherwise the
          bit-identical property suites would be circular
INV005    no ``print()`` under ``src/repro`` outside the CLI front ends —
          library output goes through tracing/metrics
INV006    retired: it kept the plan step interpreter codegen-free while
          that interpreter was the oracle for generated code; generated
          code is now the only plan executor, checked against the
          ``naive=True`` paths that INV004 keeps kernel-free
INV007    environment-switch ownership: no ``os.environ`` / ``os.getenv``
          under ``src/repro`` outside the modules that own the remaining
          switches (``obs/trace.py``, ``resilience/faults.py``,
          ``core/parallel.py``) — a new environment knob cannot land
          silently
INV008    no unreferenced definitions: a function, class or method under
          ``src/repro`` whose name appears nowhere else in ``src/``,
          ``tests/``, ``benchmarks/``, ``tools/``, ``examples/`` or
          ``perfbench/`` is dead code.  Dunders and decorated definitions
          (the engine and source registries register through decorators)
          are exempt; ``@property``/``@staticmethod``/``@classmethod``
          do not count as registration
INV009    one join executor for the rewriting: nothing under
          ``src/repro/rewriting/`` imports ``repro.compile.matchers`` —
          ``Q'`` joins through the compiled query plan, so a private
          bindings × rows loop cannot grow back
INV010    one repair materialiser: no ``from_facts(<a> - <b> | <c>)``-shaped
          call (directly, or through a name bound to that expression)
          outside ``FrontierCandidates`` in ``src/repro/core/parallel.py``
          — the frontier's candidate store builds each repair
          ``(D ∖ deleted) ∪ inserted`` once, for every consumer
INV011    one residue shape: no class under ``src/repro/rewriting/``
          derives from ``Residue`` (or from a residue class) other than
          ``ConstraintResidue`` and ``NotNullResidue`` — every rewriting
          residue is a ``(constraint, occurrence)`` violation condition, so
          a per-kind residue with hand-built renderings cannot grow back
========  ====================================================================

A line may opt out with the pragma comment ``lint: allow(INVxxx)`` and a
reason (for INV008, on the ``def``/``class`` line).  Usage::

    python tools/lint_invariants.py src tests
    python tools/lint_invariants.py --list-rules
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

RULES: Dict[str, str] = {
    "INV001": "time.perf_counter/process_time outside src/repro/obs/clock.py",
    "INV002": "ProcessPoolExecutor/multiprocessing.Pool outside src/repro/core/parallel.py",
    "INV003": "broad exception handler in a hot evaluation path",
    "INV004": "reference (kernel-free) module imports repro.compile",
    "INV005": "print() in library code under src/repro",
    "INV007": "os.environ/os.getenv under src/repro outside the switch owners",
    "INV008": "function/class/method under src/repro referenced nowhere else",
    "INV009": "rewriting module imports a private matcher instead of the compiled plan",
    "INV010": "repair (D - deleted) | inserted materialised outside the candidate store",
    "INV011": "rewriting residue class other than ConstraintResidue/NotNullResidue",
}

CLOCK_OWNER = "src/repro/obs/clock.py"
POOL_OWNER = "src/repro/core/parallel.py"
#: Modules/packages whose exception handling must stay narrow: the
#: compiled kernel, logic evaluation, the relational layer and the
#: repair search all propagate typed budget/cancellation errors.
HOT_PATHS = (
    "src/repro/compile/",
    "src/repro/logic/",
    "src/repro/relational/",
    "src/repro/core/satisfaction.py",
    "src/repro/core/repairs.py",
)
#: The deliberately kernel-free naive reference paths that the
#: bit-identical property suites cross-validate the compiled kernel
#: against, and the dict-based matcher their ``naive=True`` joins share.
REFERENCE_MODULES = frozenset(
    {
        "src/repro/compile/matchers.py",
        "src/repro/logic/evaluation.py",
        "src/repro/core/classic.py",
        "src/repro/core/semantics.py",
        "src/repro/core/hcf.py",
        "src/repro/core/transform.py",
        "src/repro/core/projection.py",
        "src/repro/core/relevant.py",
        "src/repro/asp/stable.py",
        "src/repro/asp/shift.py",
        "src/repro/asp/syntax.py",
    }
)
#: The modules that own the library's environment switches:
#: ``REPRO_TRACE``, ``REPRO_CHAOS`` and ``REPRO_SHIP_AUDIT``.
ENV_OWNERS = frozenset(
    {
        "src/repro/obs/trace.py",
        "src/repro/resilience/faults.py",
        "src/repro/core/parallel.py",
    }
)
ENV_NAMES = frozenset({"environ", "environb", "getenv"})
#: The rewriting package, which joins only through the compiled query plan.
REWRITING_PACKAGE = "src/repro/rewriting/"
#: The dotted names a rewriting module must not import (INV009), with the
#: ``repro.compile`` package re-exports of the same routines.
PRIVATE_MATCHERS = frozenset(
    {
        "repro.compile.matchers",
        "repro.compile.extend_match",
        "repro.compile.match_atom",
    }
)
#: The only residue classes the rewriting package may define (INV011).
RESIDUE_SHAPES = frozenset({"ConstraintResidue", "NotNullResidue"})
RESIDUE_BASES = RESIDUE_SHAPES | {"Residue"}
#: The one repair materialiser (INV010): this class of this module.
STORE_OWNER = ("src/repro/core/parallel.py", "FrontierCandidates")
#: CLI front ends whose job is to print.
PRINT_ALLOWED = frozenset(
    {
        "src/repro/lint.py",
        "src/repro/explore/cli.py",
        "src/repro/compile/__main__.py",
    }
)

#: Where a definition under ``src/repro`` may be referenced from (INV008).
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "tools", "examples", "perfbench")
#: Decorators that only shape a definition and so do not exempt it from
#: INV008 the way a registering decorator does.
PLAIN_DECORATORS = frozenset(
    {"property", "staticmethod", "classmethod", "cached_property", "setter", "deleter"}
)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

TIMING_NAMES = frozenset({"perf_counter", "process_time"})
BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


@dataclass(frozen=True)
class Violation:
    """One invariant violation at a specific location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _is_time_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in TIMING_NAMES
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
    )


def _broad_handler_name(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad exception name a handler catches, or ``None`` if narrow."""

    if handler.type is None:
        return "bare except"
    candidates: List[ast.expr] = (
        list(handler.type.elts) if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for expr in candidates:
        if isinstance(expr, ast.Name) and expr.id in BROAD_EXCEPTIONS:
            return expr.id
    return None


def _resolve_import_from(rel_path: str, node: ast.ImportFrom) -> Optional[str]:
    """The absolute dotted module an ``ImportFrom`` targets, or ``None``.

    Relative imports are resolved against the importing file's package so
    ``from ..compile import kernel`` inside ``src/repro/core/classic.py``
    is seen as ``repro.compile`` (and its ``kernel`` alias as
    ``repro.compile.kernel``).  Files outside ``src/`` cannot anchor a
    relative import, so those return ``None``.
    """

    if node.level == 0:
        return node.module
    parts = rel_path.split("/")
    if parts[0] != "src" or not parts[-1].endswith(".py"):
        return None
    package = parts[1:-1]  # the file's package, e.g. ["repro", "compile"]
    if node.level - 1 > len(package):
        return None
    anchor = package[: len(package) - (node.level - 1)]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor) if anchor else None


def _imported_names(rel_path: str, node: ast.AST) -> List[str]:
    """Every dotted name an import statement binds (module and members)."""

    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = _resolve_import_from(rel_path, node)
        if base is not None:
            return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def _base_name(base: ast.expr) -> Optional[str]:
    """The class name a base expression refers to (``Residue``, ``m.Residue``)."""

    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _is_repair_expression(node: Optional[ast.AST]) -> bool:
    """``<a> - <b> | <c>``: a base set minus deletions, plus insertions."""

    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitOr)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
    )


def _materialiser_calls(rel_path: str, tree: ast.AST) -> List[ast.Call]:
    """``from_facts`` calls building a repair outside the candidate store."""

    repair_names = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_repair_expression(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    exempt = set()
    if rel_path == STORE_OWNER[0]:
        exempt = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == STORE_OWNER[1]
            for inner in ast.walk(node)
        }
    calls = []
    for node in ast.walk(tree):
        if (
            not isinstance(node, ast.Call)
            or id(node) in exempt
            or not isinstance(node.func, ast.Attribute)
            or node.func.attr != "from_facts"
        ):
            continue
        facts = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "facts"), None
        )
        if _is_repair_expression(facts) or (
            isinstance(facts, ast.Name) and facts.id in repair_names
        ):
            calls.append(node)
    return calls


def check_source(rel_path: str, source: str) -> List[Violation]:
    """Every invariant violation in one file (*rel_path* is repo-relative, posix)."""

    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as error:
        return [
            Violation("INV000", rel_path, error.lineno or 0, f"file does not parse: {error.msg}")
        ]
    lines = source.splitlines()

    def allowed(node: ast.AST, rule: str) -> bool:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(lines):
            return f"lint: allow({rule})" in lines[lineno - 1]
        return False

    violations: List[Violation] = []
    in_library = rel_path.startswith("src/repro/")
    in_hot_path = any(
        rel_path == prefix or rel_path.startswith(prefix) for prefix in HOT_PATHS
    )

    for node in ast.walk(tree):
        # INV001 — clock discipline
        if rel_path != CLOCK_OWNER:
            if _is_time_attribute(node) and not allowed(node, "INV001"):
                assert isinstance(node, ast.Attribute)
                violations.append(
                    Violation(
                        "INV001",
                        rel_path,
                        node.lineno,
                        f"time.{node.attr} used directly; route timing through "
                        "repro.obs.clock (now()/cpu_now()) so tests can fake it",
                    )
                )
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name in TIMING_NAMES for alias in node.names)
                and not allowed(node, "INV001")
            ):
                violations.append(
                    Violation(
                        "INV001",
                        rel_path,
                        node.lineno,
                        "importing perf_counter/process_time from time; use "
                        "repro.obs.clock instead",
                    )
                )

        # INV002 — pool ownership
        if rel_path != POOL_OWNER and not allowed(node, "INV002"):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "concurrent.futures"
                and any(alias.name == "ProcessPoolExecutor" for alias in node.names)
            ) or (isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor"):
                violations.append(
                    Violation(
                        "INV002",
                        rel_path,
                        node.lineno,
                        "ProcessPoolExecutor outside repro.core.parallel; worker "
                        "pools have one owner (warm reuse, fault-tolerant respawn)",
                    )
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "Pool"
                and isinstance(node.value, ast.Name)
                and node.value.id == "multiprocessing"
            ):
                violations.append(
                    Violation(
                        "INV002",
                        rel_path,
                        node.lineno,
                        "multiprocessing.Pool outside repro.core.parallel",
                    )
                )

        # INV003 — broad except in hot paths
        if in_hot_path and isinstance(node, ast.ExceptHandler):
            broad = _broad_handler_name(node)
            if broad is not None and not allowed(node, "INV003"):
                violations.append(
                    Violation(
                        "INV003",
                        rel_path,
                        node.lineno,
                        f"{broad} in a hot evaluation path swallows the typed "
                        "budget/cancellation errors; catch specific exceptions",
                    )
                )

        # INV004 — kernel-free reference modules
        if rel_path in REFERENCE_MODULES and not allowed(node, "INV004"):
            if any(
                name == "repro.compile" or name.startswith("repro.compile.")
                for name in _imported_names(rel_path, node)
            ):
                violations.append(
                    Violation(
                        "INV004",
                        rel_path,
                        node.lineno,
                        "reference module imports repro.compile; the naive "
                        "paths must stay kernel-free so the bit-identical "
                        "cross-validation is never circular",
                    )
                )

        # INV009 — one join executor for the rewriting
        if rel_path.startswith(REWRITING_PACKAGE) and not allowed(node, "INV009"):
            if any(
                name in PRIVATE_MATCHERS or name.startswith("repro.compile.matchers.")
                for name in _imported_names(rel_path, node)
            ):
                violations.append(
                    Violation(
                        "INV009",
                        rel_path,
                        node.lineno,
                        "rewriting module imports a private matcher; evaluate "
                        "Q' through the compiled query plan "
                        "(repro.compile.kernel.compiled_query + codegen.matcher)",
                    )
                )

        # INV007 — environment-switch ownership
        if in_library and rel_path not in ENV_OWNERS and not allowed(node, "INV007"):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in ENV_NAMES for alias in node.names)
            ):
                violations.append(
                    Violation(
                        "INV007",
                        rel_path,
                        node.lineno,
                        "environment read outside the switch owners; a new "
                        "environment knob needs a deliberate owner (add the "
                        "module to ENV_OWNERS)",
                    )
                )

        # INV005 — no print() in library code
        if (
            in_library
            and rel_path not in PRINT_ALLOWED
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not allowed(node, "INV005")
        ):
            violations.append(
                Violation(
                    "INV005",
                    rel_path,
                    node.lineno,
                    "print() in library code; use repro.obs tracing/metrics "
                    "(or add the module to the CLI allowlist)",
                )
            )

    # INV011 — one residue shape
    if rel_path.startswith(REWRITING_PACKAGE):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name not in RESIDUE_SHAPES
                and any(_base_name(base) in RESIDUE_BASES for base in node.bases)
                and not allowed(node, "INV011")
            ):
                violations.append(
                    Violation(
                        "INV011",
                        rel_path,
                        node.lineno,
                        f"residue class {node.name!r}; express the condition as "
                        "ConstraintResidue(constraint, occurrence), whose "
                        "plan, formula and SQL renderings are generic",
                    )
                )

    # INV010 — one repair materialiser
    for call in _materialiser_calls(rel_path, tree):
        if not allowed(call, "INV010"):
            violations.append(
                Violation(
                    "INV010",
                    rel_path,
                    call.lineno,
                    "repair materialised outside the candidate store; build "
                    "it through repro.core.parallel.FrontierCandidates.instance "
                    "so each repair is built once for every consumer",
                )
            )

    return violations


def _registers(decorator: ast.expr) -> bool:
    """Does the decorator (possibly) register the definition somewhere?"""

    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Name):
        return decorator.id not in PLAIN_DECORATORS
    if isinstance(decorator, ast.Attribute):
        return decorator.attr not in PLAIN_DECORATORS
    return True


def unreferenced_definitions(
    library: Mapping[str, str], corpus: Iterable[str]
) -> List[Violation]:
    """INV008 over *library* (repo-relative path → source of a ``src/repro`` file).

    A definition is unreferenced when its name occurs exactly once as an
    identifier across *corpus* (the texts of every file that may refer
    to it, the defining file included) — i.e. only at the definition.
    """

    occurrences: Counter = Counter()
    for text in corpus:
        occurrences.update(_IDENTIFIER.findall(text))
    violations: List[Violation] = []
    for rel_path, source in sorted(library.items()):
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError:
            continue  # check_source reports it as INV000
        lines = source.splitlines()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(_registers(decorator) for decorator in node.decorator_list):
                continue
            if occurrences[name] > 1 or "lint: allow(INV008)" in lines[node.lineno - 1]:
                continue
            violations.append(
                Violation(
                    "INV008",
                    rel_path,
                    node.lineno,
                    f"{name!r} is referenced nowhere in "
                    f"{', '.join(REFERENCE_ROOTS)}; delete it",
                )
            )
    return violations


def _python_files(target: Path) -> List[Path]:
    if target.is_dir():
        return sorted(target.rglob("*.py"))
    return [target] if target.exists() else []


def check_paths(paths: Sequence[str], root: Path) -> List[Violation]:
    """Check every ``*.py`` file under *paths* (files or directories).

    INV008 runs over the ``src/repro`` files among them, with every
    ``*.py`` file under :data:`REFERENCE_ROOTS` as the reference corpus.
    """

    violations: List[Violation] = []
    library: Dict[str, str] = {}
    for raw in paths:
        target = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        for file in _python_files(target):
            try:
                rel = file.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = file.as_posix()
            source = file.read_text(encoding="utf-8")
            violations.extend(check_source(rel, source))
            if rel.startswith("src/repro/"):
                library[rel] = source
    if library:
        corpus = (
            file.read_text(encoding="utf-8")
            for top in REFERENCE_ROOTS
            for file in _python_files(root / top)
        )
        violations.extend(unreferenced_definitions(library, corpus))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository invariant lint")
    parser.add_argument("paths", nargs="*", default=["src", "tests"], help="files or directories")
    parser.add_argument("--list-rules", action="store_true", help="print the rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0

    root = Path(__file__).resolve().parent.parent
    violations = check_paths(args.paths or ["src", "tests"], root)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariant lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
