"""tools/lint_invariants.py: each rule, the pragma, and the repo itself."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load():
    spec = importlib.util.spec_from_file_location(
        "lint_invariants", ROOT / "tools" / "lint_invariants.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass processing resolves the module
    spec.loader.exec_module(module)
    return module


lint = _load()


def rules_for(path, source):
    return [violation.rule for violation in lint.check_source(path, source)]


class TestINV001ClockDiscipline:
    def test_direct_call_is_flagged(self):
        assert rules_for("src/repro/core/x.py", "import time\nt = time.perf_counter()\n") == [
            "INV001"
        ]

    def test_from_import_is_flagged(self):
        assert rules_for("tests/test_x.py", "from time import perf_counter\n") == ["INV001"]

    def test_process_time_is_flagged(self):
        assert "INV001" in rules_for("tests/test_x.py", "import time\ntime.process_time()\n")

    def test_monotonic_is_allowed(self):
        assert rules_for("src/repro/core/x.py", "import time\ntime.monotonic()\n") == []

    def test_the_clock_module_owns_the_primitives(self):
        assert rules_for("src/repro/obs/clock.py", "import time\ntime.perf_counter()\n") == []


class TestINV002PoolOwnership:
    def test_executor_import_is_flagged(self):
        source = "from concurrent.futures import ProcessPoolExecutor\n"
        assert rules_for("src/repro/core/x.py", source) == ["INV002"]

    def test_executor_attribute_is_flagged(self):
        source = "import concurrent.futures\nconcurrent.futures.ProcessPoolExecutor()\n"
        assert rules_for("tests/test_x.py", source) == ["INV002"]

    def test_multiprocessing_pool_is_flagged(self):
        source = "import multiprocessing\nmultiprocessing.Pool(2)\n"
        assert rules_for("src/repro/core/x.py", source) == ["INV002"]

    def test_active_children_is_allowed(self):
        source = "import multiprocessing\nmultiprocessing.active_children()\n"
        assert rules_for("tests/chaos/conftest.py", source) == []

    def test_the_parallel_module_owns_the_pool(self):
        source = "from concurrent.futures import ProcessPoolExecutor\n"
        assert rules_for("src/repro/core/parallel.py", source) == []


class TestINV003BroadExcept:
    HOT = "src/repro/logic/evaluation.py"
    COLD = "src/repro/obs/trace.py"
    BARE = "try:\n    x = 1\nexcept:\n    pass\n"
    BROAD = "try:\n    x = 1\nexcept Exception:\n    pass\n"
    TUPLE = "try:\n    x = 1\nexcept (ValueError, BaseException):\n    pass\n"
    NARROW = "try:\n    x = 1\nexcept ValueError:\n    pass\n"

    def test_bare_except_in_hot_path(self):
        assert rules_for(self.HOT, self.BARE) == ["INV003"]

    def test_except_exception_in_hot_path(self):
        assert rules_for(self.HOT, self.BROAD) == ["INV003"]

    def test_broad_member_of_a_tuple_in_hot_path(self):
        assert rules_for(self.HOT, self.TUPLE) == ["INV003"]

    def test_narrow_except_is_allowed(self):
        assert rules_for(self.HOT, self.NARROW) == []

    def test_cold_paths_may_be_defensive(self):
        assert rules_for(self.COLD, self.BROAD) == []


class TestINV004KernelFreeReferences:
    def test_reference_module_importing_the_kernel_is_flagged(self):
        for source in (
            "import repro.compile\n",
            "from repro.compile import kernel\n",
            "from repro.compile.kernel import CompiledProgram\n",
        ):
            assert rules_for("src/repro/core/classic.py", source) == ["INV004"]

    def test_relative_imports_are_resolved(self):
        for source in (
            "from ..compile import kernel\n",
            "from ..compile.kernel import CompiledProgram\n",
            "from .. import compile\n",
        ):
            assert rules_for("src/repro/core/classic.py", source) == ["INV004"], source

    def test_the_shared_reference_matcher_is_kernel_free(self):
        for source in (
            "from repro.compile import kernel\n",
            "from repro.compile.codegen import matcher\n",
            "from .kernel import compiled_constraint\n",
            "from . import codegen\n",
        ):
            assert rules_for("src/repro/compile/matchers.py", source) == ["INV004"], source

    def test_non_reference_modules_may_use_the_kernel(self):
        assert rules_for("src/repro/core/repairs.py", "import repro.compile\n") == []
        source = "from repro.compile import codegen\n"
        assert rules_for("src/repro/compile/kernel.py", source) == []


class TestINV009OneRewritingJoinExecutor:
    def test_private_matcher_imports_are_flagged(self):
        for source in (
            "import repro.compile.matchers\n",
            "from repro.compile import matchers\n",
            "from repro.compile.matchers import extend_match\n",
            "from repro.compile import extend_match\n",
        ):
            assert rules_for("src/repro/rewriting/rewriter.py", source) == ["INV009"], source

    def test_relative_imports_are_resolved(self):
        source = "from ..compile.matchers import match_atom\n"
        assert rules_for("src/repro/rewriting/residues.py", source) == ["INV009"]

    def test_the_compiled_plan_is_allowed(self):
        source = (
            "from repro.compile import codegen as _codegen\n"
            "from repro.compile.kernel import compiled_constraint, compiled_query\n"
            "from repro.compile.plans import JoinPlan\n"
        )
        assert rules_for("src/repro/rewriting/rewriter.py", source) == []

    def test_other_packages_may_use_the_matchers(self):
        source = "from repro.compile.matchers import extend_match\n"
        assert rules_for("src/repro/logic/queries.py", source) == []

    def test_pragma_opts_a_line_out(self):
        source = "from repro.compile.matchers import extend_match  # lint: allow(INV009) reason\n"
        assert rules_for("src/repro/rewriting/residues.py", source) == []


class TestINV010OneRepairMaterialiser:
    #: The shapes of the two repair builders the candidate store replaced.
    ENGINE_SITE = (
        "class RepairEngine:\n"
        "    @staticmethod\n"
        "    def build_all(instance, found):\n"
        "        schema = instance.schema\n"
        "        base_facts = instance.fact_set()\n"
        "        return [\n"
        "            DatabaseInstance.from_facts((base_facts - deleted) | inserted, schema=schema)\n"
        "            for _, inserted, deleted in found\n"
        "        ]\n"
    )
    STREAM_SITE = (
        "class AnytimeRepairStream:\n"
        "    def build_one(self, entry):\n"
        "        facts = (self._base_facts - entry.deleted) | entry.inserted\n"
        "        return DatabaseInstance.from_facts(facts, schema=self._schema)\n"
    )
    STORE = (
        "class FrontierCandidates:\n"
        "    def instance(self, index):\n"
        "        _, inserted, deleted = self.candidates[index]\n"
        "        return DatabaseInstance.from_facts(\n"
        "            (self._base_facts - deleted) | inserted, schema=self._schema\n"
        "        )\n"
    )

    def test_the_replaced_builders_are_flagged(self):
        assert rules_for("src/repro/core/repairs.py", self.ENGINE_SITE) == ["INV010"]
        assert rules_for("src/repro/core/parallel.py", self.STREAM_SITE) == ["INV010"]

    def test_a_keyword_argument_is_flagged(self):
        source = "DatabaseInstance.from_facts(facts=(base - gone) | new)\n"
        assert rules_for("benchmarks/bench_x.py", source) == ["INV010"]

    def test_the_store_is_the_one_builder(self):
        assert rules_for("src/repro/core/parallel.py", self.STORE) == []
        # The exemption is the store in its module, not the class name.
        assert rules_for("src/repro/core/repairs.py", self.STORE) == ["INV010"]

    def test_other_instance_builds_are_allowed(self):
        source = (
            "a = DatabaseInstance.from_facts(kept + added, schema=schema)\n"
            "b = DatabaseInstance.from_facts(base - gone)\n"
            "c = DatabaseInstance.from_facts(payload[1])\n"
        )
        assert rules_for("src/repro/core/repairs.py", source) == []

    def test_pragma_opts_a_line_out(self):
        source = "DatabaseInstance.from_facts((b - d) | i)  # lint: allow(INV010) reason\n"
        assert rules_for("tests/core/test_x.py", source) == []


class TestINV011OneResidueShape:
    def test_a_per_kind_residue_is_flagged(self):
        for source in (
            "class KeyResidue(Residue):\n    pass\n",
            "class ForeignKeyResidue(residues.Residue):\n    pass\n",
            "class PairResidue(ConstraintResidue):\n    pass\n",
        ):
            assert rules_for("src/repro/rewriting/residues.py", source) == ["INV011"], source
        source = "class JoinResidue(Residue):\n    pass\n"
        assert rules_for("src/repro/rewriting/rewriter.py", source) == ["INV011"]

    def test_the_two_shapes_are_allowed(self):
        source = (
            "class Residue:\n    pass\n"
            "class NotNullResidue(Residue):\n    pass\n"
            "class ConstraintResidue(Residue):\n    pass\n"
            "class FreshVariables:\n    pass\n"
        )
        assert rules_for("src/repro/rewriting/residues.py", source) == []

    def test_other_packages_are_not_checked(self):
        source = "class CountingResidue(Residue):\n    pass\n"
        assert rules_for("tests/rewriting/test_x.py", source) == []

    def test_pragma_opts_a_line_out(self):
        source = "class SketchResidue(Residue):  # lint: allow(INV011) reason\n    pass\n"
        assert rules_for("src/repro/rewriting/residues.py", source) == []


class TestINV005NoPrint:
    def test_print_in_library_code_is_flagged(self):
        assert rules_for("src/repro/core/x.py", "print('hi')\n") == ["INV005"]

    def test_the_cli_front_end_may_print(self):
        assert rules_for("src/repro/lint.py", "print('hi')\n") == []

    def test_tests_may_print(self):
        assert rules_for("tests/test_x.py", "print('hi')\n") == []


class TestINV007EnvironmentSwitchOwners:
    def test_environ_read_in_library_code_is_flagged(self):
        for source in (
            "import os\nflag = os.environ.get('REPRO_X')\n",
            "import os\nflag = os.environ['REPRO_X']\n",
            "import os\nflag = os.getenv('REPRO_X')\n",
            "from os import environ\n",
            "from os import getenv\n",
        ):
            assert rules_for("src/repro/compile/codegen.py", source) == ["INV007"]

    def test_the_switch_owners_may_read_the_environment(self):
        source = "import os\nflag = os.environ.get('REPRO_X')\n"
        for owner in (
            "src/repro/obs/trace.py",
            "src/repro/resilience/faults.py",
            "src/repro/core/parallel.py",
        ):
            assert rules_for(owner, source) == []

    def test_tests_and_tools_may_read_the_environment(self):
        source = "import os\nflag = os.environ.get('REPRO_X')\n"
        assert rules_for("tests/test_x.py", source) == []
        assert rules_for("tools/x.py", source) == []

    def test_other_os_attributes_stay_allowed(self):
        source = "import os\npath = os.path.join('a', 'b')\n"
        assert rules_for("src/repro/core/x.py", source) == []

    def test_pragma_opts_a_line_out(self):
        source = "import os\nflag = os.getenv('X')  # lint: allow(INV007) reason\n"
        assert rules_for("src/repro/core/x.py", source) == []


class TestINV008UnreferencedDefinitions:
    LIB = "src/repro/core/x.py"

    @staticmethod
    def flagged(source, *others):
        library = {TestINV008UnreferencedDefinitions.LIB: source}
        found = lint.unreferenced_definitions(library, [source, *others])
        return [violation.message.split("'")[1] for violation in found]

    def test_unreferenced_function_class_and_method_are_flagged(self):
        source = (
            "def lonely():\n    pass\n"
            "class Orphan:\n    def unused_method(self):\n        pass\n"
        )
        assert self.flagged(source) == ["lonely", "Orphan", "unused_method"]

    def test_a_reference_in_any_corpus_file_keeps_a_definition(self):
        source = "def helper():\n    pass\n"
        assert self.flagged(source, "from repro.core.x import helper\n") == []

    def test_a_reference_in_the_defining_file_keeps_a_definition(self):
        source = "def helper():\n    pass\n\ndef caller():\n    helper()\n"
        assert self.flagged(source) == ["caller"]

    def test_registering_decorators_exempt_a_definition(self):
        source = "@register_engine('x')\nclass XEngine:\n    pass\n"
        assert self.flagged(source, "register_engine\n") == []

    def test_property_and_static_methods_are_not_exempt(self):
        source = (
            "class C:\n"
            "    @property\n    def flag(self):\n        return 1\n"
            "    @staticmethod\n    def build():\n        return 2\n"
        )
        assert self.flagged(source, "C\n") == ["flag", "build"]

    def test_dunders_are_exempt(self):
        source = "class C:\n    def __repr__(self):\n        return ''\n"
        assert self.flagged(source, "C\n") == []

    def test_pragma_opts_a_definition_out(self):
        source = "def kept():  # lint: allow(INV008) public hook\n    pass\n"
        assert self.flagged(source) == []

    def test_only_library_files_are_checked(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_y.py").write_text("def test_nothing():\n    pass\n")
        assert lint.check_paths(["tests"], tmp_path) == []


class TestPragma:
    def test_allow_pragma_suppresses_on_the_flagged_line(self):
        source = "import time\nt = time.perf_counter()  # lint: allow(INV001) calibration\n"
        assert rules_for("tests/test_x.py", source) == []

    def test_pragma_is_rule_specific(self):
        source = "import time\nt = time.perf_counter()  # lint: allow(INV002)\n"
        assert rules_for("tests/test_x.py", source) == ["INV001"]


class TestSyntaxErrors:
    def test_unparseable_file_is_reported_not_crashed(self):
        assert rules_for("src/repro/x.py", "def broken(:\n") == ["INV000"]


class TestRepository:
    def test_the_repo_is_invariant_clean(self):
        violations = lint.check_paths(["src", "tests", "tools", "benchmarks"], ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_list_rules(self, capsys):
        assert lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "INV001", "INV002", "INV003", "INV004", "INV005", "INV007", "INV008",
            "INV009", "INV010", "INV011",
        ):
            assert rule in out
        assert "INV006" not in out  # retired
