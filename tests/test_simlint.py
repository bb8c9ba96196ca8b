"""simlint rule tests: one violating and one clean fixture per rule.

Each snippet is linted as if it lived at ``repro/sim/fake.py`` (inside the
simulation scope) unless the test is specifically about scope gating.
"""

import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.findings import infer_sim_scope, iter_python_files
from repro.analysis.simlint import RULES, Violation, lint_source

SIM_PATH = "repro/sim/fake.py"


def codes(violations):
    return [v.code for v in violations]


def lint(snippet, path=SIM_PATH, select=None):
    return lint_source(textwrap.dedent(snippet), path=path, select=select)


# --------------------------------------------------------------------- #
# SL000: syntax errors
# --------------------------------------------------------------------- #


def test_sl000_syntax_error_is_reported_not_raised():
    violations = lint("def broken(:\n")
    assert codes(violations) == ["SL000"]
    assert violations[0].line == 1


# --------------------------------------------------------------------- #
# SL001: wall-clock time
# --------------------------------------------------------------------- #


def test_sl001_flags_time_time():
    violations = lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        select=["SL001"],
    )
    assert codes(violations) == ["SL001"]
    assert violations[0].line == 5
    assert "SimClock" in violations[0].message


def test_sl001_flags_datetime_now():
    violations = lint(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """,
        select=["SL001"],
    )
    assert codes(violations) == ["SL001"]
    assert violations[0].line == 5


def test_sl001_clean_simclock_usage():
    violations = lint(
        """
        def stamp(clock):
            clock.advance(125)
            return clock.now
        """,
        select=["SL001"],
    )
    assert violations == []


def test_sl001_skipped_outside_sim_scope():
    snippet = """
        import time

        def stamp():
            return time.time()
        """
    assert lint(snippet, path="repro/experiments/plot.py", select=["SL001"]) == []
    assert codes(lint(snippet, path="repro/ssd/ftl.py", select=["SL001"])) == ["SL001"]


# --------------------------------------------------------------------- #
# SL002: unseeded RNG
# --------------------------------------------------------------------- #


def test_sl002_flags_stdlib_global_rng():
    violations = lint(
        """
        import random

        def pick(items):
            return random.choice(items)
        """,
        select=["SL002"],
    )
    assert codes(violations) == ["SL002"]
    assert violations[0].line == 5


def test_sl002_flags_unseeded_default_rng():
    violations = lint(
        """
        import numpy as np

        def make_rng():
            return np.random.default_rng()
        """,
        select=["SL002"],
    )
    assert codes(violations) == ["SL002"]
    assert violations[0].line == 5
    assert "seed" in violations[0].message


def test_sl002_clean_seeded_default_rng():
    violations = lint(
        """
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
        """,
        select=["SL002"],
    )
    assert violations == []


def test_sl002_flags_bare_np_random_alias():
    violations = lint(
        """
        import numpy as np

        def pick_rng(rng=None):
            return rng or np.random
        """,
        select=["SL002"],
    )
    assert codes(violations) == ["SL002"]
    assert "bare np.random" in violations[0].message


def test_sl002_flags_any_np_random_call_outside_allowlist():
    # exponential is not in the historical legacy list: the namespace is
    # flagged wholesale now, not function by function.
    violations = lint(
        """
        import numpy as np

        def draw():
            return np.random.exponential(2.0)
        """,
        select=["SL002"],
    )
    assert codes(violations) == ["SL002"]


def test_sl002_clean_explicit_bit_generator():
    violations = lint(
        """
        import numpy as np

        def make_rng(seed):
            return np.random.Generator(np.random.PCG64(seed))
        """,
        select=["SL002"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SL003: float division feeding latency
# --------------------------------------------------------------------- #


def test_sl003_flags_division_into_ns_name():
    violations = lint(
        """
        def cost(total, n):
            per_op_ns = total / n
            return per_op_ns
        """,
        select=["SL003"],
    )
    assert codes(violations) == ["SL003"]
    assert violations[0].line == 3


def test_sl003_flags_division_inside_delay():
    violations = lint(
        """
        def process(total, n):
            yield Delay(total / n)
        """,
        select=["SL003"],
    )
    assert codes(violations) == ["SL003"]
    assert violations[0].line == 3


def test_sl003_flags_division_in_cost_return():
    violations = lint(
        """
        def transfer_cost(size, width):
            return size / width
        """,
        select=["SL003"],
    )
    assert codes(violations) == ["SL003"]
    assert violations[0].line == 3


def test_sl003_clean_floor_division():
    violations = lint(
        """
        def cost(total, n):
            per_op_ns = total // n
            yield Delay(total // n)
            return per_op_ns
        """,
        select=["SL003"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SL004: non-ns unit suffixes
# --------------------------------------------------------------------- #


def test_sl004_flags_us_assignment():
    violations = lint(
        """
        def configure():
            timeout_us = 100
            return timeout_us
        """,
        select=["SL004"],
    )
    assert codes(violations) == ["SL004"]
    assert violations[0].line == 3


def test_sl004_flags_ms_parameter():
    violations = lint(
        """
        def wait(delay_ms):
            return delay_ms
        """,
        select=["SL004"],
    )
    assert codes(violations) == ["SL004"]
    assert violations[0].line == 2


def test_sl004_clean_ns_names_and_conversion_constants():
    violations = lint(
        """
        NS_PER_US = 1000

        def wait(delay_ns):
            timeout_ns = delay_ns * 2
            return timeout_ns
        """,
        select=["SL004"],
    )
    assert violations == []


def test_sl004_skipped_outside_sim_scope():
    snippet = """
        def wait(delay_ms):
            return delay_ms
        """
    assert lint(snippet, path="repro/workloads/gen.py", select=["SL004"]) == []


# --------------------------------------------------------------------- #
# SL005: unknown yields in DES processes
# --------------------------------------------------------------------- #


def test_sl005_flags_non_command_yield():
    violations = lint(
        """
        def process(lock):
            yield Delay(10)
            yield 42
        """,
        select=["SL005"],
    )
    assert codes(violations) == ["SL005"]
    assert violations[0].line == 4


def test_sl005_flags_unknown_call_yield():
    violations = lint(
        """
        def process(lock):
            yield Acquire(lock)
            yield Sleep(10)
            yield Release(lock)
        """,
        select=["SL005"],
    )
    assert codes(violations) == ["SL005"]
    assert violations[0].line == 4
    assert "Sleep" in violations[0].message


def test_sl005_clean_command_only_process():
    violations = lint(
        """
        def process(lock, cmd):
            yield Acquire(lock)
            yield Delay(10)
            yield cmd
            yield Release(lock)
        """,
        select=["SL005"],
    )
    assert violations == []


def test_sl005_ignores_plain_generators():
    violations = lint(
        """
        def numbers():
            yield 1
            yield 2
        """,
        select=["SL005"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SL006: lock balance
# --------------------------------------------------------------------- #


def test_sl006_flags_acquire_without_release():
    violations = lint(
        """
        def process(lock):
            yield Acquire(lock)
            yield Delay(10)
        """,
        select=["SL006"],
    )
    assert codes(violations) == ["SL006"]
    assert violations[0].line == 3
    assert "never released" in violations[0].message


def test_sl006_flags_release_missing_on_every_path():
    violations = lint(
        """
        def process(lock, fast):
            yield Acquire(lock)
            if fast:
                yield Delay(1)
            else:
                yield Delay(10)
            yield Delay(5)
        """,
        select=["SL006"],
    )
    assert codes(violations) == ["SL006"]
    assert violations[0].line == 3


def test_sl006_clean_balanced_process():
    violations = lint(
        """
        def process(lock):
            yield Acquire(lock)
            yield Delay(10)
            yield Release(lock)
        """,
        select=["SL006"],
    )
    assert violations == []


def test_sl006_clean_conditional_acquire_release_pair():
    # The database app acquires and releases under the same condition —
    # balanced on every path, so the rule must stay quiet.
    violations = lint(
        """
        def commit(self, lock, centralized):
            if centralized:
                yield Acquire(lock)
            yield Delay(10)
            if centralized:
                yield Release(lock)
        """,
        select=["SL006"],
    )
    assert violations == []


def test_sl006_clean_early_return_after_release():
    violations = lint(
        """
        def process(lock, flag):
            yield Acquire(lock)
            if flag:
                yield Release(lock)
                return
            yield Delay(5)
            yield Release(lock)
        """,
        select=["SL006"],
    )
    assert violations == []


def test_sl006_flags_slot_leak():
    violations = lint(
        """
        def process(sem):
            yield AcquireSlot(sem)
            yield Delay(10)
        """,
        select=["SL006"],
    )
    assert codes(violations) == ["SL006"]
    assert violations[0].line == 3
    assert "slot" in violations[0].message


# --------------------------------------------------------------------- #
# SL007: undeclared stats attributes
# --------------------------------------------------------------------- #


def test_sl007_flags_typoed_counter():
    violations = lint(
        """
        class Device:
            def __init__(self, stats):
                self.reads = stats.counter("reads")

            def read(self):
                self.reeds.add()
        """,
        select=["SL007"],
    )
    assert codes(violations) == ["SL007"]
    assert violations[0].line == 7
    assert "reeds" in violations[0].message


def test_sl007_clean_declared_counter():
    violations = lint(
        """
        class Device:
            def __init__(self, stats):
                self.reads = stats.counter("reads")

            def read(self):
                self.reads.add()
        """,
        select=["SL007"],
    )
    assert violations == []


def test_sl007_resolves_in_module_base_classes():
    violations = lint(
        """
        class Base:
            def __init__(self, stats):
                self.hits = stats.counter("hits")

        class Cache(Base):
            def lookup(self):
                self.hits.add()
        """,
        select=["SL007"],
    )
    assert violations == []


def test_sl007_skips_classes_with_imported_bases():
    violations = lint(
        """
        from somewhere import External

        class Cache(External):
            def lookup(self):
                self.hits.add()
        """,
        select=["SL007"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SL008: mutable default arguments
# --------------------------------------------------------------------- #


def test_sl008_flags_list_default():
    violations = lint(
        """
        def gather(items=[]):
            return items
        """,
        select=["SL008"],
    )
    assert codes(violations) == ["SL008"]
    assert violations[0].line == 2


def test_sl008_flags_dict_call_default():
    violations = lint(
        """
        def gather(*, table=dict()):
            return table
        """,
        select=["SL008"],
    )
    assert codes(violations) == ["SL008"]
    assert violations[0].line == 2


def test_sl008_clean_none_default():
    violations = lint(
        """
        def gather(items=None):
            return list(items or ())
        """,
        select=["SL008"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SL009: fault draws must come from the injected seeded RNG
# --------------------------------------------------------------------- #

FAULTS_PATH = "repro/faults/chaos.py"


def test_sl009_flags_stdlib_random_import():
    violations = lint(
        """
        import random

        def roll():
            return random.random()
        """,
        path=FAULTS_PATH,
        select=["SL009"],
    )
    assert codes(violations) == ["SL009"]


def test_sl009_flags_unseeded_default_rng():
    violations = lint(
        """
        import numpy as np

        def make_stream():
            return np.random.default_rng()
        """,
        path=FAULTS_PATH,
        select=["SL009"],
    )
    assert codes(violations) == ["SL009"]


def test_sl009_flags_legacy_numpy_global():
    violations = lint(
        """
        import numpy as np

        def roll():
            return np.random.uniform()
        """,
        path=FAULTS_PATH,
        select=["SL009"],
    )
    assert codes(violations) == ["SL009"]


def test_sl009_clean_seeded_rng():
    violations = lint(
        """
        import numpy as np

        def make_stream(seed, site_hash):
            return np.random.default_rng((seed, site_hash))
        """,
        path=FAULTS_PATH,
        select=["SL009"],
    )
    assert violations == []


def test_sl009_flags_bare_np_random_alias():
    violations = lint(
        """
        import numpy as np

        def stream_for(site, rng=None):
            return rng if rng is not None else np.random
        """,
        path=FAULTS_PATH,
        select=["SL009"],
    )
    assert codes(violations) == ["SL009"]
    assert "bare np.random" in violations[0].message


def test_sl009_only_applies_inside_faults_package():
    snippet = """
        import random

        def roll():
            return random.random()
        """
    assert lint(snippet, path="repro/workloads/gen.py", select=["SL009"]) == []
    assert codes(lint(snippet, path=FAULTS_PATH, select=["SL009"])) == ["SL009"]


# --------------------------------------------------------------------- #
# Suppression and scope machinery
# --------------------------------------------------------------------- #


def test_suppression_comment_silences_one_code():
    violations = lint(
        """
        def gather(items=[]):  # simlint: disable=SL008
            return items
        """,
    )
    assert violations == []


def test_suppression_without_codes_silences_everything():
    violations = lint(
        """
        def gather(items=[]):  # simlint: disable
            return items
        """,
    )
    assert violations == []


def test_suppression_for_other_code_does_not_silence():
    violations = lint(
        """
        def gather(items=[]):  # simlint: disable=SL001
            return items
        """,
    )
    assert codes(violations) == ["SL008"]


def test_infer_sim_scope():
    assert infer_sim_scope("src/repro/sim/clock.py")
    assert infer_sim_scope("repro/interconnect/pcie.py")
    assert not infer_sim_scope("src/repro/experiments/fig7.py")
    assert not infer_sim_scope("tests/test_clock.py")


def test_rule_catalogue_is_complete():
    assert [rule.code for rule in RULES] == [
        "SL001",
        "SL002",
        "SL003",
        "SL004",
        "SL005",
        "SL006",
        "SL007",
        "SL008",
        "SL009",
    ]
    for rule in RULES:
        assert rule.title
        assert rule.explanation


def test_violation_format():
    violation = Violation("repro/sim/x.py", 7, 4, "SL003", "float division")
    assert violation.format() == "repro/sim/x.py:7:4: SL003 float division"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def _run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.analyze", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")},
    )


def test_cli_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(items=[]):\n    return items\n")
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 1
    assert "SL008" in result.stdout


def test_cli_exits_zero_on_clean_tree(tmp_path):
    good = tmp_path / "repro" / "sim" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("def f(items=None):\n    return items\n")
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 0
    assert "clean" in result.stdout


def test_repo_tree_is_simlint_clean():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    violations = [
        violation
        for path in iter_python_files([str(src)])
        for violation in lint_source(path.read_text(encoding="utf-8"), path=str(path))
    ]
    assert violations == [], "\n".join(v.format() for v in violations)
