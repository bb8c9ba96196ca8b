"""Suite-wide test configuration.

Runtime invariant sanitizers (repro.sim.sanitizers) are opt-in for library
users but enabled for the whole test suite: every Simulator, FlashArray,
SimClock and SSDDevice built by a test carries its shadow-state checkers,
so an invariant break anywhere in a test run fails loudly at the breaking
operation instead of corrupting results silently.  None of them blocks
the fused replay path (repro.engine.guards), so trace replays in the
suite run the same fused code as the experiments and the benchmark, with
the clock sanitizer checking every batched clock advance.
"""

import pytest

from repro.sim import sanitizers


@pytest.fixture(scope="session", autouse=True)
def _enable_sanitizers():
    previous = sanitizers.set_default_enabled(True)
    yield
    sanitizers.set_default_enabled(previous)
