import itertools
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import randnet.harness

# tests import shared oracles as a plain module
sys.path.insert(0, str(Path(__file__).parent))


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status} ({report.duration:.2f}s)")


@pytest.fixture
def interrupt_after():
    """``with interrupt_after(n):`` makes run_bench raise KeyboardInterrupt
    as the grid search of cell n + 1 starts, so a serial run leaves
    exactly n cells in its manifest."""

    @contextmanager
    def arm(n):
        real = randnet.harness.grid_search
        started = itertools.count()

        def grid_search(*args, **kwargs):
            if next(started) >= n:
                raise KeyboardInterrupt("injected interruption")
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(randnet.harness, "grid_search", grid_search)
            yield

    return arm
