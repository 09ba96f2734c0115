import numpy as np
import pytest


ACCEPTANCE_LINES = pytest.StashKey[list]()


def pytest_terminal_summary(terminalreporter):
    lines = terminalreporter.config.stash.get(ACCEPTANCE_LINES, None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_report(request):
    """Assert a verification check and echo its line in the run summary."""

    def _report(result):
        print(result.line())
        request.config.stash.setdefault(ACCEPTANCE_LINES, []).append(result.line())
        assert result.passed, result.detail

    return _report


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

