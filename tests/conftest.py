import numpy as np
import pytest


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    lines = getattr(terminalreporter.config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_report(request):
    """Assert a verification check and echo its line in the run summary."""

    def _report(result):
        print(result.line())
        request.config._acceptance_lines.append(result.line())
        assert result.passed, result.detail

    return _report


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

