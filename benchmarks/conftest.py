"""Shared infrastructure for the experiment benchmarks.

Each benchmark module reproduces one table or figure of the SMARTS paper
(see DESIGN.md for the experiment index).  Reports are written to
``results/`` and echoed into the pytest terminal summary so that
``pytest benchmarks/ --benchmark-only`` output contains every reproduced
table.  ``results/`` is tracked and holds only what regenerates byte for
byte; reports timed on the host (measured rates and throughputs) go to
the untracked ``results/host-timed/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import default_context

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
HOST_TIMED_DIR = RESULTS_DIR / "host-timed"

_collected_reports: list[tuple[str, str]] = []


def record_report(name: str, text: str, host_timed: bool = False) -> Path:
    """Persist an experiment report and queue it for the terminal summary.

    A ``host_timed`` report goes to :data:`HOST_TIMED_DIR`.
    """
    directory = HOST_TIMED_DIR if host_timed else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    _collected_reports.append((name, text))
    return path


@pytest.fixture(scope="session")
def ctx():
    """Process-wide experiment context (shared reference caches)."""
    return default_context()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo every recorded experiment report into the pytest output."""
    if not _collected_reports:
        return
    terminalreporter.section("SMARTS reproduction reports")
    for name, text in _collected_reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
