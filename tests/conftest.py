"""Shared test plumbing.

The acceptance suite appends one summary line per criterion to
ACCEPTANCE_LINES; the hook below prints them after the normal pytest
summary so the verdict survives output capturing.  The hook also lists
each test without the `slow` marker whose call took SLOW_CALL_S or
more; the list never fails a run, as timings on a shared host vary.
The fixture
`coadjoint_reads` counts the member actions the witness search reads,
and `index_samples` the sample points the index estimate draws.
"""

import pytest

from argshift import mfshift, poisson

ACCEPTANCE_LINES: list[str] = []
SLOW_CALL_S = 2.0


@pytest.fixture
def coadjoint_reads(monkeypatch) -> list[int]:
    """Spy on the coadjoint kernel mfshift calls: the list gets one
    count per call, of the actions that call yielded."""
    counts = []
    coadjoint = mfshift._coadjoint

    def spy(*args):
        counts.append(0)
        for action in coadjoint(*args):
            counts[-1] += 1
            yield action

    monkeypatch.setattr(mfshift, "_coadjoint", spy)
    return counts


@pytest.fixture
def index_samples(monkeypatch) -> list[int]:
    """Spy on the streams estimate_index draws its sample points from:
    the list gets each trial it draws, in order."""
    drawn = []
    rng_stream = poisson.rng_stream

    def spy(seed, label, *rest):
        if label == "index-sample":
            drawn.append(*rest)
        return rng_stream(seed, label, *rest)

    monkeypatch.setattr(poisson, "rng_stream", spy)
    return drawn


def slow_untagged(reports) -> list[tuple[float, str]]:
    """(seconds, test id) of each call of SLOW_CALL_S or more by a test
    without the `slow` marker, the slowest first."""
    return sorted(((r.duration, r.nodeid) for r in reports
                   if getattr(r, "when", None) == "call" and r.duration >= SLOW_CALL_S
                   and "slow" not in r.keywords), reverse=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
    slow = slow_untagged(r for reports in terminalreporter.stats.values() for r in reports)
    if slow:
        terminalreporter.write_sep("-", f"untagged tests of {SLOW_CALL_S:g} s or more; "
                                        "tag them slow")
        for duration, nodeid in slow:
            terminalreporter.write_line(f"{duration:.2f} s  {nodeid}")
