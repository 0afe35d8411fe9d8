"""Shared test plumbing.

The acceptance suite appends one summary line per criterion to
ACCEPTANCE_LINES; the hook below prints them after the normal pytest
summary so the verdict survives output capturing.  The fixture
`coadjoint_reads` counts the member actions the witness search reads,
and `index_samples` the sample points the index estimate draws.
"""

import pytest

from argshift import mfshift, poisson

ACCEPTANCE_LINES: list[str] = []


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
