"""The benchmark's workloads pass their own verdict oracle.

``perfbench/workloads.py`` builds each workload's inputs through the
library and checks every command's report against fixed verdicts.  This
runs every workload once, in-process, at two seeds, so a change that
drops an API the benchmark calls, or moves a verdict it checks, fails
here and not only in a benchmark run.  The benchmark files are only
read.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from argshift import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("seed", [0, 100])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_command_passes_its_oracle(tmp_path, workload, seed):
    commands = workloads.build(workload, seed, str(tmp_path))
    assert commands
    for cmd in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd.argv)
        report = json.loads(out.getvalue()) if out.getvalue() else None
        assert cmd.check(code, report) is None, cmd.label
