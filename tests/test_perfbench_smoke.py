"""Each benchmark workload runs end to end and passes its own checks.

`perfbench/run.py` calls the library directly, and with `--trace 1` its
tracer wraps the library's call-site bindings and reads `ForwardOutput.cache`
and the `.mask` of LIME samples. A change to any name or signature it uses
makes the run exit non-zero, and this test fails before the benchmark is run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["train", "evaluate", "explain"])
def test_benchmark_workload_runs_and_passes_its_checks(workload):
    # writes only under perfbench/work/, and no bytecode into perfbench/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
