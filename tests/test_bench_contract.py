"""The benchmark's result line stays a complete, strict-JSON result.

Runs ``bench/run.py`` on the smallest budget (one repetition) and checks
that the last line of its output parses as strict JSON, reports every row
correct, and carries exactly the metric names that BENCHMARK.json declares.
A metric whose traced stage a refactor removed would go missing here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} in the result line")


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_is_complete_strict_json(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-tabulated",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(_declared(section))
