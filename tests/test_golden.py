"""Golden reports: the JSON report of four fixed runs must not drift.

The files under tests/golden/ hold report_to_json of the holosplit.decompose
runs of Lambda cases i, ii and iii (4096 steps) and of refutation_instance(7).
The classification must match exactly and every number to 1e-10, so other
BLAS builds still pass. Rewrite the files (``PYTHONPATH=src python
tests/test_golden.py``) only when a change to the numerics is intended.
"""

import json
from pathlib import Path

import pytest

from holosplit import decompose
from holosplit.config import report_to_json
from holosplit.instances import refutation_instance
from holosplit.sections import PhaseAnchored

GOLDEN = Path(__file__).parent / "golden"
BOUND = 1e-10


def _refutation_report(seed):
    spec, psi0 = refutation_instance(seed)
    return decompose(spec, psi0, PhaseAnchored(), spec.grid)[1]


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, str):
        assert got == want, where
    else:
        assert abs(got - want) <= BOUND, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_lambda_reports_match_golden(case, request):
    report = request.getfixturevalue(f"case_{case}").report
    want = json.loads((GOLDEN / f"lambda_{case}.json").read_text())
    got = report_to_json(report)
    assert got["classification"] == want["classification"]
    _assert_close(got, want, f"lambda_{case}")


def test_refutation_report_matches_golden():
    want = json.loads((GOLDEN / "refutation_7.json").read_text())
    got = report_to_json(_refutation_report(7))
    assert got["classification"] == want["classification"] == "non_separable"
    _assert_close(got, want, "refutation_7")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import run_case

    for case in ("i", "ii", "iii"):
        data = report_to_json(run_case(case).report)
        (GOLDEN / f"lambda_{case}.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    data = report_to_json(_refutation_report(7))
    (GOLDEN / "refutation_7.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
