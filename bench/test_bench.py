"""Tests of the benchmark's own code: the checks catch perturbed outputs and
the tracer leaves the package as it found it.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from checks import Tally  # noqa: E402

import holosplit  # noqa: E402
from holosplit import (  # noqa: E402
    cli, config, dynamics, holonomy, instances, lambda_system, sections,
)

MODS = SimpleNamespace(cli=cli, config=config, dynamics=dynamics, holonomy=holonomy,
                       instances=instances, lambda_system=lambda_system, sections=sections)


@pytest.fixture(scope="module")
def refutation():
    spec, psi0 = instances.refutation_instance(7)
    report = workloads.decompose(MODS, spec, psi0, sections.PhaseAnchored(), spec.grid)
    u_ref = checks.reference_endpoint(spec.grid.times, spec.samples, psi0)
    return spec, psi0, report, u_ref


@pytest.fixture(scope="module")
def lambda_case_ii():
    p = lambda_system.LambdaParams(**workloads.LambdaOracle.params)
    spec, psi0, rule = lambda_system.case_setup("ii", p)
    report = workloads.decompose(MODS, spec, psi0, rule, dynamics.TimeGrid.uniform(p.tau, 8192))
    return report, {"ii": lambda_system.case_ii_analytic(p)}


def test_unperturbed_outputs_pass(refutation, lambda_case_ii):
    _, _, report, u_ref = refutation
    tally = Tally()
    checks.generic_checks(tally, "ref", report, u_ref)
    lam, refs = lambda_case_ii
    checks.closed_form_checks(tally, "ii", lam, refs)
    checks.identity_checks(tally, "ii", lam)
    assert tally.attempted == 11 and tally.failed == 0, tally.failures


@pytest.mark.parametrize("perturb", [
    lambda r: dataclasses.replace(r, w_direct=r.w_direct * np.exp(0.1j)),
    lambda r: dataclasses.replace(r, time_evolution=r.time_evolution * np.exp(1e-6j)),
    lambda r: dataclasses.replace(r, classification="case_iii"),
    lambda r: dataclasses.replace(r, separation_residual=r.product_residual),
], ids=["W-phase", "U-phase", "label", "separation"])
def test_perturbed_generic_report_fails(refutation, perturb):
    _, _, report, u_ref = refutation
    tally = Tally()
    checks.generic_checks(tally, "ref", perturb(report), u_ref)
    assert tally.failed >= 1


@pytest.mark.parametrize("perturb", [
    lambda r: dataclasses.replace(r, w_direct=r.w_direct * np.exp(0.1j)),
    lambda r: dataclasses.replace(r, classification="case_i"),
], ids=["W-phase", "label"])
def test_perturbed_closed_form_case_fails(lambda_case_ii, perturb):
    report, refs = lambda_case_ii
    tally = Tally()
    checks.closed_form_checks(tally, "ii", perturb(report), refs)
    assert tally.failed >= 1


def test_convergence_ratio_off_second_order_fails():
    tally = Tally()
    checks.convergence_checks(tally, [1.6e-5, 4e-6, 1e-6])
    assert tally.failed == 0
    checks.convergence_checks(tally, [1.6e-5, 8e-6])
    assert tally.failed == 1


def test_csv_with_a_dropped_row_fails(tmp_path, refutation):
    spec, psi0, report, _ = refutation
    ham = tmp_path / "h.json"
    config.write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "system": {"kind": "sampled", "path": str(ham)},
        "subspace": {"matrix": config.matrix_to_json(psi0)},
        "section": {"rule": "phase_anchored"},
        "grid": {"tau": spec.grid.tau, "steps": spec.grid.steps},
    }))
    out = tmp_path / "t.csv"
    code, _, _ = workloads.run_cli(MODS, ["export", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    tally = Tally()
    checks.csv_checks(tally, out, spec.grid.steps, report.w_direct)
    assert tally.failed == 0, tally.failures
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    checks.csv_checks(tally, out, spec.grid.steps, report.w_direct)
    assert tally.failed == 2  # row count, and the last row is no longer W(tau)


def test_separability_output_with_swapped_label_fails(refutation):
    report = refutation[2]
    printed = (f"classification: case_iii\nproduct_residual: {report.product_residual:.6e}\n")
    tally = Tally()
    checks.separability_output_checks(tally, printed, report)
    assert tally.failed == 1


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "holosplit" or name.startswith("holosplit.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_restores_every_namespace_and_counts_calls():
    before = _bindings()
    p = lambda_system.LambdaParams(**workloads.LambdaOracle.params)
    spec, psi0, rule = lambda_system.case_setup("iii", p)
    grid = dynamics.TimeGrid.uniform(p.tau, 256)
    tracer = layers.Tracer()
    with tracer:
        assert holosplit.propagate_frame is not before[("holosplit", "propagate_frame")]
        assert holonomy.hamiltonian_path is not before[("holosplit.holonomy", "hamiltonian_path")]
        workloads.decompose(MODS, spec, psi0, rule, grid)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    table = tracer.layer_table(0, tracer.mark())
    assert table["linalg.loewdin_orthonormalize"]["calls"] == 256
    assert table["holonomy.ordered_factor"]["calls"] == 4
    assert table["dynamics.hamiltonian_path"]["bytes"] > 0
    report = table["holonomy.separability_report"]
    assert 0 < report["self"] < report["s"]


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(holonomy, "max_commutator_scan")
    tracer = layers.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["holonomy.max_commutator_scan"]
    metrics = layers.per_layer_metrics([{}], {})
    assert metrics["holonomy.max_commutator_scan.s"]["value"] == 0.0
