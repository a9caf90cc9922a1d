import csv
import json

import numpy as np
import pytest

from holosplit.cli import (
    cmd_decompose,
    cmd_demo,
    cmd_export,
    cmd_gauge_check,
    cmd_separability,
    main,
)
from holosplit.config import (
    ConfigError,
    load_run_config,
    load_sampled_hamiltonian,
    matrix_from_json,
    matrix_to_json,
    report_from_json,
    report_to_json,
    write_sampled_hamiltonian,
)
from holosplit.dynamics import Constant, TimeGrid, propagate_frame
from holosplit.holonomy import DecompositionReport
from holosplit.instances import refutation_instance

SQRT3 = np.sqrt(3.0)


def write_config(path, **overrides):
    cfg = {
        "system": {"kind": "lambda", "omega0": SQRT3, "delta": 1.0,
                   "omega1": [1.0, 0.0], "omega2": [0.0, 0.0], "eta": np.pi / 3},
        "subspace": {"lambda_case": "ii"},
        "section": {"rule": "phase_anchored"},
        "grid": {"tau": np.pi / 2, "steps": 4096},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def case_ii_config(tmp_path):
    return write_config(tmp_path / "case_ii.json")


class TestConfigParsing:
    def test_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path / "c.json", extra={"x": 1})
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(path)

    def test_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"system": {"kind": "lambda"}}))
        with pytest.raises(ConfigError, match="missing keys"):
            load_run_config(path)

    def test_rejects_small_grid(self, tmp_path):
        path = write_config(tmp_path / "c.json", grid={"tau": 1.0, "steps": 1})
        with pytest.raises(ConfigError, match="steps"):
            load_run_config(path)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_tau(self, tmp_path, tau):
        path = write_config(tmp_path / "c.json", grid={"tau": tau, "steps": 8})
        with pytest.raises(ConfigError, match="grid.tau must be positive and finite"):
            load_run_config(path)

    @pytest.mark.parametrize("steps, seed", [(4096, 7), (4096.0, 7.0), (64, 2**70 + 1)])
    def test_integral_numbers_accepted(self, tmp_path, steps, seed):
        path = write_config(tmp_path / "c.json", grid={"tau": 1.0, "steps": steps}, seed=seed)
        cfg = load_run_config(path)
        assert cfg.grid.steps == steps and cfg.seed == seed
        assert type(cfg.grid.steps) is int and type(cfg.seed) is int

    def test_overrides_apply(self, case_ii_config):
        cfg = load_run_config(case_ii_config, tau_override=1.0, steps_override=16)
        assert cfg.grid.tau == 1.0 and cfg.grid.steps == 16

    def test_constant_system_with_matrix_subspace(self, tmp_path):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        psi0 = np.eye(3)[:, :2].astype(complex)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "system": {"kind": "constant", "matrix": matrix_to_json(h)},
            "subspace": {"matrix": matrix_to_json(psi0)},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 1.0, "steps": 32},
        }))
        cfg = load_run_config(path)
        assert cfg.psi0.shape == (3, 2)

    def test_sampled_roundtrip(self, tmp_path):
        spec, _ = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        f = tmp_path / "ham.json"
        write_sampled_hamiltonian(f, spec.grid.times, spec.samples)
        back = load_sampled_hamiltonian(f)
        np.testing.assert_allclose(back.samples, spec.samples, atol=0)

    def test_custom_section_dimension_must_match_frames(self, tmp_path):
        grid = TimeGrid.uniform(1.0, 8)
        frames = np.broadcast_to(np.eye(3)[:, :2], (len(grid), 3, 2))
        section = tmp_path / "section.json"
        section.write_text(json.dumps({
            "dimension": 99,
            "times": grid.times.tolist(),
            "matrices": [matrix_to_json(f) for f in frames],
        }))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "system": {"kind": "constant", "matrix": matrix_to_json(np.diag([0.0, 1.0, 2.0]))},
            "subspace": {"matrix": matrix_to_json(np.eye(3)[:, :2])},
            "section": {"rule": "custom", "path": str(section)},
            "grid": {"tau": 1.0, "steps": 8},
        }))
        with pytest.raises(ConfigError, match='"dimension" is 99'):
            load_run_config(path)
        section.write_text(section.read_text().replace('"dimension": 99', '"dimension": 3'))
        assert load_run_config(path).rule.path.frames.shape == (9, 3, 2)

    def test_boolean_matrix_entry_rejected(self, tmp_path):
        h = matrix_to_json(np.diag([0.0, 1.0, 2.0]))
        h[0][0][0] = True
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "system": {"kind": "constant", "matrix": h},
            "subspace": {"matrix": matrix_to_json(np.eye(3)[:, :2])},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 1.0, "steps": 8},
        }))
        with pytest.raises(ConfigError, match="constant Hamiltonian must hold numbers, not booleans"):
            load_run_config(path)

    def test_matrix_json_roundtrip(self):
        m = np.array([[1 + 2j, 0.5], [-1j, 3.0]])
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)


class TestConfigTolerances:
    """The config's tolerances block governs the checks on the data it loads."""

    @staticmethod
    def decompose(config, tmp_path, structure_tol):
        cfg = json.loads(config.read_text())
        cfg["tolerances"] = {} if structure_tol is None else {"structure_tol": structure_tol}
        config.write_text(json.dumps(cfg))
        return cmd_decompose(str(config), str(tmp_path / "r.json"))

    def test_sampled_file_checked_against_the_run_tolerance(self, tmp_path, capsys):
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        # anti-Hermitian part ||H - H^dag||_F = 4e-8 per sample
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples + 1e-8j * np.eye(4))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": str(ham)},
                            subspace={"matrix": matrix_to_json(psi0)},
                            grid={"tau": 1.0, "steps": 8})
        assert self.decompose(path, tmp_path, 1e-6) == 0
        capsys.readouterr()
        assert self.decompose(path, tmp_path, None) == 3
        assert "Hamiltonian is not Hermitian within tolerance" in capsys.readouterr().err

    def test_custom_section_checked_against_the_run_tolerance(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.2 * (h + h.conj().T)  # weak enough to keep O(0, tau) in phase
        psi0 = np.eye(3, dtype=complex)[:, :2]
        grid = TimeGrid.uniform(1.0, 8)
        # the Schrodinger frames scaled by 1 + 1e-8: orthonormal to 2.8e-8
        frames = propagate_frame(Constant(h), psi0, grid).frames * (1 + 1e-8)
        section = tmp_path / "section.json"
        section.write_text(json.dumps({
            "dimension": 3,
            "times": grid.times.tolist(),
            "matrices": [matrix_to_json(f) for f in frames],
        }))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "constant", "matrix": matrix_to_json(h)},
                            subspace={"matrix": matrix_to_json(psi0)},
                            section={"rule": "custom", "path": str(section)},
                            grid={"tau": 1.0, "steps": 8})
        assert self.decompose(path, tmp_path, 1e-6) == 0
        # the gauge-transformed section is checked against the same tolerance
        assert cmd_gauge_check(str(path), seed=1) == 0
        capsys.readouterr()
        assert self.decompose(path, tmp_path, None) == 3
        assert "columns not orthonormal" in capsys.readouterr().err


class TestDecompose:
    def test_case_ii_report(self, case_ii_config, tmp_path):
        out = tmp_path / "report.json"
        assert cmd_decompose(str(case_ii_config), str(out)) == 0
        data = json.loads(out.read_text())
        assert data["classification"] == "case_ii"
        w = matrix_from_json(data["w_final"], "w_final")
        assert np.abs(w - np.diag([1.0, 1j])).max() <= 1e-6

    def test_case_i_report(self, tmp_path):
        path = write_config(tmp_path / "ci.json",
                            system={"kind": "lambda", "omega0": 1.0, "delta": 0.0},
                            subspace={"lambda_case": "i"},
                            section={"rule": "auto"},
                            grid={"tau": np.pi, "steps": 4096})
        out = tmp_path / "report.json"
        assert cmd_decompose(str(path), str(out)) == 0
        data = json.loads(out.read_text())
        u = matrix_from_json(data["time_evolution"], "time_evolution")
        assert np.abs(u + np.eye(2)).max() <= 1e-8
        assert data["classification"] == "case_i"

    def test_fixed_on_moving_subspace_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", section={"rule": "fixed"})
        out = tmp_path / "report.json"
        assert cmd_decompose(str(path), str(out)) == 3
        assert "constant subspace" in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path):
        assert cmd_decompose(str(tmp_path / "nope.json"), str(tmp_path / "o.json")) == 3

    def test_deterministic_reruns(self, case_ii_config, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cmd_decompose(str(case_ii_config), str(out1), steps=512) == 0
        assert cmd_decompose(str(case_ii_config), str(out2), steps=512) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_roundtrip(self, case_ii_config, tmp_path):
        out = tmp_path / "report.json"
        cmd_decompose(str(case_ii_config), str(out), steps=512)
        data = json.loads(out.read_text())
        report = report_from_json(data)
        assert report_to_json(report) == data

    @pytest.mark.parametrize("where, key, value", [
        (None, "max_commutator", None),
        (None, "separation_residual", [1e-3]),
        (None, "in_phase_margin", True),
        ("grid", "steps", 100.9),
        ("grid", "tau", None),
        (None, "classification", 5),
        (None, "classification", "case_iv"),
    ])
    def test_report_rejects_bad_scalar(self, where, key, value):
        eye = np.eye(2, dtype=complex)
        data = report_to_json(DecompositionReport(
            overlap=eye, w_final=eye, w_direct=eye, holonomic_factor=eye,
            dynamical_factor=eye, g_factor=eye, d_factor=eye, max_commutator=0.0,
            separation_residual=0.0, product_residual=0.0, classification="case_i",
            time_evolution=eye, in_phase_margin=1.0, tau=1.0, steps=100))
        assert report_to_json(report_from_json(data)) == data
        (data if where is None else data[where])[key] = value
        field = key if where is None else f"{where}.{key}"
        with pytest.raises(ConfigError, match=f"report.{field} must be"):
            report_from_json(data)


class TestDemo:
    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_demo_runs_clean(self, case, capsys):
        assert cmd_demo(case) == 0
        text = capsys.readouterr().out
        assert "classification: case_" + case in text

    def test_demo_ii_deviation_small(self, capsys):
        assert cmd_demo("ii") == 0
        text = capsys.readouterr().out
        worst = float(text.rsplit("worst deviation:", 1)[1].strip())
        assert worst <= 1e-6

    def test_demo_i_resonant_override(self, capsys):
        assert cmd_demo("i", delta=0.0, omega0=1.0, tau=np.pi) == 0
        text = capsys.readouterr().out
        worst = float(text.rsplit("worst deviation:", 1)[1].strip())
        assert worst <= 1e-8

    def test_demo_iii_reports_commutator(self, capsys):
        assert cmd_demo("iii") == 0
        text = capsys.readouterr().out
        line = [l for l in text.splitlines() if l.startswith("max_commutator")][0]
        assert float(line.split(":")[1]) <= 1e-8

    def test_demo_rejects_unknown_case(self, capsys):
        assert cmd_demo("iv") == 3


class TestSeparability:
    def test_lambda_cases_exit_zero(self, tmp_path, capsys):
        for case, rule in (("i", "auto"), ("iii", "auto")):
            path = write_config(tmp_path / f"c{case}.json",
                                subspace={"lambda_case": case},
                                section={"rule": rule})
            assert cmd_separability(str(path)) == 0
            assert f"case_{case}" in capsys.readouterr().out

    def test_generic_instance_exits_one(self, tmp_path, capsys):
        spec, psi0 = refutation_instance(7)
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "system": {"kind": "sampled", "path": str(ham)},
            "subspace": {"matrix": matrix_to_json(psi0)},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 2.0, "steps": 4096},
        }))
        assert cmd_separability(str(path)) == 1
        out = capsys.readouterr().out
        prod = float([l for l in out.splitlines() if "product_residual" in l][0].split(":")[1])
        sep = float([l for l in out.splitlines() if "separation_residual" in l][0].split(":")[1])
        assert prod <= 1e-6 and sep > 1e-2


class TestExport:
    def test_case_ii_columns(self, case_ii_config, tmp_path):
        out = tmp_path / "traj.csv"
        assert cmd_export(str(case_ii_config), str(out), steps=1024) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1025
        k22 = np.array([float(r["K_22_re"]) for r in rows])
        assert np.abs(k22).max() <= 1e-10
        first = rows[0]
        assert float(first["W_11_re"]) == 1.0 and float(first["W_12_re"]) == 0.0
        assert float(first["W_22_re"]) == 1.0 and float(first["W_21_im"]) == 0.0
        o22 = np.array([float(r["O_22_re"]) for r in rows])
        t = np.array([float(r["t"]) for r in rows])
        ref = np.sqrt(1 - 0.75 * np.sin(2 * t) ** 2)
        assert np.abs(o22 - ref).max() <= 1e-8

    def test_deterministic(self, case_ii_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_export(str(case_ii_config), str(a), steps=256)
        cmd_export(str(case_ii_config), str(b), steps=256)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, case_ii_config, tmp_path):
        assert cmd_export(str(case_ii_config), str(tmp_path / "no" / "dir.csv"),
                          steps=64) == 4


@pytest.fixture(scope="module")
def refutation_9_config(tmp_path_factory):
    """refutation_instance(9) with a phase-anchored section: its endpoint
    in-phase margin is -1.56e-2, so every command that builds a report
    stops with an in-phase violation."""
    tmp = tmp_path_factory.mktemp("ref9")
    spec, psi0 = refutation_instance(9)
    ham = tmp / "ham.json"
    write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
    path = tmp / "c.json"
    path.write_text(json.dumps({
        "system": {"kind": "sampled", "path": str(ham)},
        "subspace": {"matrix": matrix_to_json(psi0)},
        "section": {"rule": "phase_anchored"},
        "grid": {"tau": 2.0, "steps": 4096},
    }))
    return path


class TestExitCodes:
    COMMANDS = {
        "decompose": lambda cfg, out: cmd_decompose(cfg, str(out / "r.json")),
        "separability": lambda cfg, out: cmd_separability(cfg),
        "export": lambda cfg, out: cmd_export(cfg, str(out / "t.csv")),
        "gauge-check": lambda cfg, out: cmd_gauge_check(cfg, seed=0),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_config_exits_three(self, command, tmp_path, capsys):
        assert self.COMMANDS[command](str(tmp_path / "nope.json"), tmp_path) == 3
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    @pytest.mark.parametrize("command, code", [
        ("decompose", 2), ("separability", 2), ("export", 0), ("gauge-check", 2),
    ])
    def test_in_phase_violation(self, command, code, refutation_9_config, tmp_path, capsys):
        # export builds no report, so the endpoint margin is never checked
        assert self.COMMANDS[command](str(refutation_9_config), tmp_path) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("in-phase violation: in-phase margin -1.562e-02")
        else:
            assert err == ""

    @pytest.mark.parametrize("keys, value, field", [
        (("system", "omega0"), None, "system.omega0"),
        (("system", "delta"), [1.0], "system.delta"),
        (("system", "eta"), None, "system.eta"),
        (("system", "omega1"), [None, 0.0], "system.omega1"),
        (("system", "omega2"), [0.0, [1.0]], "system.omega2"),
        (("grid", "tau"), [1.5], "grid.tau"),
        (("grid", "steps"), None, "grid.steps"),
        (("grid", "steps"), float("inf"), "grid.steps"),
        (("tolerances", "structure_tol"), None, "tolerances.structure_tol"),
        (("tolerances", "positivity_tol"), [1e-9], "tolerances.positivity_tol"),
        (("tolerances", "separation_tol"), None, "tolerances.separation_tol"),
        (("seed",), [7], "seed"),
        (("grid", "steps"), 100.9, "grid.steps"),
        (("grid", "steps"), True, "grid.steps"),
        (("seed",), 7.5, "seed"),
        (("seed",), True, "seed"),
        (("seed",), -3, "seed"),
    ])
    def test_wrong_typed_scalar_exits_three(self, keys, value, field, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", tolerances={})
        cfg = json.loads(path.read_text())
        *parents, last = keys
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
        path.write_text(json.dumps(cfg))
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{field} must be a number" in err

    @pytest.mark.parametrize("key, value, expected", [
        ("dimension", None, "must be a number"),
        ("dimension", [4], "must be a number"),
        ("dimension", 4.5, "must be a number"),
        ("dimension", True, "must be a number"),
        ("times", {"a": 1}, "must be an array of numbers"),
        ("times", "abc", "must be an array of numbers"),
        ("times", [0.0, "abc"], "must be an array of numbers"),
        ("times", [0.0, True, 1.0], "must hold numbers, not booleans"),
        ("matrices", [[[[True, 0.0]]]], "must hold numbers, not booleans"),
    ], ids=["None", "dimension1", "4.5", "True", "times-object", "times-string", "times-entry",
            "times-boolean", "matrices-boolean"])
    def test_wrong_typed_matrix_file_dimension_exits_three(self, key, value, expected, tmp_path, capsys):
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
        ham.write_text(json.dumps({**json.loads(ham.read_text()), key: value}))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": str(ham)},
                            subspace={"matrix": matrix_to_json(psi0)},
                            grid={"tau": 1.0, "steps": 8})
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f'{ham}: "{key}" {expected}' in err

    @pytest.mark.parametrize("key, index", [("times", (0,)), ("matrices", (0, 0, 0, 0))])
    def test_boolean_in_own_matrix_file_exits_three(self, key, index, tmp_path, capsys):
        # false at t = 0 and true for Re H_00(0) would read as the numbers 0
        # and 1, which leave a valid file; the entry must still be rejected
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
        data = json.loads(ham.read_text())
        *parents, last = index
        node = data[key]
        for i in parents:
            node = node[i]
        node[last] = key == "matrices"
        ham.write_text(json.dumps(data))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": str(ham)},
                            subspace={"matrix": matrix_to_json(psi0)},
                            grid={"tau": 1.0, "steps": 8})
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f'{ham}: "{key}" must hold numbers, not booleans' in err

    def test_demo_bad_parameter_exits_three(self, capsys):
        assert cmd_demo("i", omega0=-1.0) == 3
        assert "omega0 must be positive" in capsys.readouterr().err


class TestGaugeCheck:
    def test_bad_gauge_path_is_an_input_error(self, case_ii_config, monkeypatch, capsys):
        # gauge_transform rejects a non-unitary V with a ValueError, which
        # must exit 3 (input error), not 1 (negative verdict)
        def doubled_identity(times, m, rng):
            return np.broadcast_to(2.0 * np.eye(m, dtype=complex), (times.size, m, m)).copy()

        monkeypatch.setattr("holosplit.cli.random_closed_gauge", doubled_identity)
        assert cmd_gauge_check(str(case_ii_config), seed=1) == 3
        assert capsys.readouterr().err.startswith("gauge transform failed: gauge path is not unitary")

    def test_negative_seed_option_exits_three(self, case_ii_config, capsys):
        assert main(["gauge-check", "--config", str(case_ii_config), "--seed", "-1"]) == 3
        assert capsys.readouterr().err.startswith("config error: --seed must be >= 0, got -1")

    @pytest.mark.parametrize("case", ["i", "ii", "iii"])
    def test_lambda_cases_covariant(self, case, tmp_path, capsys):
        path = write_config(tmp_path / f"g{case}.json",
                            subspace={"lambda_case": case},
                            section={"rule": "auto"})
        assert cmd_gauge_check(str(path), seed=1) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_verdict_stable_across_seeds(self, tmp_path, capsys):
        spec, psi0 = refutation_instance(7, TimeGrid.uniform(2.0, 2048))
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "system": {"kind": "sampled", "path": str(ham)},
            "subspace": {"matrix": matrix_to_json(psi0)},
            "section": {"rule": "phase_anchored"},
            "grid": {"tau": 2.0, "steps": 2048},
        }))
        verdicts = set()
        for seed in (0, 1, 2):
            assert cmd_gauge_check(str(path), seed=seed) == 0
            out = capsys.readouterr().out
            line = [l for l in out.splitlines() if l.startswith("classification")][0]
            verdicts.add(line)
        assert len(verdicts) == 1
