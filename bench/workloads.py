"""The three benchmark workloads.

Each workload builds its inputs from the seed through the package's own
constructors (``build``, timed as set-up), computes its references apart
from the pipeline (``reference``, untimed) and runs one round of program
calls and checks (``round``). Every round makes the same calls and the same
checks, so a failing check fails in the same share of every run.

The seed picks a random change of basis (laser parameters for the Lambda
system, a Haar unitary for the sampled systems); the physics is fixed. The
inputs therefore differ bit for bit between seeds while U(tau), the
residuals and the verdict do not, so the accuracy metrics can be compared
across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _call(fn, *args):
    return fn(*args)


def decompose(mods, spec, psi0, rule, grid, step=_call):
    """The library pipeline a user runs: propagate, build the section,
    report; `step` makes each of the three calls (a clock when timed)."""
    schrod = step(mods.dynamics.propagate_frame, spec, psi0, grid)
    section = step(mods.sections.build_section, rule, schrod, spec)
    return step(mods.holonomy.separability_report, section, schrod, spec)


def write_report(mods, report, path: Path, rec) -> None:
    """The library write path; the time covers serialization only, since
    the latency of writing a few kB belongs to the filesystem."""
    text, seconds = rec.op("serialize report", lambda: json.dumps(mods.config.report_to_json(report)))
    if text is not None:
        rec.export.append(seconds)
        path.write_text(text)


def run_cli(mods, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class LambdaOracle:
    """Lambda cases i, ii and iii (3x2 frames) against their closed forms."""

    name = "lambda_oracle"
    params = {"omega0": math.sqrt(3.0), "delta": 1.0, "tau": math.pi / 2, "eta": math.pi / 3}
    sweep = (1024, 2048, 4096, 8192, 16384)  # case iii; the last is the top grid
    target = 1e-7  # closed-form deviation that time_to_accuracy_s asks for

    def build(self, mods, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        mix = rng.uniform(0.0, math.pi / 2)
        ph1, ph2 = rng.uniform(0.0, 2 * math.pi, size=2)
        p = mods.lambda_system.LambdaParams(
            omega1=math.cos(mix) * np.exp(1j * ph1), omega2=math.sin(mix) * np.exp(1j * ph2),
            **self.params)
        return SimpleNamespace(
            params=p,
            cases={c: mods.lambda_system.case_setup(c, p) for c in ("i", "ii", "iii")},
            grids={n: mods.dynamics.TimeGrid.uniform(p.tau, n) for n in self.sweep},
        )

    def reference(self, mods, inputs):
        ls, p = mods.lambda_system, inputs.params
        return {"i": ls.case_i_analytic(p), "ii": ls.case_ii_analytic(p),
                "iii": ls.case_iii_analytic(p)}

    def peak_call(self, mods, inputs, rec, work: Path) -> None:
        rec.op("case iii peak", decompose, mods, *inputs.cases["iii"], inputs.grids[self.sweep[-1]])

    def round(self, mods, inputs, refs, rec, work: Path) -> None:
        tally, top = rec.tally, self.sweep[-1]
        devs, times = [], []
        for n in self.sweep:
            report, seconds = rec.op(f"case iii n={n}", decompose, mods,
                                     *inputs.cases["iii"], inputs.grids[n], staged=True)
            devs.append(math.nan if report is None else checks.case_iii_deviation(report, refs["iii"]))
            times.append(seconds)
            if report is None:
                continue
            write_report(mods, report, work / "report.json", rec)
            tally.check(f"case iii n={n}: label", report.classification == "case_iii",
                        report.classification)
            if n == top:
                rec.decompose.append(seconds)
                rec.accuracy.append(devs[-1])
                rec.product.append(report.product_residual)
                checks.identity_checks(tally, "case iii", report)
        checks.convergence_checks(tally, devs)

        reached = [i for i, dev in enumerate(devs) if dev <= self.target]
        if tally.check("case iii: target accuracy reached", bool(reached)):
            i = reached[0]
            rec.to_accuracy.append(times[i])
            # the chosen grid once more on its own, for a second sample
            n = self.sweep[i]
            report, seconds = rec.op(f"case iii n={n} again", decompose, mods,
                                     *inputs.cases["iii"], inputs.grids[n], staged=True)
            if report is not None:
                dev = checks.case_iii_deviation(report, refs["iii"])
                if tally.check(f"case iii n={n} again: deviation", abs(dev - devs[i]) <= 1e-3 * devs[i],
                               f"{dev:.3e} vs {devs[i]:.3e}"):
                    rec.to_accuracy.append(seconds)

        for case in ("i", "ii"):
            report, seconds = rec.op(f"case {case}", decompose, mods,
                                     *inputs.cases[case], inputs.grids[top], staged=True)
            if report is None:
                continue
            write_report(mods, report, work / "report.json", rec)
            rec.decompose.append(seconds)
            rec.product.append(report.product_residual)
            checks.closed_form_checks(tally, case, report, refs)
            checks.identity_checks(tally, f"case {case}", report)


class WideDrive:
    """A 64-level cosine drive with a 4-dimensional subspace (N >> M)."""

    name = "wide_drive"
    n, m, tau = 64, 4, 1.0
    physics_seed = 1
    sweep = (256, 512)  # the last is the sampling grid and the top grid
    target = 4e-8  # |U - U_ref| that time_to_accuracy_s asks for

    def build(self, mods, seed: int, work: Path):
        phys = np.random.default_rng(self.physics_seed)
        # keeps the phase-anchored section in phase (margin 0.75) and the
        # product residual at the top grid near 3e-7
        scale = 0.7 / math.sqrt(self.n)
        h0 = mods.instances.random_hermitian(self.n, phys, scale)
        h1 = mods.instances.random_hermitian(self.n, phys, scale)
        psi0 = mods.instances.random_frame(self.n, self.m, phys)
        v = random_unitary(self.n, np.random.default_rng(seed))
        grids = {s: mods.dynamics.TimeGrid.uniform(self.tau, s) for s in self.sweep}
        spec = mods.instances.cosine_drive(v @ h0 @ v.conj().T, v @ h1 @ v.conj().T,
                                           grids[self.sweep[-1]])
        return SimpleNamespace(spec=spec, psi0=v @ psi0, grids=grids,
                               rule=mods.sections.PhaseAnchored())

    def reference(self, mods, inputs):
        spec = inputs.spec
        return checks.reference_endpoint(spec.grid.times, spec.samples, inputs.psi0)

    def peak_call(self, mods, inputs, rec, work: Path) -> None:
        top = self.sweep[-1]
        rec.op(f"n={top} peak", decompose, mods, inputs.spec, inputs.psi0, inputs.rule,
               inputs.grids[top])

    def round(self, mods, inputs, u_ref, rec, work: Path) -> None:
        tally, reached = rec.tally, None
        for steps in self.sweep:
            report, seconds = rec.op(f"n={steps}", decompose, mods, inputs.spec,
                                     inputs.psi0, inputs.rule, inputs.grids[steps], staged=True)
            if report is None:
                continue
            write_report(mods, report, work / "report.json", rec)
            dev = checks.max_dev(report.time_evolution, u_ref)
            if reached is None and dev <= self.target:
                reached = seconds
            if steps == self.sweep[-1]:
                rec.decompose.append(seconds)
                rec.accuracy.append(checks.generic_checks(tally, f"n={steps}", report, u_ref))
                rec.product.append(report.product_residual)
            else:
                tally.check(f"n={steps}: verdict", report.classification == "non_separable",
                            report.classification)
        if tally.check("target accuracy reached", reached is not None):
            rec.to_accuracy.append(reached)


class CliRefutation:
    """Seeded 4x2 refutation instances driven through ``holosplit`` commands."""

    name = "cli_refutation"
    # refutation seed 9 is left out: its phase-anchored section fails the
    # in-phase condition (margin -1.6e-2), so every command exits 2
    instance_seeds = (7, 10)
    sweep = (1024, 2048)  # --steps overrides before the config's own 4096
    target = 2.5e-8

    def build(self, mods, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        instances = []
        for iseed in self.instance_seeds:
            spec, psi0 = mods.instances.refutation_instance(iseed)
            v = random_unitary(psi0.shape[0], rng)
            rotated = mods.dynamics.Sampled(spec.grid, v @ spec.samples @ v.conj().T)
            ham_path = work / f"hamiltonian-{iseed}.json"
            mods.config.write_sampled_hamiltonian(ham_path, spec.grid.times, rotated.samples)
            config = {
                "system": {"kind": "sampled", "path": str(ham_path)},
                "subspace": {"matrix": mods.config.matrix_to_json(v @ psi0)},
                "section": {"rule": "phase_anchored"},
                "grid": {"tau": spec.grid.tau, "steps": spec.grid.steps},
                "seed": int(rng.integers(2**31)),
            }
            config_path = work / f"config-{iseed}.json"
            config_path.write_text(json.dumps(config))
            instances.append(SimpleNamespace(
                seed=iseed, config=str(config_path), steps=spec.grid.steps,
                times=spec.grid.times, samples=rotated.samples, psi0=v @ psi0))
        return instances

    def reference(self, mods, inputs):
        return [checks.reference_endpoint(i.times, i.samples, i.psi0) for i in inputs]

    def peak_call(self, mods, inputs, rec, work: Path) -> None:
        rec.op("decompose peak", run_cli, mods,
               ["decompose", "--config", inputs[0].config, "--out", str(work / "report.json")])

    def round(self, mods, inputs, refs, rec, work: Path) -> None:
        for inst, u_ref in zip(inputs, refs):
            self._instance(mods, inst, u_ref, rec, work)

    def _command(self, mods, rec, where: str, argv: list[str], expect: int):
        out, seconds = rec.op(where, run_cli, mods, argv)
        if out is None:
            return None, None, seconds
        code, stdout, stderr = out
        ok = rec.tally.check(f"{where}: exit code", code == expect, f"{code} {stderr.strip()}")
        return code if ok else None, stdout, seconds

    def _report(self, mods, rec, where: str, path: Path):
        """Read a written report back; checks that it round-trips."""
        try:
            data = json.loads(path.read_text())
            report = mods.config.report_from_json(data)
        except (OSError, ValueError) as exc:
            rec.tally.check(f"{where}: report readable", False, str(exc))
            return None
        rec.tally.check(f"{where}: report round-trip",
                        mods.config.report_to_json(report) == data)
        return report

    def _instance(self, mods, inst, u_ref, rec, work: Path) -> None:
        tally, where, reached = rec.tally, f"seed {inst.seed}", None
        out = work / "report.json"
        for steps in self.sweep:
            code, _, seconds = self._command(
                mods, rec, f"{where} decompose --steps {steps}",
                ["decompose", "--config", inst.config, "--out", str(out), "--steps", str(steps)], 0)
            if code is None:
                continue
            report = self._report(mods, rec, f"{where} n={steps}", out)
            if (report is not None and reached is None
                    and checks.max_dev(report.time_evolution, u_ref) <= self.target):
                reached = seconds

        code, _, seconds = self._command(mods, rec, f"{where} decompose",
                                         ["decompose", "--config", inst.config, "--out", str(out)], 0)
        report = None
        if code is not None:
            rec.decompose.append(seconds)
            report = self._report(mods, rec, where, out)
        if report is not None:
            rec.accuracy.append(checks.generic_checks(tally, where, report, u_ref))
            rec.product.append(report.product_residual)
            if reached is None and rec.accuracy[-1] <= self.target:
                reached = seconds
        if tally.check(f"{where}: target accuracy reached", reached is not None):
            rec.to_accuracy.append(reached)

        code, stdout, _ = self._command(mods, rec, f"{where} separability",
                                        ["separability", "--config", inst.config], 1)
        if code is not None and report is not None:
            checks.separability_output_checks(tally, stdout, report)

        csv_path = work / "trajectory.csv"
        code, _, seconds = self._command(mods, rec, f"{where} export",
                                         ["export", "--config", inst.config, "--out", str(csv_path)], 0)
        if code is not None:
            rec.export.append(seconds)
            if report is not None:
                checks.csv_checks(tally, csv_path, inst.steps, report.w_direct)

        self._command(mods, rec, f"{where} gauge-check", ["gauge-check", "--config", inst.config], 0)


WORKLOADS = {w.name: w for w in (LambdaOracle, WideDrive, CliRefutation)}
