"""Output checks and the references they compare against.

Every check is one counted operation: a Tally records how many were
attempted and how many failed. The references are computed apart from the
package: U(tau) for the sampled workloads comes from scipy's DOP853 on the
same piecewise-linear H(t), and the Lambda cases use the closed forms of
``holosplit.lambda_system``, which the pipeline never calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

PRODUCT_TOL = 1e-6  # product form G D is an identity at the integrator level
W_ROUTES_TOL = 1e-6  # W(tau) directly vs integrated from the connection
UNITARY_TOL = 1e-10
SEPARATION_FACTOR = 100.0  # separation failure must dwarf the product residual
REFERENCE_TOL = 1e-7  # |U(tau) - U_ref(tau)| on the sampled workloads
CLOSED_FORM_TOL = 1e-10  # Lambda cases i and ii are exact up to roundoff
RATIO_BAND = (3.6, 4.4)  # second order: error ratio per step doubling
CSV_TOL = 1e-12


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def max_dev(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def reference_endpoint(times: np.ndarray, samples: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """U_ref(tau) = S(0)^dag S(tau) for dS/dt = -i H(t) S with H linearly
    interpolated between samples, integrated one sample interval at a time
    (DOP853, rtol 1e-12) so that no step straddles a kink of H."""
    n, m = psi0.shape
    y = np.ascontiguousarray(psi0, dtype=complex).reshape(-1).view(float).copy()
    for k in range(times.size - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        h0, h1 = samples[k], samples[k + 1]

        def rhs(t, state, t0=t0, t1=t1, h0=h0, h1=h1):
            w = (t - t0) / (t1 - t0)
            s = state.view(complex).reshape(n, m)
            return (-1j * (((1.0 - w) * h0 + w * h1) @ s)).reshape(-1).view(float)

        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = np.ascontiguousarray(sol.y[:, -1])
    s_tau = y.view(complex).reshape(n, m)
    return psi0.conj().T @ s_tau


def identity_checks(tally: Tally, where: str, report) -> None:
    """Properties every decomposition must have: the product identity, the
    two W routes agreeing, and W unitary."""
    tally.check(f"{where}: product_residual", report.product_residual <= PRODUCT_TOL,
                f"{report.product_residual:.3e}")
    dev = max_dev(report.w_final, report.w_direct)
    tally.check(f"{where}: w_final == w_direct", dev <= W_ROUTES_TOL, f"{dev:.3e}")
    w = np.asarray(report.w_direct)
    unit = float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[0])))
    tally.check(f"{where}: W unitary", unit <= UNITARY_TOL, f"{unit:.3e}")


def generic_checks(tally: Tally, where: str, report, u_ref: np.ndarray) -> float:
    """Checks for a non-separable sampled run; returns |U - U_ref|."""
    identity_checks(tally, where, report)
    sep, prod = report.separation_residual, report.product_residual
    tally.check(f"{where}: separation >> product", sep >= SEPARATION_FACTOR * prod,
                f"{sep:.3e} vs {prod:.3e}")
    tally.check(f"{where}: verdict", report.classification == "non_separable",
                report.classification)
    dev = max_dev(report.time_evolution, u_ref)
    tally.check(f"{where}: U vs reference", dev <= REFERENCE_TOL, f"{dev:.3e}")
    return dev


def case_iii_deviation(report, ref) -> float:
    """Worst entry deviation of the case-iii factors and W from the closed forms."""
    return max(max_dev(report.holonomic_factor, ref.holonomic_factor),
               max_dev(report.dynamical_factor, ref.dynamical_factor),
               max_dev(report.w_direct, ref.w_final))


def closed_form_checks(tally: Tally, case: str, report, refs) -> None:
    """Cases i and ii against their closed forms and expected labels."""
    tally.check(f"case {case}: label", report.classification == f"case_{case}",
                report.classification)
    if case == "i":
        dev = max_dev(report.time_evolution, refs["i"])
    else:
        o_ref, w_ref = refs["ii"]
        dev = max(max_dev(report.overlap, o_ref), max_dev(report.w_direct, w_ref))
    tally.check(f"case {case}: closed form", dev <= CLOSED_FORM_TOL, f"{dev:.3e}")


def convergence_checks(tally: Tally, devs: list[float]) -> None:
    """Second order: each step doubling divides the deviation by about 4."""
    for coarse, fine in zip(devs, devs[1:]):
        ratio = coarse / fine if fine > 0 else math.inf
        tally.check("case iii: doubling ratio", RATIO_BAND[0] <= ratio <= RATIO_BAND[1],
                    f"{ratio:.3f}")


def csv_checks(tally: Tally, path, steps: int, w_direct: np.ndarray) -> None:
    """The exported CSV has one row per grid point and ends at W(tau)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    tally.check("export: rows", len(body) == steps + 1, f"{len(body)} rows for {steps} steps")
    m = w_direct.shape[0]
    try:
        cols = [header.index(f"W_{j}{k}_{part}") for j in range(1, m + 1)
                for k in range(1, m + 1) for part in ("re", "im")]
        vals = np.array([float(body[-1][c]) for c in cols])
    except (ValueError, IndexError) as exc:
        tally.check("export: last W row", False, f"unreadable: {exc}")
        return
    last_w = (vals[0::2] + 1j * vals[1::2]).reshape(m, m)
    dev = max_dev(last_w, w_direct)
    tally.check("export: last W row", dev <= CSV_TOL, f"{dev:.3e}")


def separability_output_checks(tally: Tally, stdout: str, report) -> None:
    """`separability` prints the verdict and residuals of the report."""
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    tally.check("separability: verdict", lines.get("classification") == report.classification,
                repr(lines.get("classification")))
    printed = float(lines.get("product_residual", "nan"))
    tally.check("separability: product_residual",
                math.isclose(printed, report.product_residual, rel_tol=1e-6),
                f"{printed!r} vs {report.product_residual!r}")
