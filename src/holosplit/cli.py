"""Command-line interface.

Subcommands: decompose (JSON report), demo (analytic vs numerical table for
the Lambda cases), separability (classification summary), export (CSV
trajectories of A, K, W and O), gauge-check (covariance under a random
closed gauge). Exit codes: 0 success, 1 negative verdict, 2 in-phase
violation, 3 config error, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import load_run_config, report_to_json
from .dynamics import FramePath, TimeGrid, propagate_frame
from .holonomy import DecompositionReport, generator_path, separability_report
from .instances import random_closed_gauge
from .lambda_system import LambdaParams, case_i_analytic, case_ii_analytic, case_iii_analytic, case_setup
from .linalg import DEFAULT_TOL, frobenius, overlaps
from .sections import InPhaseViolation, build_section, gauge_transform, w_path

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_IN_PHASE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

# report matrices that a closed gauge V conjugates, M -> V(0)^dag M V(0)
_GAUGE_COVARIANT = ("w_direct", "w_final", "holonomic_factor", "dynamical_factor",
                    "g_factor", "d_factor", "time_evolution", "overlap")
_DEMO_DEFAULTS = {"delta": 1.0, "omega0": np.sqrt(3.0), "eta": np.pi / 3, "tau": np.pi / 2}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


# the failures a run can end in; ConfigError and SectionError are ValueErrors
_RUN_ERRORS = (ValueError, InPhaseViolation)


def _exit_code(exc: Exception, setup: str = "config error") -> int:
    """Print a failed run's error and return its exit code: 2 for an
    in-phase violation, 3 for a config, section or other input error."""
    if isinstance(exc, InPhaseViolation):
        return _fail(EXIT_IN_PHASE, f"in-phase violation: {exc}")
    return _fail(EXIT_CONFIG, f"{setup}: {exc}")


def _run_pipeline(spec, psi0, rule, grid, tol=DEFAULT_TOL, *, report=True):
    """Schrodinger path, section and, when report is true, the separability
    report (None otherwise)."""
    schrod = propagate_frame(spec, psi0, grid, tol=tol)
    section = build_section(rule, schrod, spec, tol=tol)
    if not report:
        return schrod, section, None
    return schrod, section, separability_report(section, schrod, spec, tol)


def _run_config(config_path: str, tau, steps, *, report=True):
    cfg = load_run_config(config_path, tau_override=tau, steps_override=steps)
    return (cfg, *_run_pipeline(cfg.spec, cfg.psi0, cfg.rule, cfg.grid, cfg.tolerances, report=report))


def cmd_decompose(config_path: str, out_path: str, *, tau=None, steps=None) -> int:
    try:
        _, _, _, report = _run_config(config_path, tau, steps)
    except _RUN_ERRORS as exc:
        return _exit_code(exc)
    try:
        Path(out_path).write_text(json.dumps(report_to_json(report), indent=2) + "\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write report: {exc}")
    print(f"classification: {report.classification}")
    print(f"report written to {out_path}")
    return EXIT_OK


def _fmt_matrix(m: np.ndarray) -> str:
    rows = []
    for row in np.atleast_2d(m):
        rows.append("[" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    return " ".join(rows)


def _demo_lines(case: str, p: LambdaParams, report: DecompositionReport) -> list[tuple[str, np.ndarray, np.ndarray]]:
    if case == "i":
        return [("time_evolution", case_i_analytic(p), report.time_evolution)]
    if case == "ii":
        o_ref, w_ref = case_ii_analytic(p)
        return [
            ("overlap", o_ref, report.overlap),
            ("w(tau)", w_ref, report.w_direct),
            ("time_evolution", o_ref @ w_ref, report.time_evolution),
        ]
    ref = case_iii_analytic(p)
    return [
        ("holonomic_factor", ref.holonomic_factor, report.holonomic_factor),
        ("dynamical_factor", ref.dynamical_factor, report.dynamical_factor),
        ("w(tau)", ref.w_final, report.w_direct),
    ]


def cmd_demo(case: str, *, delta=None, omega0=None, eta=None, tau=None, steps=4096) -> int:
    if case not in ("i", "ii", "iii"):
        return _fail(EXIT_CONFIG, f"unknown case {case!r}; expected i, ii or iii")
    vals = dict(_DEMO_DEFAULTS)
    for name, v in (("delta", delta), ("omega0", omega0), ("eta", eta), ("tau", tau)):
        if v is not None:
            vals[name] = float(v)
    try:
        p = LambdaParams(omega0=vals["omega0"], delta=vals["delta"], tau=vals["tau"], eta=vals["eta"])
        spec, psi0, rule = case_setup(case, p)
        _, _, report = _run_pipeline(spec, psi0, rule, TimeGrid.uniform(p.tau, int(steps)))
    except _RUN_ERRORS as exc:
        return _exit_code(exc, "demo setup failed")

    print(f"Lambda case ({case}): omega0={p.omega0:.6g} delta={p.delta:.6g} "
          f"tau={p.tau:.6g} eta={p.eta:.6g} steps={int(steps)}")
    print(f"{'quantity':<18} {'max |analytic - numerical|':>28}")
    worst = 0.0
    for name, ref, got in _demo_lines(case, p, report):
        dev = float(np.abs(ref - got).max())
        worst = max(worst, dev)
        print(f"{name:<18} {dev:>28.3e}")
        print(f"  analytic : {_fmt_matrix(ref)}")
        print(f"  numerical: {_fmt_matrix(got)}")
    print(f"classification: {report.classification}")
    print(f"max_commutator: {report.max_commutator:.3e}")
    print(f"separation_residual: {report.separation_residual:.3e}")
    print(f"worst deviation: {worst:.3e}")
    return EXIT_OK


def cmd_separability(config_path: str, *, tau=None, steps=None) -> int:
    try:
        _, _, _, report = _run_config(config_path, tau, steps)
    except _RUN_ERRORS as exc:
        return _exit_code(exc)
    print(f"classification: {report.classification}")
    print(f"max_commutator: {report.max_commutator:.6e}")
    print(f"separation_residual: {report.separation_residual:.6e}")
    print(f"product_residual: {report.product_residual:.6e}")
    return EXIT_OK if report.classification != "non_separable" else EXIT_VERDICT


def cmd_export(config_path: str, out_csv: str, *, tau=None, steps=None) -> int:
    try:
        cfg, schrod, section, _ = _run_config(config_path, tau, steps, report=False)
        gens = generator_path(section, schrod, cfg.spec)
        mats = (gens.a_mats, gens.k_mats, w_path(section, schrod, tol=cfg.tolerances),
                overlaps(section.path.initial, section.path.frames))
    except ValueError as exc:
        return _exit_code(exc)

    times = cfg.grid.times
    idx = range(1, mats[0].shape[1] + 1)
    header = ["t"] + [f"{prefix}_{j}{k}_{part}" for prefix in "AKWO"
                      for j in idx for k in idx for part in ("re", "im")]
    # each (T, M, M) complex stack viewed as T rows of interleaved re, im
    table = np.hstack([times[:, None]] + [
        np.ascontiguousarray(m).reshape(times.size, -1).view(float) for m in mats
    ])
    try:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table.tolist())
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write CSV: {exc}")
    print(f"wrote {times.size} rows to {out_csv}")
    return EXIT_OK


def cmd_gauge_check(config_path: str, seed: int | None, *, tau=None, steps=None, threshold: float = 1e-6) -> int:
    if seed is not None and seed < 0:
        return _fail(EXIT_CONFIG, f"config error: --seed must be >= 0, got {seed}")
    try:
        cfg, schrod, section, base = _run_config(config_path, tau, steps)
    except _RUN_ERRORS as exc:
        return _exit_code(exc)

    if seed is None:
        seed = cfg.seed if cfg.seed is not None else 0
    rng = np.random.default_rng(seed)
    vpath = random_closed_gauge(cfg.grid.times, cfg.psi0.shape[1], rng)
    v0 = vpath[0]
    try:
        transformed = gauge_transform(section, vpath, tol=cfg.tolerances)
        rotated = FramePath(cfg.grid, schrod.frames @ v0)
        moved = separability_report(transformed, rotated, cfg.spec, cfg.tolerances)
    except InPhaseViolation as exc:
        return _fail(EXIT_IN_PHASE, f"in-phase violation after gauge transform: {exc}")
    except ValueError as exc:
        return _exit_code(exc, "gauge transform failed")

    print(f"gauge seed: {seed}")
    worst = 0.0
    for name in _GAUGE_COVARIANT:
        dev = frobenius(getattr(moved, name) - v0.conj().T @ getattr(base, name) @ v0)
        worst = max(worst, dev)
        print(f"{name:<18} conjugation deviation {dev:.3e}")
    same_verdict = moved.classification == base.classification
    print(f"classification: {base.classification} -> {moved.classification} "
          f"({'unchanged' if same_verdict else 'CHANGED'})")
    print(f"max deviation: {worst:.3e}")
    if worst <= threshold and same_verdict:
        return EXIT_OK
    return _fail(EXIT_VERDICT, "gauge covariance violated; the pipeline is inconsistent")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holosplit",
        description="Subspace evolution and its holonomic/dynamical decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pd = sub.add_parser("decompose", help="run a config and write the JSON report")
    pd.add_argument("--config", required=True)
    pd.add_argument("--out", required=True)
    pd.add_argument("--steps", type=int)
    pd.add_argument("--tau", type=float)

    pm = sub.add_parser("demo", help="compare a Lambda case against its closed form")
    pm.add_argument("--case", required=True, choices=["i", "ii", "iii"])
    pm.add_argument("--delta", type=float)
    pm.add_argument("--omega0", type=float)
    pm.add_argument("--eta", type=float)
    pm.add_argument("--tau", type=float)
    pm.add_argument("--steps", type=int, default=4096)

    ps = sub.add_parser("separability", help="classify and print the residuals")
    ps.add_argument("--config", required=True)
    ps.add_argument("--steps", type=int)
    ps.add_argument("--tau", type=float)

    pe = sub.add_parser("export", help="write per-time A, K, W, O entries to CSV")
    pe.add_argument("--config", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--steps", type=int)
    pe.add_argument("--tau", type=float)

    pg = sub.add_parser("gauge-check", help="verify covariance under a random closed gauge")
    pg.add_argument("--config", required=True)
    pg.add_argument("--seed", type=int)
    pg.add_argument("--steps", type=int)
    pg.add_argument("--tau", type=float)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "decompose":
        code = cmd_decompose(args.config, args.out, tau=args.tau, steps=args.steps)
    elif args.command == "demo":
        code = cmd_demo(args.case, delta=args.delta, omega0=args.omega0,
                        eta=args.eta, tau=args.tau, steps=args.steps)
    elif args.command == "separability":
        code = cmd_separability(args.config, tau=args.tau, steps=args.steps)
    elif args.command == "export":
        code = cmd_export(args.config, args.out, tau=args.tau, steps=args.steps)
    else:
        code = cmd_gauge_check(args.config, args.seed, tau=args.tau, steps=args.steps)
    return code


if __name__ == "__main__":
    sys.exit(main())
