"""Command-line interface.

Subcommands: decompose (JSON report), demo (analytic vs numerical table for
the Lambda cases), separability (classification summary), export (CSV
trajectories of A, K, W and O, the bytes csv.writer gives, formatted by
orjson except in rows that need repr), gauge-check (covariance under a random
closed gauge). Every subcommand is one row of the command table in
_build_parser: its name, help, cmd_* function and options, each option's
dest a parameter of that function. An omitted option is not passed, so
each default lives only in the cmd_* signature. Exit codes: 0 success, 1
negative verdict, 2 in-phase violation, 3 config error, 4 output I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import orjson

from .config import load_run_config, report_to_json
from .dynamics import TimeGrid, propagate_frame
from .holonomy import DecompositionReport, generator_path, separability_report
from .instances import random_closed_gauge
from .lambda_system import LambdaParams, case_i_analytic, case_ii_analytic, case_iii_analytic, case_setup
from .linalg import DEFAULT_TOL, frobenius
from .sections import InPhaseViolation, build_section, gauge_transform, w_path

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_IN_PHASE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

# report matrices that a closed gauge V constant in time (random_closed_gauge)
# conjugates, M -> V(0)^dag M V(0); under a loop gauge T exp int K does not
_GAUGE_COVARIANT = ("w_direct", "w_final", "holonomic_factor", "dynamical_factor",
                    "g_factor", "d_factor", "time_evolution", "overlap")
# largest conjugation deviation gauge-check accepts
_GAUGE_THRESHOLD = 1e-6
# export rows formatted per orjson call; bounds the CSV text held at once
_CSV_BLOCK_ROWS = 512


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


def _run_pipeline(spec, psi0, rule, grid, tol=DEFAULT_TOL):
    """Schrodinger path, section and separability report."""
    schrod = propagate_frame(spec, psi0, grid, tol=tol)
    section = build_section(rule, schrod, spec, tol=tol)
    return schrod, section, separability_report(section, schrod, spec, tol)


def _run_config(config_path: str, tau, steps):
    cfg = load_run_config(config_path, tau_override=tau, steps_override=steps)
    return (cfg, *_run_pipeline(cfg.spec, cfg.psi0, cfg.rule, cfg.grid, cfg.tolerances))


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
    return " ".join("[" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]"
                    for row in np.atleast_2d(m))


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


def cmd_demo(case: str, *, delta=1.0, omega0=np.sqrt(3.0), eta=np.pi / 3, tau=np.pi / 2, steps=4096) -> int:
    if case not in ("i", "ii", "iii"):
        return _fail(EXIT_CONFIG, f"unknown case {case!r}; expected i, ii or iii")
    try:
        p = LambdaParams(omega0=omega0, delta=delta, tau=tau, eta=eta)
        spec, psi0, rule = case_setup(case, p)
        _, _, report = _run_pipeline(spec, psi0, rule, TimeGrid.uniform(p.tau, steps))
    except _RUN_ERRORS as exc:
        return _exit_code(exc, "demo setup failed")

    print(f"Lambda case ({case}): omega0={p.omega0:.6g} delta={p.delta:.6g} "
          f"tau={p.tau:.6g} eta={p.eta:.6g} steps={steps}")
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


def _orjson_matches_repr(values: np.ndarray) -> np.ndarray:
    """Mask of the floats whose orjson text is their repr: +-0.0,
    0 < |x| < 1e-9 and 1e-4 <= |x| < 1e16. Outside these orjson writes
    1e-7 (repr 1e-07) below 1e-5, 0.00001 (repr 1e-05) up to 1e-4, 1e16
    (repr 1e+16) from 1e16 on, and null for nan and inf."""
    a = np.abs(values)
    return (a < 1e-9) | ((a >= 1e-4) & (a < 1e16))


def _csv_blocks(table: np.ndarray):
    """Yield the bytes csv.writer gives for the rows of a C-contiguous float
    table (the repr of each float, \\r\\n line ends), _CSV_BLOCK_ROWS rows at
    a time. orjson formats each block in one call; a row holding a float
    that orjson writes differently is formatted by repr instead."""
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        rows = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
        for i in np.flatnonzero(~_orjson_matches_repr(block).all(axis=1)):
            rows[i] = ",".join(map(repr, block[i].tolist())).encode()
        rows.append(b"")
        yield b"\r\n".join(rows)


def cmd_export(config_path: str, out_path: str, *, tau=None, steps=None) -> int:
    try:
        cfg = load_run_config(config_path, tau_override=tau, steps_override=steps)
        schrod = propagate_frame(cfg.spec, cfg.psi0, cfg.grid, tol=cfg.tolerances)
        section = build_section(cfg.rule, schrod, cfg.spec, tol=cfg.tolerances)
        gens = generator_path(section)
        mats = (gens.a_mats, gens.k_mats, w_path(section), section.overlap)
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
        # the bytes csv.writer gives: no field needs quoting
        with open(out_path, "wb") as fh:
            fh.write(",".join(header).encode() + b"\r\n")
            fh.writelines(_csv_blocks(table))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write CSV: {exc}")
    print(f"wrote {times.size} rows to {out_path}")
    return EXIT_OK


def cmd_gauge_check(config_path: str, seed: int | None = None, *, tau=None, steps=None) -> int:
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
        # the transformed section holds schrod and pairs with its frames S(t) V(0)
        transformed = gauge_transform(section, vpath, tol=cfg.tolerances)
        moved = separability_report(transformed, schrod, cfg.spec, cfg.tolerances)
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
    if worst <= _GAUGE_THRESHOLD and same_verdict:
        return EXIT_OK
    return _fail(EXIT_VERDICT, "gauge covariance violated; the pipeline is inconsistent")


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per row of the command table. The table is built here,
    on each call, so it holds the cmd_* functions the module holds then,
    wrappers set on the module included."""
    config = ("--config", {"dest": "config_path", "metavar": "CONFIG", "required": True})
    out = ("--out", {"dest": "out_path", "metavar": "OUT", "required": True})
    steps = ("--steps", {"type": int})
    tau = ("--tau", {"type": float})
    commands = (
        ("decompose", "run a config and write the JSON report", cmd_decompose, (config, out, steps, tau)),
        ("demo", "compare a Lambda case against its closed form", cmd_demo, (
            ("--case", {"required": True, "choices": ["i", "ii", "iii"]}),
            ("--delta", {"type": float}), ("--omega0", {"type": float}), ("--eta", {"type": float}),
            tau, steps)),
        ("separability", "classify and print the residuals", cmd_separability, (config, steps, tau)),
        ("export", "write per-time A, K, W, O entries to CSV", cmd_export, (config, out, steps, tau)),
        ("gauge-check", "verify covariance under a random closed gauge", cmd_gauge_check,
         (config, ("--seed", {"type": int}), steps, tau)),
    )
    parser = argparse.ArgumentParser(
        prog="holosplit",
        description="Subspace evolution and its holonomic/dynamical decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, run, options in commands:
        # an omitted option stays out of the namespace, so run's default applies
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.set_defaults(run=run)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    opts = vars(_build_parser().parse_args(argv))
    del opts["command"]
    return opts.pop("run")(**opts)


if __name__ == "__main__":
    sys.exit(main())
