"""Run configuration and JSON/CSV serialization.

Complex numbers serialize as [re, im] pairs and matrices as row-major nested
arrays, so every artifact is plain JSON. Config parsing is strict: unknown
keys are rejected at every level.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Constant, FramePath, HamiltonianSpec, Sampled, TimeGrid, dimension
from .holonomy import VERDICTS, DecompositionReport
from .lambda_system import LambdaParams, case_setup
from .linalg import DEFAULT_TOL, Tolerances
from .sections import Custom, Fixed, PhaseAnchored, SectionRule

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "load_sampled_hamiltonian",
    "matrix_from_json",
    "matrix_to_json",
    "report_from_json",
    "report_to_json",
    "write_sampled_hamiltonian",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _number(v, what: str, kind: type = float):
    """v as a float or an int, or a ConfigError naming the field when v is not
    a number (a boolean is not one) or, for an int field, has a fraction."""
    if kind is int and isinstance(v, int) and not isinstance(v, bool):
        return v  # exact, however large
    try:
        if isinstance(v, bool):
            raise TypeError("a boolean is not a number")
        x = float(v)
        if kind is int and not x.is_integer():
            raise ValueError("not an integral value")
        return kind(x)
    except (TypeError, ValueError, OverflowError) as exc:
        integral = " with an integral value" if kind is int else ""
        raise ConfigError(f"{what} must be a number{integral}, got {v!r}") from exc


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _holds_boolean(v) -> bool:
    """Whether a parsed JSON value is or nests a true/false, which numpy
    would read as the number 1 or 0."""
    if isinstance(v, list):
        return any(_holds_boolean(x) for x in v)
    return isinstance(v, bool)


def _complex_from_pairs(rows, ndim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} is not a nested [re, im] array: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ConfigError(f"{what} must be a {ndim}d array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    if _holds_boolean(rows):
        raise ConfigError(f"{what} must hold numbers, not booleans")
    return _complex_from_pairs(rows, 2, what)


def _complex_from_json(v, what: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{what} must be a [re, im] pair")
    return complex(_number(v[0], what), _number(v[1], what))


def _take(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: Hamiltonian, initial frame, section rule, grid,
    tolerances and the optional seed for randomized commands."""

    spec: HamiltonianSpec
    psi0: np.ndarray
    rule: SectionRule
    grid: TimeGrid
    tolerances: Tolerances
    seed: int | None


def _read_matrix_file(path: str | Path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a {"dimension", "times", "matrices"} JSON file into its times and
    its (npoints, dimension, k) complex stack, parsed in one pass."""
    try:
        text = Path(path).read_text()
        data = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    # only a file that spells true or false is walked for booleans, so a
    # file of numbers costs two substring searches, not a loop per entry;
    # the text is dropped before the arrays are built
    spells_boolean = "true" in text or "false" in text
    del text
    keys = {"dimension", "times", "matrices"}
    _take(data, keys, keys, f"{what} {path}")
    if spells_boolean:
        for key in ("times", "matrices"):
            if _holds_boolean(data[key]):
                raise ConfigError(f'{what} {path}: "{key}" must hold numbers, not booleans')
    mats = _complex_from_pairs(data["matrices"], 3, f"{what} matrices")
    n = _number(data["dimension"], f'{what} {path}: "dimension"', int)
    if mats.shape[1] != n:
        raise ConfigError(f'{what} {path}: "dimension" is {n} but the matrices have {mats.shape[1]} rows')
    try:
        times = np.asarray(data["times"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'{what} {path}: "times" must be an array of numbers: {exc}') from exc
    return times, mats


def load_sampled_hamiltonian(
    path: str | Path, *, structure_tol: float = DEFAULT_TOL.structure_tol
) -> Sampled:
    """Read {"dimension", "times", "matrices"} from a JSON file; the samples
    must be Hermitian within structure_tol."""
    times, mats = _read_matrix_file(path, "sampled Hamiltonian")
    try:
        return Sampled(TimeGrid(times), mats, structure_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_sampled_hamiltonian(path: str | Path, times: np.ndarray, samples: np.ndarray) -> None:
    data = {
        "dimension": int(np.asarray(samples).shape[1]),
        "times": [float(t) for t in np.asarray(times)],
        "matrices": [matrix_to_json(m) for m in np.asarray(samples)],
    }
    Path(path).write_text(json.dumps(data))


def _load_custom_section(path: str | Path, grid: TimeGrid, structure_tol: float) -> FramePath:
    times, frames = _read_matrix_file(path, "section file")
    if times.shape != grid.times.shape or not np.allclose(times, grid.times, atol=0, rtol=0):
        raise ConfigError("section file times do not match the run grid")
    try:
        return FramePath(grid, frames, structure_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_system(
    d: dict, where: str, tau: float, structure_tol: float
) -> tuple[HamiltonianSpec, LambdaParams | None]:
    _take(d, {"kind", "omega0", "delta", "omega1", "omega2", "eta", "matrix", "path"},
          {"kind"}, where)
    kind = d["kind"]
    if kind == "lambda":
        _take(d, {"kind", "omega0", "delta", "omega1", "omega2", "eta"},
              {"kind", "omega0", "delta"}, where)
        fields = {
            "omega0": _number(d["omega0"], f"{where}.omega0"),
            "delta": _number(d["delta"], f"{where}.delta"),
            "omega1": _complex_from_json(d.get("omega1", [1.0, 0.0]), f"{where}.omega1"),
            "omega2": _complex_from_json(d.get("omega2", [0.0, 0.0]), f"{where}.omega2"),
            "eta": _number(d.get("eta", 0.0), f"{where}.eta"),
        }
        try:
            params = LambdaParams(tau=tau, **fields)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return params.spec, params
    if kind == "constant":
        _take(d, {"kind", "matrix"}, {"kind", "matrix"}, where)
        try:
            return Constant(matrix_from_json(d["matrix"], "constant Hamiltonian"), structure_tol), None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "sampled":
        _take(d, {"kind", "path"}, {"kind", "path"}, where)
        return load_sampled_hamiltonian(d["path"], structure_tol=structure_tol), None
    raise ConfigError(f"unknown system kind {kind!r}")


def load_run_config(
    path: str | Path,
    *,
    tau_override: float | None = None,
    steps_override: int | None = None,
) -> RunConfig:
    """Parse and resolve a run configuration file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    _take(data, {"system", "subspace", "section", "grid", "tolerances", "seed"},
          {"system", "subspace", "section", "grid"}, "config")

    grid_d = data["grid"]
    _take(grid_d, {"tau", "steps"}, {"tau", "steps"}, "config.grid")
    tau = _number(tau_override if tau_override is not None else grid_d["tau"], "grid.tau")
    steps = _number(steps_override if steps_override is not None else grid_d["steps"],
                    "grid.steps", int)
    if steps < 2:
        raise ConfigError("grid.steps must be at least 2")
    if not 0 < tau < np.inf:
        raise ConfigError("grid.tau must be positive and finite")
    grid = TimeGrid.uniform(tau, steps)

    tol_d = data.get("tolerances", {})
    _take(tol_d, {"structure_tol", "positivity_tol", "separation_tol"}, set(),
          "config.tolerances")
    try:
        tolerances = Tolerances(**{k: _number(v, f"tolerances.{k}") for k, v in tol_d.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # the tolerances govern the checks on every file and matrix the config loads
    spec, lam_params = _resolve_system(data["system"], "config.system", tau,
                                       tolerances.structure_tol)

    sub = data["subspace"]
    _take(sub, {"lambda_case", "matrix"}, set(), "config.subspace")
    if ("lambda_case" in sub) == ("matrix" in sub):
        raise ConfigError("config.subspace needs exactly one of lambda_case or matrix")
    rule_d = data["section"]
    _take(rule_d, {"rule", "frame", "path"}, {"rule"}, "config.section")

    if "lambda_case" in sub:
        if lam_params is None:
            raise ConfigError("lambda_case subspace requires a lambda system")
        case = sub["lambda_case"]
        if case not in ("i", "ii", "iii"):
            raise ConfigError(f"unknown lambda case {case!r}")
        _, psi0, default_rule = case_setup(case, lam_params)
    else:
        psi0 = matrix_from_json(sub["matrix"], "subspace frame")
        default_rule = None
    if psi0.shape[0] != dimension(spec):
        raise ConfigError("subspace frame dimension does not match the system")

    rule = _resolve_rule(rule_d, grid, default_rule, tolerances.structure_tol)

    seed = data.get("seed")
    if seed is not None:
        seed = _number(seed, "seed", int)
        if seed < 0:
            raise ConfigError(f"seed must be a number >= 0, got {seed!r}")
    return RunConfig(spec, psi0, rule, grid, tolerances, seed)


def _resolve_rule(
    d: dict, grid: TimeGrid, default_rule: SectionRule | None, structure_tol: float
) -> SectionRule:
    name = d["rule"]
    if name == "fixed":
        _take(d, {"rule", "frame"}, {"rule"}, "config.section")
        frame = matrix_from_json(d["frame"], "section frame") if "frame" in d else None
        return Fixed(frame)
    if name == "phase_anchored":
        _take(d, {"rule"}, {"rule"}, "config.section")
        return PhaseAnchored()
    if name == "custom":
        _take(d, {"rule", "path"}, {"rule", "path"}, "config.section")
        return Custom(_load_custom_section(d["path"], grid, structure_tol))
    if name == "auto":
        _take(d, {"rule"}, {"rule"}, "config.section")
        if default_rule is None:
            raise ConfigError("section rule 'auto' requires a lambda_case subspace")
        return default_rule
    raise ConfigError(f"unknown section rule {name!r}")


# the report's fields and their types, read once from DecompositionReport;
# tau and steps nest under "grid", which closes the JSON object
_REPORT_TYPES = typing.get_type_hints(DecompositionReport)
_GRID_KEYS = ("tau", "steps")
_REPORT_KEYS = tuple(f.name for f in dataclasses.fields(DecompositionReport)
                     if f.name not in _GRID_KEYS)


def _report_value(v, kind: type, what: str):
    if kind is np.ndarray:
        return matrix_from_json(v, what)
    if kind is str:
        if v not in VERDICTS:
            raise ConfigError(f"{what} must be one of {', '.join(VERDICTS)}, got {v!r}")
        return v
    return _number(v, what, kind)


def report_to_json(report: DecompositionReport) -> dict:
    def value(k: str):
        v, kind = getattr(report, k), _REPORT_TYPES[k]
        return matrix_to_json(v) if kind is np.ndarray else kind(v)

    return {**{k: value(k) for k in _REPORT_KEYS}, "grid": {k: value(k) for k in _GRID_KEYS}}


def report_from_json(data: dict) -> DecompositionReport:
    keys = {*_REPORT_KEYS, "grid"}
    _take(data, keys, keys, "report")
    _take(data["grid"], set(_GRID_KEYS), set(_GRID_KEYS), "report.grid")
    values = {k: _report_value(data[k], _REPORT_TYPES[k], f"report.{k}") for k in _REPORT_KEYS}
    values.update({k: _report_value(data["grid"][k], _REPORT_TYPES[k], f"report.grid.{k}")
                   for k in _GRID_KEYS})
    return DecompositionReport(**values)
