"""Run configuration and JSON/CSV serialization.

Complex numbers serialize as [re, im] pairs and matrices as row-major nested
arrays, so every artifact is plain JSON. Config parsing is strict: unknown
keys are rejected at every level, and a string, boolean or null is not a
number. A config's relative file paths are taken from the config's own
directory. The matrix files it names (a sampled Hamiltonian, a custom
section) are parsed with orjson, which holds them to RFC 8259: a NaN or
Infinity literal, or a number beyond the float range, is refused there.

A matrix file whose "matrices" array is regular, as the writer's are, is
read by a flat route. The array is read one slice at a time: each slice's
brackets are checked against the shape, then blanked, so that orjson returns
its numbers as a flat list, which goes into one float array. The general
reader, which builds the nested lists, decides every other file and names
every error; both give the same arrays bit for bit.

A matrix file's arrays are cached in __holosplit_cache__/<name>.entry beside
it, with a copy of the file's bytes: a read whose file is byte for byte that
copy takes the arrays from the entry. The cache is best-effort, a file that
fails to parse is never cached, and every check after the read still runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import struct
import tempfile
import typing
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

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
    a number (a boolean or a string is not one) or, for an int field, has a
    fraction."""
    if kind is int and isinstance(v, int) and not isinstance(v, bool):
        return v  # exact, however large
    try:
        if isinstance(v, (bool, str)):
            raise TypeError(f"a {type(v).__name__} is not a number")
        x = float(v)
        if kind is int and not x.is_integer():
            raise ValueError("not an integral value")
        return kind(x)
    except (TypeError, ValueError, OverflowError) as exc:
        integral = " with an integral value" if kind is int else ""
        raise ConfigError(f"{what} must be a number{integral}, got {v!r}") from exc


def matrix_to_json(m: np.ndarray) -> list:
    """A complex array of any rank as nested lists of [re, im] float pairs."""
    m = np.ascontiguousarray(m, dtype=complex)
    # a complex128 entry is its two float64 parts in memory, re then im
    return m.view(float).reshape(*m.shape, 2).tolist()


def _holds_boolean(v) -> bool:
    """Whether a parsed JSON value is or nests a true/false, which numpy
    would read as the number 1 or 0. Walked with a list, not by recursion,
    so that no depth of nesting ends in a RecursionError."""
    pending = [v]
    while pending:
        x = pending.pop()
        if isinstance(x, list):
            pending.extend(x)
        elif isinstance(x, bool):
            return True
    return False


def _real_array(rows, what: str) -> np.ndarray:
    """rows as a float array. numpy infers the dtype, and only an integer or
    float one is taken, so a string or null entry is refused, not read as
    1.5 or NaN; a boolean mixed with numbers still reads as 1 or 0, which
    _holds_boolean catches."""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an array of numbers: {exc}") from exc
    if arr.dtype.kind not in "fiu":
        raise ConfigError(f"{what} must be an array of numbers, got {arr.dtype} entries")
    return arr.astype(float, copy=False)


def _complex_from_pairs(rows, ndim: int, what: str) -> np.ndarray:
    arr = _real_array(rows, what)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ConfigError(f"{what} must be a {ndim}d array of [re, im] pairs")
    # the pairs viewed as complex128, so each part is read bit for bit;
    # re + 1j * im would turn a negative zero into a positive one
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    if _holds_boolean(rows):
        raise ConfigError(f"{what} must hold numbers, not booleans")
    return _complex_from_pairs(rows, 2, what)


def _complex_from_json(v, what: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"{what} must be a [re, im] pair")
    return complex(_number(v[0], what), _number(v[1], what))


def _file_path(v, base: Path, what: str) -> Path:
    """A config's file path; a relative one is taken from base, the config
    file's directory, not from the working directory."""
    if not isinstance(v, str):
        raise ConfigError(f"{what} must be a string, got {v!r}")
    return base / v


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


def _read_matrix_file(path: Path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a {"dimension", "times", "matrices"} JSON file into its times and
    its (npoints, dimension, k) complex stack. A cache entry that holds the
    file's exact bytes gives the arrays without a parse. Otherwise the flat
    route, which holds the file, the arrays and one slice's numbers, is tried
    first; a file it does not take goes, unchanged, to the general reader,
    which decides every other file and names every error; and the arrays are
    cached."""
    entry = path.parent / "__holosplit_cache__" / f"{path.name}.entry"
    arrays = _cached_arrays(entry, path)
    if arrays is None:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
        arrays = _flat_matrix_file(raw) or _nested_matrix_file(raw, path, what)
        if _cacheable(*arrays):
            _cache_arrays(entry, raw, *arrays)
    return arrays


# a cache entry: this header (a tag naming the version and the byte order, the
# file's length, the shape (npoints, n, k), the CRC-32 of the arrays), the
# file's bytes, then the arrays raw. A change to what the readers return must
# change the tag, so that no older entry is taken
_ENTRY_TAG = f"holosplit matrix entry 1 {np.dtype(complex).str}".encode()
_ENTRY = struct.Struct(f"={len(_ENTRY_TAG)}s4QI")
_CHUNK = 1 << 18  # bytes per read when a file is compared with its copy


def _entry_header(length: int, times: np.ndarray, mats: np.ndarray) -> bytes:
    return _ENTRY.pack(_ENTRY_TAG, length, *mats.shape, zlib.crc32(mats, zlib.crc32(times)))


def _cacheable(times: np.ndarray, mats: np.ndarray) -> bool:
    """Whether the arrays have the readers' dtypes and C layout and one
    matrix per time, as every file that passes the later checks has."""
    return (times.dtype == np.float64 and mats.dtype == np.complex128 and times.ndim == 1 and mats.ndim == 3
            and len(times) == len(mats) and times.flags.c_contiguous and mats.flags.c_contiguous)


def _cached_arrays(entry: Path, path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """The times and matrices in entry, read into fresh arrays, when its copy
    of path's bytes, compared one chunk at a time, is path's bytes; else None."""
    try:
        with open(entry, "rb") as fh, open(path, "rb") as src:
            header = fh.read(_ENTRY.size)
            tag, length, npoints, n, k, _ = _ENTRY.unpack(header)
            # checked before the arrays are allocated from the header's shape
            size = _ENTRY.size + length + 8 * npoints * (1 + 2 * n * k)
            if tag != _ENTRY_TAG or os.fstat(fh.fileno()).st_size != size:
                return None
            # to length + 1: a longer file reads more than the copy in the last chunk
            for at in range(0, length + 1, _CHUNK):
                if src.read(_CHUNK) != fh.read(min(_CHUNK, length - at)):
                    return None
            times, mats = np.empty(npoints), np.empty((npoints, n, k), complex)
            if fh.readinto(times) + fh.readinto(mats) != times.nbytes + mats.nbytes or fh.read(1):
                return None
    except (OSError, struct.error):
        return None
    return (times, mats) if _entry_header(length, times, mats) == header else None


def _cache_arrays(entry: Path, raw: bytes, times: np.ndarray, mats: np.ndarray) -> None:
    """Write entry through a temporary directory beside it and os.replace, so
    that no reader sees it half written; a failure leaves nothing behind."""
    with contextlib.suppress(OSError):
        entry.parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=entry.parent, ignore_cleanup_errors=True) as tmp:
            with open(f"{tmp}/entry", "wb") as fh:
                fh.writelines((_entry_header(len(raw), times, mats), raw, times, mats))
            os.replace(f"{tmp}/entry", entry)


_MATRIX_KEYS = {"dimension", "times", "matrices"}
_JSON_SPACE = b" \t\n\r"
# the "matrices" key up to its array's "[", the first "]]" after it (the end
# of the first row) and the first "]]]]" (the end of the array)
_MATRICES_OPEN = re.compile(rb'"matrices"[ \t\n\r]*:[ \t\n\r]*\[')
_ROW_CLOSE = re.compile(rb"\][ \t\n\r]*\]")
_MATRICES_CLOSE = re.compile(rb"\][ \t\n\r]*\][ \t\n\r]*\][ \t\n\r]*\]")
# every byte a JSON number may hold, as one mark
_NUMBER_MARK = bytes.maketrans(b"0123456789.eE+-", b"0" * 15)
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")
_SLICE = 1 << 16  # about this many bytes of a "matrices" span are read at a time


def _slice_marks(piece: bytes) -> bytes:
    """A slice of a "matrices" span with its whitespace left out and each
    run of number bytes as one "0"."""
    marks = np.frombuffer(piece.translate(_NUMBER_MARK, _JSON_SPACE), np.uint8)
    numbers = marks == ord("0")
    return marks[:1].tobytes() + marks[1:][~(numbers[1:] & numbers[:-1])].tobytes()


def _flat_matrix_file(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The general reader's arrays without its nested lists, or None when
    the file is not one this route can prove regular.

    The "matrices" span runs from its "[" to the last "]]]]", or to the first
    spaced close if there is none; another close inside it breaks its marks.
    Outside it the file holds only its three keys' quotes and no true or
    false, and orjson validates it with the span read as []. The span is then
    read in slices of about _SLICE bytes, each cut after a comma. A slice's
    marks (its brackets and commas, and a "0" for each number), its cut
    comma kept, must go on the regular ones for the parsed dimension,
    len(times) and the first row's pairs; then, its brackets blanked, orjson
    reads it as a list of numbers into one float array. A file that passes
    parses, with its brackets, to the same numbers in that shape."""
    head = _MATRICES_OPEN.search(raw)
    if head is None:
        return None
    # from the file's end, where the writer puts it; the regex tries every "]"
    close = raw.rfind(b"]]]]", head.end())
    tail = _MATRICES_CLOSE.search(raw, head.end()) if close < 0 else None
    if close < 0 and tail is None:
        return None
    start, end = head.end() - 1, tail.end() if tail else close + 4
    outside = raw[:start] + b"[]" + raw[end:]
    if outside.count(b'"') != 6 or b"true" in outside or b"false" in outside:
        return None
    try:
        data = orjson.loads(outside)
    except orjson.JSONDecodeError:
        return None
    if not (isinstance(data, dict) and data.keys() == _MATRIX_KEYS):
        return None
    times, n = data["times"], data["dimension"]
    if not (isinstance(times, list) and times and type(n) is int and n > 0):
        return None
    try:
        times = np.array(times)
    except (ValueError, OverflowError):
        return None
    del data, outside
    # the "[" of the first row's pairs follow the span's, the matrix's and the row's
    k = raw.count(b"[", start, _ROW_CLOSE.search(raw, start).start()) - 3
    # a pair takes 6 bytes or more of the span ("[0,0]" and a "," or "]"), so
    # nothing is allocated for more pairs than the span can hold
    if times.dtype.kind not in "fiu" or k < 1 or 6 * len(times) * n * k > end - start:
        return None
    # inside the span, the marks are len(times) periods of a matrix and a comma, less the last comma
    row = b"[" + b",".join([b"[0,0]"] * k) + b"]"
    period = b"[" + b",".join([row] * n) + b"],"
    size = len(times) * len(period) - 1
    regular = period * (_SLICE // len(period) + 3)
    values = np.empty(2 * n * k * len(times))
    at, done, filled = start + 1, 0, 0
    while at < end - 1:
        stop = raw.find(b",", at + _SLICE, end - 1) + 1 or end - 1
        marks, phase = _slice_marks(raw[at:stop]), done % len(period)
        if done + len(marks) > size or not regular.startswith(marks, phase):
            return None
        try:
            numbers = orjson.loads(b"[%b]" % raw[at:stop].translate(_BLANK_BRACKETS).removesuffix(b","))
        except orjson.JSONDecodeError:
            return None
        values[filled:filled + len(numbers)] = numbers
        at, done, filled = stop, done + len(marks), filled + len(numbers)
        del numbers
    # marks that stop short of the span's end leave values short
    if filled != len(values):
        return None
    # the pairs viewed as complex128, as in _complex_from_pairs
    mats = values.reshape(len(times), n, k, 2).view(complex)[..., 0]
    return times.astype(float, copy=False), mats


def _nested_matrix_file(raw: bytes, path: Path, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The general reader: parse the file into nested lists in one pass and
    check it field by field, naming the file and the field in each error."""
    try:
        # orjson also refuses bytes that are not UTF-8 and the literals NaN
        # and Infinity, which RFC 8259 leaves out of JSON
        data = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    # only a file that spells true or false is walked for booleans, so a
    # file of numbers costs two substring searches, not a loop per entry
    spells_boolean = b"true" in raw or b"false" in raw
    _take(data, _MATRIX_KEYS, _MATRIX_KEYS, f"{what} {path}")
    if spells_boolean:
        for key in ("times", "matrices"):
            if _holds_boolean(data[key]):
                raise ConfigError(f'{what} {path}: "{key}" must hold numbers, not booleans')
    mats = _complex_from_pairs(data["matrices"], 3, f'{what} {path}: "matrices"')
    n = _number(data["dimension"], f'{what} {path}: "dimension"', int)
    if mats.shape[1] != n:
        raise ConfigError(f'{what} {path}: "dimension" is {n} but the matrices have {mats.shape[1]} rows')
    return _real_array(data["times"], f'{what} {path}: "times"'), mats


def load_sampled_hamiltonian(
    path: str | Path, *, structure_tol: float = DEFAULT_TOL.structure_tol
) -> Sampled:
    """Read {"dimension", "times", "matrices"} from a JSON file; the samples
    must be Hermitian within structure_tol."""
    times, mats = _read_matrix_file(Path(path), "sampled Hamiltonian")
    try:
        return Sampled(TimeGrid(times), mats, structure_tol)
    except ValueError as exc:
        raise ConfigError(f"sampled Hamiltonian {path}: {exc}") from exc


def write_sampled_hamiltonian(path: str | Path, times: np.ndarray, samples: np.ndarray) -> None:
    """Write {"dimension", "times", "matrices"} as compact orjson JSON from
    float views of the arrays; every float reads back bit for bit."""
    times, samples = np.asarray(times, float, order="C"), np.asarray(samples, complex, order="C")
    if samples.ndim != 3 or 0 in samples.shape:
        raise ValueError(f"sampled Hamiltonian {path}: samples must be a 3-D stack with no empty "
                         f"dimension, got shape {samples.shape}")
    if times.shape != samples.shape[:1]:
        raise ValueError(f"sampled Hamiltonian {path}: times must be a 1-D array of {len(samples)} "
                         f"points, one per sample, got shape {times.shape}")
    # orjson writes a NaN or infinity as null, which the reader refuses
    for what, values in (("times", times), ("samples", samples)):
        if not np.isfinite(values).all():
            raise ValueError(f"sampled Hamiltonian {path}: {what} hold a NaN or infinity. "
                             "Out of range float values are not JSON compliant")
    # one float view per time: orjson writes the bytes it writes for the
    # whole 4-D view, in half the time
    data = {"dimension": samples.shape[1], "times": times,
            "matrices": list(samples.view(float).reshape(*samples.shape, 2))}
    Path(path).write_bytes(orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY))


def _load_custom_section(path: Path, grid: TimeGrid, structure_tol: float) -> FramePath:
    times, frames = _read_matrix_file(path, "section file")
    if times.shape != grid.times.shape or not np.allclose(times, grid.times, atol=0, rtol=0):
        raise ConfigError(f"section file {path}: times do not match the run grid")
    try:
        return FramePath(grid, frames, structure_tol)
    except ValueError as exc:
        raise ConfigError(f"section file {path}: {exc}") from exc


# a lambda system's LambdaParams fields and their readers; tau comes from
# the grid and structure_tol from the tolerances, and an absent optional
# key takes the LambdaParams default
_LAMBDA_KEYS = {"omega0": _number, "delta": _number, "omega1": _complex_from_json,
                "omega2": _complex_from_json, "eta": _number}


def _resolve_system(
    d: dict, where: str, tau: float, structure_tol: float, base: Path
) -> tuple[HamiltonianSpec, LambdaParams | None]:
    _take(d, {"kind", *_LAMBDA_KEYS, "matrix", "path"}, {"kind"}, where)
    kind = d["kind"]
    if kind == "lambda":
        _take(d, {"kind", *_LAMBDA_KEYS}, {"kind", "omega0", "delta"}, where)
        fields = {k: read(d[k], f"{where}.{k}") for k, read in _LAMBDA_KEYS.items() if k in d}
        try:
            params = LambdaParams(tau=tau, structure_tol=structure_tol, **fields)
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
        path = _file_path(d["path"], base, f"{where}.path")
        spec = load_sampled_hamiltonian(path, structure_tol=structure_tol)
        # the run's grid is [0, tau] and a file's starts at 0; checked here,
        # so that the error names the field and the file before propagation
        if tau > spec.grid.tau:
            raise ConfigError(f"grid.tau {tau!r} is past the end of sampled Hamiltonian {path}, "
                              f"which is sampled up to t = {spec.grid.tau!r}")
        return spec, None
    raise ConfigError(f"unknown system kind {kind!r}")


def load_run_config(
    path: str | Path,
    *,
    tau_override: float | None = None,
    steps_override: int | None = None,
) -> RunConfig:
    """Parse and resolve a run configuration file."""
    # the stdlib parser, not orjson: a config may hold an exact integer
    # beyond 2**64 (a seed), which orjson would read as a float. It recurses
    # once per level of nesting, so a deep enough file is a RecursionError
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    base = Path(path).parent

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
    _take(tol_d, {f.name for f in dataclasses.fields(Tolerances)}, set(), "config.tolerances")
    try:
        tolerances = Tolerances(**{k: _number(v, f"tolerances.{k}") for k, v in tol_d.items()})
    except ValueError as exc:
        raise ConfigError(f"tolerances.{exc}") from exc

    # the tolerances govern the checks on every file and matrix the config loads
    spec, lam_params = _resolve_system(data["system"], "config.system", tau,
                                       tolerances.structure_tol, base)

    sub = data["subspace"]
    _take(sub, {"lambda_case", "matrix"}, set(), "config.subspace")
    if ("lambda_case" in sub) == ("matrix" in sub):
        raise ConfigError("config.subspace needs exactly one of lambda_case or matrix")
    rule_d = data["section"]
    _take(rule_d, {"rule", "path"}, {"rule"}, "config.section")

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

    rule = _resolve_rule(rule_d, grid, default_rule, tolerances.structure_tol, base)

    seed = data.get("seed")
    if seed is not None:
        seed = _number(seed, "seed", int)
        if seed < 0:
            raise ConfigError(f"seed must be a number >= 0, got {seed!r}")
    return RunConfig(spec, psi0, rule, grid, tolerances, seed)


def _resolve_rule(
    d: dict, grid: TimeGrid, default_rule: SectionRule | None, structure_tol: float, base: Path
) -> SectionRule:
    name = d["rule"]
    if name == "custom":
        _take(d, {"rule", "path"}, {"rule", "path"}, "config.section")
        path = _file_path(d["path"], base, "config.section.path")
        return Custom(_load_custom_section(path, grid, structure_tol))
    if name not in ("fixed", "phase_anchored", "auto"):
        raise ConfigError(f"unknown section rule {name!r}")
    _take(d, {"rule"}, {"rule"}, "config.section")
    if name == "auto":
        if default_rule is None:
            raise ConfigError("section rule 'auto' requires a lambda_case subspace")
        return default_rule
    return Fixed() if name == "fixed" else PhaseAnchored()


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
