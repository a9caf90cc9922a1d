import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import re
import tracemalloc
import types
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holosplit import cli, config
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
from holosplit.instances import cosine_drive, random_hermitian, refutation_instance
from holosplit.lambda_system import LambdaParams, case_setup
from holosplit.linalg import hermitian_part

SQRT3 = np.sqrt(3.0)

# finite float64 values from random bit patterns, and from Hypothesis' float
# strategy, which favours signed zeros, subnormals and the largest values
FINITE_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    .filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
)


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

    @pytest.mark.parametrize("where", ["times", "samples"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sampled_writer_refuses_non_finite_values(self, tmp_path, where, value):
        # json.dumps would write a NaN or Infinity literal, which no RFC 8259
        # reader (the matrix-file reader included) accepts
        times, samples = np.linspace(0.0, 1.0, 3), np.zeros((3, 2, 2), dtype=complex)
        if where == "times":
            times[1] = value
        else:
            samples[2, 0, 1] = complex(0.0, value)
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_sampled_hamiltonian(tmp_path / "ham.json", times, samples)

    @pytest.mark.parametrize("integral_times", [False, True])
    def test_sampled_writer_bytes_match_the_per_entry_encoding(self, tmp_path, integral_times):
        spec, _ = refutation_instance(7, TimeGrid.uniform(1.0, 8))
        times = np.arange(9) if integral_times else spec.grid.times
        samples = spec.samples.copy()
        samples[0, 0, 1] = complex(-0.0, 5e-324)
        samples[1, 2, 3] = complex(1e300, -0.0)
        samples[8, 3, 3] = complex(2.2250738585072014e-309, -1e300)
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, times, samples)
        per_entry = {
            "dimension": 4,
            "times": [float(t) for t in times],
            "matrices": [[[[float(z.real), float(z.imag)] for z in row] for row in m]
                         for m in samples],
        }
        # orjson's compact bytes, from the float view as from Python floats
        assert path.read_bytes() == orjson.dumps(per_entry)
        assert json.loads(path.read_text()) == per_entry

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 5), (4, 3, 1)])
    def test_sampled_writer_bytes_equal_the_nested_lists(self, tmp_path, shape):
        values = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0]
        times = np.resize(values, shape[0])
        samples = np.resize(values, 2 * int(np.prod(shape))).view(complex).reshape(shape)
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, times, samples)
        nested = {"dimension": shape[1], "times": times.tolist(),
                  "matrices": samples.view(float).reshape(*shape, 2).tolist()}
        assert path.read_bytes() == orjson.dumps(nested)

    @pytest.mark.parametrize("times, shape", [
        # the stack is not 3-D
        (np.zeros(3), (3,)), (np.zeros(3), (3, 2)), (np.zeros(3), (3, 2, 2, 1)),
        # a dimension is zero
        (np.zeros(0), (0, 2, 2)), (np.zeros(3), (3, 0, 0)), (np.zeros(3), (3, 2, 0)),
        # the times are not 1-D with one per sample
        (np.zeros(2), (3, 2, 2)), (np.zeros(4), (3, 2, 2)), (np.zeros((3, 1)), (3, 2, 2)), (0.0, (1, 2, 2)),
    ])
    def test_sampled_writer_refuses_what_the_reader_refuses(self, tmp_path, times, shape):
        path = tmp_path / "ham.json"
        if len(shape) != 3 or 0 in shape:
            message = f"samples must be a 3-D stack with no empty dimension, got shape {shape}"
        else:
            message = (f"times must be a 1-D array of {shape[0]} points, one per sample, "
                       f"got shape {np.shape(times)}")
        with pytest.raises(ValueError, match=re.escape(f"sampled Hamiltonian {path}: {message}")):
            write_sampled_hamiltonian(path, times, np.zeros(shape, complex))
        assert not path.exists()

    def test_sampled_writer_round_trip_keeps_signed_zeros(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        samples = np.zeros((3, 2, 2), dtype=complex)
        samples[:, 0, 0] = [complex(-0.0, 0.0), 1.0, 2.0]
        samples[:, 0, 1] = samples[:, 1, 0] = complex(0.25, -0.0)
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, times, samples)
        # the file holds every part bit for bit, signed zeros included;
        # Sampled then stores the Hermitian part of what it read
        _, mats = config._read_matrix_file(path, "sampled Hamiltonian")
        np.testing.assert_array_equal(mats.view(np.int64), samples.view(np.int64))
        back = load_sampled_hamiltonian(path)
        np.testing.assert_array_equal(back.grid.times, times)
        np.testing.assert_array_equal(back.samples.view(np.int64), hermitian_part(samples).view(np.int64))
        samples[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match=f"sampled Hamiltonian {path}: samples hold a NaN"):
            write_sampled_hamiltonian(path, times, samples)

    @pytest.mark.parametrize("times, message", [
        ([], "time grid needs at least 2 points"),
        (5, r"time grid must be a 1-D array, got shape \(\)"),
        ([[0.0, 1.0]], r"time grid must be a 1-D array, got shape \(1, 2\)"),
        ([1.0, 0.0], "time grid must start at 0"),
    ])
    def test_sampled_file_errors_name_the_file(self, tmp_path, times, message):
        path = tmp_path / "ham.json"
        path.write_text(json.dumps({"dimension": 1, "times": times,
                                    "matrices": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]}))
        with pytest.raises(ConfigError, match=f"^sampled Hamiltonian {path}: {message}"):
            load_sampled_hamiltonian(path)

    def test_non_hermitian_file_names_the_file(self, tmp_path):
        samples = np.zeros((2, 2, 2), dtype=complex)
        samples[:, 0, 1] = 1.0
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, [0.0, 1.0], samples)
        with pytest.raises(ConfigError, match=f"^sampled Hamiltonian {path}: Hamiltonian is not Hermitian"):
            load_sampled_hamiltonian(path)

    def test_section_file_errors_name_the_file(self, tmp_path):
        grid = TimeGrid.uniform(1.0, 2)
        section = tmp_path / "section.json"
        frames = np.ones((3, 2, 1), dtype=complex)  # columns of norm sqrt 2
        section.write_text(json.dumps({"dimension": 2, "times": grid.times.tolist(),
                                       "matrices": matrix_to_json(frames)}))
        with pytest.raises(ConfigError, match=f"^section file {section}: columns not orthonormal"):
            config._load_custom_section(section, grid, 1e-10)
        with pytest.raises(ConfigError, match=f"^section file {section}: times do not match"):
            config._load_custom_section(section, TimeGrid.uniform(1.0, 3), 1e-10)

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

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(FINITE_FLOAT64, min_size=1, max_size=40),
           n=st.integers(1, 3), k=st.integers(1, 2))
    @example(values=[0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-89],
             n=2, k=2)
    def test_matrix_file_reads_back_every_float_bit_for_bit(self, tmp_path_factory, values, n, k):
        # three time points; the times and the samples cycle through the values
        flat = np.resize(np.array(values), 3 * (1 + 2 * n * k))
        times, samples = flat[:3], flat[3:].view(complex).reshape(3, n, k)
        path = tmp_path_factory.mktemp("roundtrip") / "ham.json"
        write_sampled_hamiltonian(path, times, samples)
        back_times, back = config._read_matrix_file(path, "sampled Hamiltonian")
        np.testing.assert_array_equal(back_times.view(np.int64), times.view(np.int64))
        np.testing.assert_array_equal(back.view(np.int64), samples.view(np.int64))

    def test_relative_paths_are_taken_from_the_config_directory(self, tmp_path, monkeypatch):
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        folder = tmp_path / "cfg"
        folder.mkdir()
        write_sampled_hamiltonian(folder / "ham.json", spec.grid.times, spec.samples)
        frames = propagate_frame(spec, psi0, spec.grid).frames
        (folder / "section.json").write_text(json.dumps({
            "dimension": 4, "times": spec.grid.times.tolist(), "matrices": matrix_to_json(frames),
        }))
        write_config(folder / "c.json",
                     system={"kind": "sampled", "path": "ham.json"},
                     subspace={"matrix": matrix_to_json(psi0)},
                     section={"rule": "custom", "path": "section.json"},
                     grid={"tau": 1.0, "steps": 8})
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        cfg = load_run_config("../cfg/c.json")
        np.testing.assert_array_equal(cfg.spec.samples, spec.samples)
        np.testing.assert_array_equal(cfg.rule.path.frames, frames)

    @pytest.mark.parametrize("where", ["system", "section"])
    def test_file_path_must_be_a_string(self, tmp_path, where):
        overrides = ({"system": {"kind": "sampled", "path": 7}} if where == "system"
                     else {"section": {"rule": "custom", "path": ["s.json"]}})
        path = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError, match=f"config.{where}.path must be a string"):
            load_run_config(path)


# the bytes a random edit of a matrix file may write
EDIT_BYTES = b'[],0123456789.eE+- \n"a{}:tnu\\'


def cache_entry(path):
    """Where _read_matrix_file caches the arrays of the matrix file path."""
    return path.parent / "__holosplit_cache__" / f"{path.name}.entry"


def entry_bytes(path, times, mats):
    """The entry _read_matrix_file writes for the file path read to times and
    mats: the header, the file's bytes, then the arrays raw."""
    raw = path.read_bytes()
    return config._entry_header(len(raw), times, mats) + raw + times.tobytes() + mats.tobytes()


# the flat route's slice sizes under test: its own, and ones so small that
# a cut lands beside every bracket, sign, exponent and whitespace, and that
# a slice of a compact file runs from one matrix into the next
SLICES = [config._SLICE, 1, 2, 7, 9]


def no_parse():
    """A context in which parsing a matrix file fails the test."""
    def parse(*args):
        raise AssertionError("the file was parsed")

    return mock.patch.multiple(config, _flat_matrix_file=parse, _nested_matrix_file=parse)


class TestMatrixFileRoutes:
    """_read_matrix_file tries its cache entry, then the flat route; every
    file must read as the general reader (_nested_matrix_file) reads it."""

    @staticmethod
    def outcome(read, *args):
        """What a reader gives: its arrays, or its ConfigError text."""
        try:
            return read(*args)
        except ConfigError as exc:
            return str(exc)

    @staticmethod
    def assert_same_outcome(got, want):
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.strides) == (w.dtype, w.shape, w.strides)
            assert g.tobytes() == w.tobytes()

    def assert_read_as_the_general_reader(self, path):
        """Read path twice, a cache miss and then a hit, each as the general
        reader reads it. Only a file read to one matrix per time is cached."""
        want = self.outcome(config._nested_matrix_file, path.read_bytes(), path, "sampled Hamiltonian")
        self.assert_same_outcome(self.outcome(config._read_matrix_file, path, "sampled Hamiltonian"), want)
        cached = not isinstance(want, str) and want[0].ndim == 1 and len(want[0]) == len(want[1])
        assert cache_entry(path).exists() == cached
        with no_parse() if cached else contextlib.nullcontext():
            self.assert_same_outcome(self.outcome(config._read_matrix_file, path, "sampled Hamiltonian"), want)

    @pytest.mark.parametrize("slice_bytes", SLICES)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_file_reads_as_the_general_reader(self, tmp_path_factory, slice_bytes, data):
        npoints, n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        source = data.draw(st.sampled_from(["writer", "json", "shuffled"]))
        size = npoints * (1 + 2 * n * k)
        entries = st.one_of(st.integers(-2**70, 2**70), FINITE_FLOAT64) if source == "shuffled" else FINITE_FLOAT64
        values = data.draw(st.lists(entries, min_size=size, max_size=size))
        path = tmp_path_factory.mktemp("routes") / "ham.json"
        if source == "writer":
            floats = np.array(values, dtype=float)
            write_sampled_hamiltonian(path, floats[:npoints], floats[npoints:].view(complex).reshape(npoints, n, k))
        else:
            keys = ["dimension", "times", "matrices"]
            if source == "shuffled":
                keys = data.draw(st.permutations(keys))
            fields = {"dimension": n, "times": values[:npoints],
                      "matrices": np.array(values[npoints:], dtype=object).reshape(npoints, n, k, 2).tolist()}
            indent = data.draw(st.sampled_from([None, 0, 1, 2, "\t"]))
            path.write_text(json.dumps({key: fields[key] for key in keys}, indent=indent))
        raw = bytearray(path.read_bytes())
        edits = data.draw(st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, len(raw)),
                                             st.sampled_from(EDIT_BYTES)), max_size=4))
        for op, at, byte in edits:
            at = min(at, len(raw) - 1)
            if op == "r":
                raw[at] = byte
            elif op == "i":
                raw.insert(at, byte)
            else:
                del raw[at]
        path.write_bytes(raw)
        with mock.patch.object(config, "_SLICE", slice_bytes):
            # an unedited file is regular, so the flat route takes it
            assert edits or config._flat_matrix_file(bytes(raw)) is not None
            self.assert_read_as_the_general_reader(path)

    @pytest.mark.parametrize("matrices, flat", [
        # a number after a "]" or before a "[", around a skeleton that is the
        # regular one: the flat route must refuse what the general reader does
        ("[[[[0,]0]],[[[1,0]]]]", False),
        ("[[[[0,0]]],0[[[,0]]]]", False),
        ("[[[[0,0]]] , [[[1 ,\n 0]\t]]\r]", True),
        ("[[[[-0.5e-3 ,-1E+2]] ] ,[ [[ 1.0e1, -0]]]]", True),
        # eight pairs a row in the fewest bytes a pair can take
        ("[" + ",".join(["[[" + ",".join(["[0,0]"] * 8) + "]]"] * 2) + "]", True),
        ("[[[[0,0]]],[[1 [,0]]]]", False),
        ("[[[[0,0]]],[[[1, ]\n0]]]]", False),
        # a pair with no real part
        ("[[[[0,0]]],[[[,0]]]]", False),
        ("[[[[0,0]]],[[[1,0]]],[[[2,0]]]]", False),
        # a spaced close before a compact one: the span runs to the compact
        # one, and the spaced one inside it breaks the marks
        ("[[[[0,0]]],[[[1,0]] ] ]]]]]", False),
        ("[[[[0,0,0]]],[[[1,0,0]]]]", False),
        ("[[[0,0]],[[1,0]]]", False),
        ("[[[[0,null]]],[[[1,0]]]]", False),
        ("[]", False),
    ])
    @pytest.mark.parametrize("slice_bytes", SLICES)
    def test_irregular_matrices_read_as_the_general_reader(self, tmp_path, monkeypatch, matrices, flat,
                                                          slice_bytes):
        monkeypatch.setattr(config, "_SLICE", slice_bytes)
        path = tmp_path / "ham.json"
        path.write_text(f'{{"dimension": 1, "times": [0, 1], "matrices": {matrices}}}')
        assert (config._flat_matrix_file(path.read_bytes()) is not None) == flat
        self.assert_read_as_the_general_reader(path)

    @pytest.mark.parametrize("text", [
        '{"dimension": 1.0, "times": [0, 1], "matrices": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 2, "times": [0, 1], "matrices": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 1, "times": [true, 1], "matrices": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 1, "times": [0, 1, 2], "matrices": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 1, "times": [[0, 1]], "matrices": [[[[0,0]]],[[[1,0]]]]}',
        # a close in nested times after the matrices ends the span there
        '{"dimension": 1, "matrices": [[[[0,0]]],[[[1,0]]]], "times": [[[[0]]],[[[1]]]]}',
        '{"dimension": 1, "times": "01", "matrices": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 1, "times": [0, 1], "matr\\u0069ces": [[[[0,0]]],[[[1,0]]]]}',
        '{"dimension": 1, "times": [0, 1], "matrices": [[[[0,0]]],[[[1,0]]]], "extra": 1}',
        '{"matrices": [[[[0,0]]],[[[NaN,0]]]], "times": [0, 1], "dimension": 1}',
        '[{"dimension": 1, "times": [0, 1], "matrices": [[[[0,0]]],[[[1,0]]]]}]',
    ])
    @pytest.mark.parametrize("slice_bytes", SLICES)
    def test_other_files_read_as_the_general_reader(self, tmp_path, monkeypatch, text, slice_bytes):
        monkeypatch.setattr(config, "_SLICE", slice_bytes)
        path = tmp_path / "ham.json"
        path.write_text(text)
        assert config._flat_matrix_file(path.read_bytes()) is None
        self.assert_read_as_the_general_reader(path)

    def test_writer_files_take_the_flat_route(self, tmp_path, monkeypatch):
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        frames = propagate_frame(spec, psi0, spec.grid).frames
        write_sampled_hamiltonian(tmp_path / "ham.json", spec.grid.times, spec.samples)
        write_sampled_hamiltonian(tmp_path / "section.json", spec.grid.times, frames)
        # json.dumps' separators and indents are taken as well
        (tmp_path / "indented.json").write_text(json.dumps({
            "times": spec.grid.times.tolist(), "dimension": 4,
            "matrices": matrix_to_json(spec.samples)}, indent=2))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": "ham.json"},
                            subspace={"matrix": matrix_to_json(psi0)},
                            section={"rule": "custom", "path": "section.json"},
                            grid={"tau": 1.0, "steps": 8})

        def general_reader(*args):
            raise AssertionError("the file went to the general reader")

        monkeypatch.setattr(config, "_nested_matrix_file", general_reader)
        cfg = load_run_config(path)
        np.testing.assert_array_equal(cfg.spec.samples.view(np.int64), spec.samples.view(np.int64))
        np.testing.assert_array_equal(cfg.rule.path.frames.view(np.int64), frames.view(np.int64))
        back = load_sampled_hamiltonian(tmp_path / "indented.json")
        np.testing.assert_array_equal(back.samples.view(np.int64), spec.samples.view(np.int64))

    # a first read holds the file, the arrays (0.41 times the file) and one
    # slice's text and numbers: 1.57 times the refutation-7 file as measured
    # on Python 3.11, numpy 2.4 and orjson 3.8, bounded with 0.18 of margin
    FIRST_READ_PEAK = 1.75

    @staticmethod
    def traced_read(path):
        """_read_matrix_file's arrays for path and the tracemalloc peak of the read."""
        tracemalloc.start()
        try:
            return config._read_matrix_file(path, "sampled Hamiltonian"), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_near_the_file(self, tmp_path):
        spec, _ = refutation_instance(7)
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, spec.grid.times, spec.samples)
        assert spec.samples.shape == (4097, 4, 4)
        # a cache miss, then a hit
        peaks = [self.traced_read(path)[1] for _ in range(2)]
        assert peaks[0] <= self.FIRST_READ_PEAK * path.stat().st_size
        # a hit holds the arrays, and before them two chunks of the file and
        # of its copy, never the whole file
        assert peaks[1] <= 0.6 * path.stat().st_size

    def test_wide_matrices_take_the_flat_route(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        ham = cosine_drive(random_hermitian(64, rng), random_hermitian(64, rng), TimeGrid.uniform(1.0, 64))
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, ham.grid.times, ham.samples)
        assert ham.samples.shape == (65, 64, 64)
        # each matrix runs over more than two slices
        assert path.stat().st_size > 65 * 2 * config._SLICE
        want = config._nested_matrix_file(path.read_bytes(), path, "sampled Hamiltonian")

        def general_reader(*args):
            raise AssertionError("the file went to the general reader")

        monkeypatch.setattr(config, "_nested_matrix_file", general_reader)
        got, peak = self.traced_read(path)
        self.assert_same_outcome(got, want)
        assert peak <= self.FIRST_READ_PEAK * path.stat().st_size

    @staticmethod
    def cached_file(tmp_path, name="ham.json", seed=3):
        """A small writer file, read once so that its cache entry exists,
        and the general reader's arrays for it."""
        spec, _ = refutation_instance(seed, TimeGrid.uniform(1.0, 8))
        path = tmp_path / name
        write_sampled_hamiltonian(path, spec.grid.times, spec.samples)
        config._read_matrix_file(path, "sampled Hamiltonian")
        assert cache_entry(path).exists()
        return path, config._nested_matrix_file(path.read_bytes(), path, "sampled Hamiltonian")

    def test_same_size_edit_with_the_mtime_kept_is_parsed(self, tmp_path):
        path, before = self.cached_file(tmp_path)
        raw = bytearray(path.read_bytes())
        stat = path.stat()
        # the last digit of the last imaginary part
        at = raw.rindex(b"]]]]") - 1
        raw[at] = ord("1") if raw[at] != ord("1") else ord("2")
        path.write_bytes(raw)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        self.assert_read_as_the_general_reader(path)
        times, mats = config._read_matrix_file(path, "sampled Hamiltonian")
        assert mats.tobytes() != before[1].tobytes()

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "bare array", "another file's copy",
                                        "wrong dtype", "fortran order", "object array", "another file's",
                                        "flipped array bit", "shape against length", "huge shape", "wrong tag",
                                        "wrong version", "longer file", "extra byte"])
    def test_damaged_entries_are_ignored_and_rewritten(self, tmp_path, monkeypatch, damage):
        path, (times, mats) = self.cached_file(tmp_path)
        entry = cache_entry(path)
        good = entry.read_bytes()
        assert good == entry_bytes(path, times, mats)
        header = good[:config._ENTRY.size]
        tag, length, npoints, n, k, crc = config._ENTRY.unpack(header)
        if damage == "truncated":
            entry.write_bytes(good[:len(good) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"garbage" * 100)
        elif damage == "bare array":
            with open(entry, "wb") as fh:
                np.save(fh, mats)
        elif damage == "another file's copy":
            # the arrays of the file plus one, under a copy of other bytes
            # of the same length: the byte comparison refuses it
            raw = bytearray(path.read_bytes())
            raw[raw.rindex(b"]]]]") - 1] ^= 1
            entry.write_bytes(header + raw + (times + 1).tobytes() + mats.tobytes())
        elif damage == "wrong dtype":
            entry.write_bytes(header + path.read_bytes() + times.astype(np.float32).tobytes()
                              + mats.astype(np.complex64).tobytes())
        elif damage == "fortran order":
            # the same bytes in another order: the CRC of the C-order arrays refuses it
            entry.write_bytes(header + path.read_bytes() + times.tobytes() + mats.tobytes(order="F"))
        elif damage == "object array":
            with open(entry, "wb") as fh:
                fh.write(header + path.read_bytes())
                np.save(fh, times.astype(object), allow_pickle=True)
                np.save(fh, mats.astype(object), allow_pickle=True)
        elif damage == "another file's":
            other, _ = self.cached_file(tmp_path, "other.json", seed=4)
            entry.write_bytes(cache_entry(other).read_bytes())
        elif damage == "flipped array bit":
            # a bit of the last matrix entry: only the CRC tells
            flipped = bytearray(good)
            flipped[-3] ^= 4
            entry.write_bytes(flipped)
        elif damage == "shape against length":
            # one matrix row fewer than the entry's length holds
            entry.write_bytes(config._ENTRY.pack(tag, length, npoints, n - 1, k, crc) + good[len(header):])
        elif damage == "huge shape":
            # refused by the entry's length, before an array is allocated
            entry.write_bytes(config._ENTRY.pack(tag, length, 2**60, n, k, crc) + good[len(header):])
        elif damage == "wrong tag":
            entry.write_bytes(good.replace(config._ENTRY_TAG, config._ENTRY_TAG.swapcase(), 1))
        elif damage == "wrong version":
            entry.write_bytes(good.replace(b" entry 1 ", b" entry 0 ", 1))
        elif damage == "longer file":
            # the file gains a byte after its copy in the entry, in a chunk of
            # its own when the chunk is the copy's length
            monkeypatch.setattr(config, "_CHUNK", length)
            path.write_bytes(path.read_bytes() + b"\n")
            times, mats = config._nested_matrix_file(path.read_bytes(), path, "sampled Hamiltonian")
        else:
            entry.write_bytes(good + b"\0")
        got = config._read_matrix_file(path, "sampled Hamiltonian")
        self.assert_same_outcome(got, (times, mats))
        assert entry.read_bytes() == entry_bytes(path, times, mats)
        with no_parse():
            self.assert_same_outcome(config._read_matrix_file(path, "sampled Hamiltonian"), (times, mats))

    def test_old_npz_entry_beside_is_ignored(self, tmp_path):
        spec, _ = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, spec.grid.times, spec.samples)
        want = config._nested_matrix_file(path.read_bytes(), path, "sampled Hamiltonian")
        # an entry in the earlier .npz format, which held other arrays here
        old = path.parent / "__holosplit_cache__" / f"{path.name}.npz"
        old.parent.mkdir()
        np.savez(old, key=np.zeros(32, np.uint8), times=want[0] + 1, matrices=want[1] + 1)
        stale = old.read_bytes()
        self.assert_same_outcome(config._read_matrix_file(path, "sampled Hamiltonian"), want)
        assert cache_entry(path).read_bytes() == entry_bytes(path, *want)
        with no_parse():
            self.assert_same_outcome(config._read_matrix_file(path, "sampled Hamiltonian"), want)
        assert old.read_bytes() == stale

    @pytest.mark.parametrize("where", ["mkdir", "temporary directory", "write", "replace"])
    def test_unwritable_cache_reads_the_same_arrays(self, tmp_path, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        # "write" fails in the writer, with its temporary file open
        target = {"mkdir": (config.Path, "mkdir"), "temporary directory": (config.tempfile, "mkdtemp"),
                  "write": (config, "_entry_header"), "replace": (config.os, "replace")}[where]
        spec, _ = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        path = tmp_path / "ham.json"
        write_sampled_hamiltonian(path, spec.grid.times, spec.samples)
        want = config._nested_matrix_file(path.read_bytes(), path, "sampled Hamiltonian")
        with monkeypatch.context() as patched:
            patched.setattr(*target, refuse)
            self.assert_same_outcome(config._read_matrix_file(path, "sampled Hamiltonian"), want)
        assert not cache_entry(path).exists()
        # no temporary file is left behind
        assert list(cache_entry(path).parent.glob("**/*")) == []

    def test_custom_section_file_reads_through_the_cache(self, tmp_path):
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        frames = propagate_frame(spec, psi0, spec.grid).frames
        write_sampled_hamiltonian(tmp_path / "ham.json", spec.grid.times, spec.samples)
        write_sampled_hamiltonian(tmp_path / "section.json", spec.grid.times, frames)
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": "ham.json"},
                            subspace={"matrix": matrix_to_json(psi0)},
                            section={"rule": "custom", "path": "section.json"},
                            grid={"tau": 1.0, "steps": 8})
        load_run_config(path)
        assert cache_entry(tmp_path / "section.json").exists()
        with no_parse():
            cfg = load_run_config(path)
        np.testing.assert_array_equal(cfg.rule.path.frames.view(np.int64), frames.view(np.int64))

    def test_commands_give_the_same_bytes_from_the_cache(self, tmp_path, capsys):
        ham, path = TestExitCodes.sampled_config(tmp_path)
        other, _ = self.cached_file(tmp_path, "other.json", seed=4)
        runs = []
        for state in ("miss", "hit", "deleted", "garbage", "another file's"):
            if state == "deleted":
                cache_entry(ham).unlink()
            elif state == "garbage":
                cache_entry(ham).write_bytes(b"garbage\n")
            elif state == "another file's":
                cache_entry(ham).write_bytes(cache_entry(other).read_bytes())
            out = tmp_path / state
            out.mkdir()
            codes = [command(str(path), out) for command in TestExitCodes.COMMANDS.values()]
            runs.append((codes, capsys.readouterr().out.replace(str(out), ""),
                         (out / "r.json").read_bytes(), (out / "t.csv").read_bytes()))
        assert runs[0][0] == [0, 1, 0, 0]
        assert all(run == runs[0] for run in runs[1:])


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

    @pytest.mark.parametrize("case, rule", [("i", "fixed"), ("ii", "phase_anchored")])
    def test_lambda_laser_normalization_checked_against_the_run_tolerance(
        self, tmp_path, capsys, case, rule
    ):
        # |w1|^2 + |w2|^2 = 1 + 1.6e-9
        path = write_config(tmp_path / "c.json",
                            system={"kind": "lambda", "omega0": SQRT3, "delta": 1.0,
                                    "omega1": [0.6, 0.0], "omega2": [0.8000000010, 0.0]},
                            subspace={"lambda_case": case}, section={"rule": rule},
                            grid={"tau": np.pi / 2, "steps": 64})
        assert self.decompose(path, tmp_path, 1e-6) == 0
        # the frames of the run carry the tolerance to the gauge check
        assert cmd_gauge_check(str(path), seed=1) == 0
        capsys.readouterr()
        assert self.decompose(path, tmp_path, None) == 3
        assert "|w1|^2+|w2|^2 = 1" in capsys.readouterr().err


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

    def test_fixed_rule_takes_no_frame(self, tmp_path, capsys):
        # S(0) is the one frame a fixed section can hold, so even case i's
        # own initial frame is an unknown key
        psi0 = case_setup("i", LambdaParams(omega0=1.0, delta=0.0, tau=np.pi))[1]
        path = write_config(tmp_path / "ci.json",
                            system={"kind": "lambda", "omega0": 1.0, "delta": 0.0},
                            subspace={"lambda_case": "i"},
                            section={"rule": "fixed", "frame": matrix_to_json(psi0)},
                            grid={"tau": np.pi, "steps": 64})
        assert cmd_decompose(str(path), str(tmp_path / "report.json")) == 3
        assert capsys.readouterr().err == "config error: unknown keys in config.section: ['frame']\n"
        assert not (tmp_path / "report.json").exists()

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

    @pytest.mark.parametrize("steps", [100.5, True])
    def test_demo_rejects_a_non_integral_step_count(self, steps, capsys):
        assert cmd_demo("iii", steps=steps) == 3
        err = capsys.readouterr().err
        assert err.startswith("demo setup failed: steps must be an integral number")


class TestDispatch:
    """main passes each parsed option to its cmd_* function by name, and an
    omitted option is not passed, so the function's own default applies.
    Each expected call is the one the hand-written dispatch made, with its
    None stand-ins for demo's defaults resolved to the values it ran with."""

    @pytest.mark.parametrize("argv, name, expected", [
        # the command lines of the README
        ("demo --case ii", "cmd_demo",
         dict(case="ii", delta=1.0, omega0=SQRT3, eta=np.pi / 3, tau=np.pi / 2, steps=4096)),
        ("demo --case i --delta 0 --omega0 1 --tau 3.141592653589793", "cmd_demo",
         dict(case="i", delta=0.0, omega0=1.0, eta=np.pi / 3, tau=np.pi, steps=4096)),
        ("decompose --config run.json --out report.json", "cmd_decompose",
         dict(config_path="run.json", out_path="report.json", tau=None, steps=None)),
        ("separability --config run.json", "cmd_separability",
         dict(config_path="run.json", tau=None, steps=None)),
        ("export --config run.json --out traj.csv", "cmd_export",
         dict(config_path="run.json", out_path="traj.csv", tau=None, steps=None)),
        ("gauge-check --config run.json --seed 3", "cmd_gauge_check",
         dict(config_path="run.json", seed=3, tau=None, steps=None)),
        # the grid overrides
        ("demo --case iii --eta 0.5 --steps 100 --tau 2", "cmd_demo",
         dict(case="iii", delta=1.0, omega0=SQRT3, eta=0.5, tau=2.0, steps=100)),
        ("export --config c.json --out t.csv --steps 64 --tau 1.5", "cmd_export",
         dict(config_path="c.json", out_path="t.csv", tau=1.5, steps=64)),
        ("gauge-check --config c.json --tau 0.25", "cmd_gauge_check",
         dict(config_path="c.json", seed=None, tau=0.25, steps=None)),
    ])
    def test_options_reach_the_command(self, argv, name, expected, monkeypatch):
        # the command is replaced on the module, as a tracer replaces it; the
        # replacement must be the one main runs
        signature = inspect.signature(getattr(cli, name))
        calls = []

        def record(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs))
            return 17

        monkeypatch.setattr(cli, name, record)
        assert main(argv.split()) == 17
        (bound,) = calls
        bound.apply_defaults()
        assert bound.arguments == expected
        for key in ("steps", "seed"):
            assert bound.arguments.get(key) is None or type(bound.arguments[key]) is int

    @pytest.mark.parametrize("argv", [
        "",
        "frobnicate",
        "decompose --config c.json",
        "separability --config c.json --steps abc",
        "demo --case iv",
        "gauge-check --config c.json --seed 1.5",
    ])
    def test_usage_errors_exit_three(self, argv, capsys):
        # an input error, not argparse's own 2, which is the in-phase code
        with pytest.raises(SystemExit) as exited:
            main(argv.split())
        assert exited.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: holosplit") and "error: " in err

    def test_a_wrapper_set_after_a_call_runs_on_the_next(self, monkeypatch):
        # the parser is built by the first call and reused; each call looks
        # the command up on the module again
        argv = "separability --config run.json".split()
        monkeypatch.setattr(cli, "cmd_separability", lambda config_path: 17)
        assert main(argv) == 17
        monkeypatch.setattr(cli, "cmd_separability", lambda config_path: 18)
        assert main(argv) == 18
        assert cli._build_parser() is cli._build_parser()


class TestSeparability:
    def test_lambda_cases_exit_zero(self, tmp_path, capsys):
        for case, rule in (("i", "auto"), ("ii", "auto"), ("iii", "auto")):
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

    def test_names_are_unique_from_eleven_columns(self, tmp_path):
        # unpadded, (1, 11) and (11, 1) would both be A_111; both indices
        # are zero-padded to the digits of M, which leaves M <= 9 unpadded
        rng = np.random.default_rng(0)
        ham = hermitian_part(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        path = write_config(tmp_path / "c.json",
                            system={"kind": "constant", "matrix": matrix_to_json(ham)},
                            subspace={"matrix": matrix_to_json(np.eye(12)[:, :11])},
                            grid={"tau": 0.1, "steps": 4})
        out = tmp_path / "t.csv"
        assert cmd_export(str(path), str(out)) == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert len(header) == 1 + 4 * 11 * 11 * 2 and len(set(header)) == len(header)
        assert {"A_0111_re", "A_1101_re", "K_0101_im", "W_1111_re"} <= set(header)

    def test_deterministic(self, case_ii_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_export(str(case_ii_config), str(a), steps=256)
        cmd_export(str(case_ii_config), str(b), steps=256)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, case_ii_config, tmp_path):
        assert cmd_export(str(case_ii_config), str(tmp_path / "no" / "dir.csv"),
                          steps=64) == 4

    def test_bytes_match_the_csv_module(self, case_ii_config, tmp_path, monkeypatch):
        # the O columns carry signed zeros, subnormals and large and
        # non-finite floats; repr round-trips every float, so the parsed
        # table is the one written, and csv.writer must give the same bytes
        special = [-0.0, 1e-300, 1e16, 5e-324, -5e-324, 0.1, 1 / 3, np.inf, -np.inf, np.nan]

        build = cli.build_section

        def special_overlap(*args, **kwargs):
            section = build(*args, **kwargs)
            values = np.resize(special, 2 * section.overlap.size)
            return dataclasses.replace(section, overlap=values.view(complex).reshape(section.overlap.shape))

        monkeypatch.setattr(cli, "build_section", special_overlap)
        out = tmp_path / "t.csv"
        assert cmd_export(str(case_ii_config), str(out), steps=16) == 0
        with open(out, newline="") as fh:
            _, *rows = list(csv.reader(fh))
        table = np.array([[float(x) for x in row] for row in rows])
        assert {repr(x) for x in table[:, -8:].ravel().tolist()} == {repr(x) for x in special}
        assert out.read_bytes() == _csv_module_bytes(out, table)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mixed_rows_match_the_csv_module(self, tmp_path_factory, data):
        # rows orjson writes and rows holding a float it writes differently
        # (at least one of each), in blocks of 1 to 8 rows, so that most
        # tables span several blocks
        rows = data.draw(st.integers(3, 24), label="rows")
        pool = data.draw(st.lists(REPR_TEXT_FLOAT, min_size=1, max_size=16), label="pool")
        drawn = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).choice(pool, (rows, 32))
        needs_repr = data.draw(st.permutations(
            [True, False] + data.draw(st.lists(st.booleans(), min_size=rows - 2, max_size=rows - 2))))
        for i in np.flatnonzero(needs_repr):
            cols = data.draw(st.lists(st.integers(0, 31), min_size=1, max_size=4, unique=True))
            drawn[i, cols] = data.draw(st.lists(ORJSON_TEXT_FLOAT, min_size=len(cols), max_size=len(cols)))
        assert list(~cli._orjson_matches_repr(drawn).all(axis=1)) == needs_repr
        # the A, K, W, O columns of a steps = rows - 1 run of case ii
        a, k, w, o = (drawn[:, 8 * j:8 * j + 8].copy().view(complex).reshape(rows, 2, 2) for j in range(4))
        tmp = tmp_path_factory.mktemp("mixed")
        path = write_config(tmp / "c.json")
        out = tmp / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CSV_BLOCK_ROWS", data.draw(st.integers(1, 8), label="block"))
            mp.setattr(cli, "build_section", lambda *args, **kwargs: types.SimpleNamespace(a=a, k=k, overlap=o))
            mp.setattr(cli, "w_path", lambda section: w)
            assert cmd_export(str(path), str(out), steps=rows - 1) == 0
        times = load_run_config(path, steps_override=rows - 1).grid.times
        assert out.read_bytes() == _csv_module_bytes(out, np.hstack([times[:, None], drawn]))

    def test_refutation_rows_take_both_routes(self, refutation_7_config, tmp_path, monkeypatch):
        masks = []
        mask = cli._orjson_matches_repr

        def recorded_mask(values):
            masks.append(mask(values).all(axis=1))
            return mask(values)

        monkeypatch.setattr(cli, "_orjson_matches_repr", recorded_mask)
        out = tmp_path / "t.csv"
        for steps in (1024, 256):
            masks.clear()
            assert cmd_export(str(refutation_7_config), str(out), steps=steps) == 0
            orjson_rows = np.concatenate(masks)
            assert orjson_rows.size == steps + 1 and 0 < orjson_rows.sum() < steps + 1
            with open(out, newline="") as fh:
                _, *rows = list(csv.reader(fh))
            table = np.array([[float(x) for x in row] for row in rows])
            # a row holds a float whose orjson text is not its repr exactly
            # where the writer took repr for it
            differs = [any(orjson.dumps(x).decode() != repr(x) for x in row) for row in table.tolist()]
            assert differs == list(~orjson_rows)
            assert out.read_bytes() == _csv_module_bytes(out, table)

    def test_peak_memory_no_higher_than_the_repr_writer(self, refutation_7_config, tmp_path, monkeypatch):
        import tracemalloc

        tables = []
        blocks = cli._csv_blocks

        def recorded_blocks(table):
            tables.append(table)
            return blocks(table)

        def write_peak(writer):
            """The traced peak of an export from the moment its writer starts:
            what the export holds then, and the writer's own memory."""
            def from_start(table):
                tracemalloc.reset_peak()
                yield from writer(table)

            monkeypatch.setattr(cli, "_csv_blocks", from_start)
            tracemalloc.start()
            try:
                assert cmd_export(str(refutation_7_config), str(tmp_path / "t.csv")) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        write_peak(recorded_blocks)  # fills first-call caches and records the table
        table, = tables
        assert table.shape == (4097, 33)
        # the whole export, on like terms: the pipeline before the writer is
        # the same for both writers, so the exports' peaks compare as their
        # write phases do. A whole-export peak also falls by 24-32 B from
        # one export to the next, whatever the writer, so both orders are run
        for order in ((blocks, _repr_csv_rows), (_repr_csv_rows, blocks)):
            peaks = {writer: write_peak(writer) for writer in order}
            assert peaks[blocks] <= peaks[_repr_csv_rows]
        # the writing of the 4097-row table alone
        writer_peaks = []
        for writer in (blocks, _repr_csv_rows):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                with open(tmp_path / "w.csv", "wb") as fh:
                    fh.writelines(writer(table))
                writer_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert writer_peaks[0] <= writer_peaks[1]


# floats whose orjson text is their repr (the writer's orjson cells) and
# floats orjson writes otherwise: 1e-05, 1e-07, 1e+16, nan, inf
def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


REPR_TEXT_FLOAT = _signed(st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-9, exclude_min=True, exclude_max=True),
    st.floats(1e-4, 1e16, exclude_max=True),
))
ORJSON_TEXT_FLOAT = _signed(st.one_of(
    st.floats(1e-9, 1e-4, exclude_max=True),
    st.floats(min_value=1e16),
    st.just(math.nan),
))


def _repr_csv_rows(table):
    """The reference CSV writer: the repr of every float, row by row."""
    return ((",".join(map(repr, row)) + "\r\n").encode() for row in table.tolist())


def _csv_module_bytes(out, table) -> bytes:
    """What csv.writer gives for the header of the CSV file out followed by
    the rows of table."""
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    writer.writerows(table.tolist())
    return ref.getvalue().encode()


class TestOrjsonFloatText:
    """The export writes a float with orjson only where the installed
    orjson's text for it, as an element of a float64 array, is its repr."""

    @staticmethod
    def orjson_tokens(values):
        return orjson.dumps(np.array([values]), option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split(",")

    # every float64 bit pattern (nan payloads, infinities, subnormals, +-0.0),
    # Hypothesis' float strategy, and the neighbourhoods of the band edges
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
        st.floats(),
        _signed(st.floats(1e-10, 1e-3)),
        _signed(st.floats(1e15, 1e17)),
    ), min_size=1, max_size=32))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     math.nan, math.inf, -math.inf, 1e-9, 1e-7, 1e-5, 9.999999999999999e-05,
                     1e-4, 0.1, 1 / 3, 1e15, 9999999999999998.0, 1e16, 1e300])
    def test_admitted_floats_are_written_as_repr(self, values):
        admitted = cli._orjson_matches_repr(np.array(values))
        for x, ok, token in zip(values, admitted, self.orjson_tokens(values)):
            if ok:
                assert token == repr(x)

    @pytest.mark.parametrize("edge, admitted_below", [(1e-9, True), (1e-4, False), (1e16, True)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_band_edges_to_the_ulp(self, edge, admitted_below, sign):
        # 1000 floats on each side of the edge, the edge itself first above
        bits = np.array(edge).view(np.int64) + np.arange(-1000, 1000)
        values = sign * bits.view(np.float64)
        assert np.nextafter(abs(values[999]), np.inf) == edge == abs(values[1000])
        admitted = cli._orjson_matches_repr(values)
        np.testing.assert_array_equal(admitted[:1000], admitted_below)
        np.testing.assert_array_equal(admitted[1000:], not admitted_below)
        tokens = self.orjson_tokens(values)
        for x, ok, token in zip(values.tolist(), admitted, tokens):
            if ok:
                assert token == repr(x)

    def test_special_values(self):
        values = [0.0, -0.0, 5e-324, -5e-324, math.nan, -math.nan, math.inf, -math.inf]
        np.testing.assert_array_equal(cli._orjson_matches_repr(np.array(values)),
                                      [True] * 4 + [False] * 4)


@pytest.fixture(scope="module")
def refutation_7_config(tmp_path_factory):
    """refutation_instance(7) sampled at 4096 steps with a phase-anchored
    section, as cli_refutation runs it."""
    tmp = tmp_path_factory.mktemp("ref7")
    spec, psi0 = refutation_instance(7)
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
    @staticmethod
    def sampled_config(tmp_path):
        """An 8-step refutation_instance(3) file, ham.json, and a config
        c.json that runs it."""
        spec, psi0 = refutation_instance(3, TimeGrid.uniform(1.0, 8))
        ham = tmp_path / "ham.json"
        write_sampled_hamiltonian(ham, spec.grid.times, spec.samples)
        path = write_config(tmp_path / "c.json",
                            system={"kind": "sampled", "path": str(ham)},
                            subspace={"matrix": matrix_to_json(psi0)},
                            grid={"tau": 1.0, "steps": 8})
        return ham, path

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
        (("grid", "tau"), "1.5", "grid.tau"),
        (("grid", "steps"), "4", "grid.steps"),
        (("seed",), "7", "seed"),
        (("system", "omega0"), "1.7", "system.omega0"),
        (("system", "omega1"), ["1.0", 0.0], "system.omega1"),
        (("tolerances", "structure_tol"), "1e-10", "tolerances.structure_tol"),
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

    @pytest.mark.parametrize("name", ["separation_tol", "structure_tol"])
    @pytest.mark.parametrize("literal", ["1e999", "Infinity"])
    def test_infinite_tolerance_exits_three(self, name, literal, tmp_path, capsys):
        # json reads both literals as inf, which every residual would pass
        path = write_config(tmp_path / "c.json", tolerances={name: "@"})
        path.write_text(path.read_text().replace('"@"', literal))
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err == f"config error: tolerances.{name} must be non-negative and finite, got inf\n"

    def test_deep_config_names_the_config(self, tmp_path, capsys):
        # json recurses once per level of nesting; its RecursionError is an
        # input error, not exit 1, the negative verdict
        path = tmp_path / "c.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cmd_separability(str(path)) == 3
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")

    def test_deep_matrix_names_the_field(self, tmp_path, capsys):
        # json reads 600 levels, which a boolean walk recursing twice per
        # level would not; numpy refuses the depth, naming the field
        path = write_config(tmp_path / "c.json", subspace={"matrix": "@"})
        path.write_text(path.read_text().replace('"@"', "[" * 600 + "]" * 600))
        assert cmd_separability(str(path)) == 3
        assert capsys.readouterr().err.startswith("config error: subspace frame must be an array of numbers")
        rows = []
        for _ in range(5000):
            rows = [rows]
        with pytest.raises(ConfigError, match="^constant Hamiltonian must be an array of numbers"):
            matrix_from_json(rows, "constant Hamiltonian")

    def test_deep_matrix_file_with_a_boolean_names_the_file(self, tmp_path, capsys):
        # within orjson's 1024 levels; a file that spells true is walked,
        # and the walk finds it at any depth
        ham, path = self.sampled_config(tmp_path)
        data = json.loads(ham.read_text())
        data["matrices"] = "@"
        ham.write_text(json.dumps(data).replace('"@"', "[" * 1000 + "true" + "]" * 1000))
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err == f'config error: sampled Hamiltonian {ham}: "matrices" must hold numbers, not booleans\n'

    @pytest.mark.parametrize("tau, override", [(1.5, None), (1.0, 1.25)])
    def test_grid_past_the_sampled_file_names_grid_tau(self, tau, override, tmp_path, capsys):
        # the file is sampled on [0, 1]; the grid is refused at load, naming
        # the field and the file, not at the first propagation step
        ham, path = self.sampled_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["grid"]["tau"] = tau
        path.write_text(json.dumps(cfg))
        message = (f"grid.tau {override or tau!r} is past the end of sampled Hamiltonian {ham}, "
                   "which is sampled up to t = 1.0")
        with pytest.raises(ConfigError) as raised:
            load_run_config(path, tau_override=override)
        assert str(raised.value) == message
        assert cmd_separability(str(path), tau=override) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("name", ["separation_tol", "structure_tol", "positivity_tol"])
    def test_negative_tolerance_exits_three(self, name, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", tolerances={name: -1e-3})
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err == f"config error: tolerances.{name} must be non-negative and finite, got -0.001\n"

    @pytest.mark.parametrize("key, value, expected", [
        ("dimension", None, "must be a number"),
        ("dimension", [4], "must be a number"),
        ("dimension", 4.5, "must be a number"),
        ("dimension", True, "must be a number"),
        ("dimension", "4", "must be a number"),
        ("times", {"a": 1}, "must be an array of numbers"),
        ("times", "abc", "must be an array of numbers"),
        ("times", [0.0, "abc"], "must be an array of numbers"),
        ("times", [0.0, "1.5"], "must be an array of numbers"),
        ("times", [0.0, None], "must be an array of numbers"),
        ("times", [0.0, True, 1.0], "must hold numbers, not booleans"),
        ("matrices", [[[[True, 0.0]]]], "must hold numbers, not booleans"),
        ("matrices", [[[["1.5", 0.0]]]], "must be an array of numbers"),
        ("matrices", [[[[None, 0.0]]]], "must be an array of numbers"),
        ("matrices", [[[[0.0, 0.0]], [[0.0]]]], "must be an array of numbers"),
    ], ids=["None", "dimension1", "4.5", "True", "dimension-string", "times-object",
            "times-string", "times-entry", "times-string-number", "times-null", "times-boolean",
            "matrices-boolean", "matrices-string-number", "matrices-null", "matrices-ragged"])
    def test_wrong_typed_matrix_file_dimension_exits_three(self, key, value, expected, tmp_path, capsys):
        ham, path = self.sampled_config(tmp_path)
        ham.write_text(json.dumps({**json.loads(ham.read_text()), key: value}))
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f'{ham}: "{key}" {expected}' in err

    @pytest.mark.parametrize("key, index", [("times", (0,)), ("matrices", (0, 0, 0, 0))])
    def test_boolean_in_own_matrix_file_exits_three(self, key, index, tmp_path, capsys):
        # false at t = 0 and true for Re H_00(0) would read as the numbers 0
        # and 1, which leave a valid file; the entry must still be rejected
        ham, path = self.sampled_config(tmp_path)
        data = json.loads(ham.read_text())
        *parents, last = index
        node = data[key]
        for i in parents:
            node = node[i]
        node[last] = key == "matrices"
        ham.write_text(json.dumps(data))
        assert cmd_separability(str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f'{ham}: "{key}" must hold numbers, not booleans' in err

    @pytest.mark.parametrize("key", ["times", "matrices"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_rfc_number_in_matrix_file_exits_three(self, key, literal, tmp_path, capsys):
        ham, path = self.sampled_config(tmp_path)
        data = json.loads(ham.read_text())
        if key == "times":
            data["times"][3] = "@"
        else:
            data["matrices"][3][1][2][0] = "@"
        ham.write_text(json.dumps(data).replace('"@"', literal))
        assert cmd_separability(str(path)) == 3
        assert capsys.readouterr().err.startswith(f"config error: cannot read sampled Hamiltonian {ham}: ")

    @pytest.mark.parametrize("bad", ["config", "matrix file"])
    def test_input_that_is_not_utf8_names_its_file(self, bad, tmp_path, capsys):
        ham, path = self.sampled_config(tmp_path)
        target = path if bad == "config" else ham
        target.write_bytes(target.read_bytes().replace(b'{"', b'{"\xff', 1))
        assert cmd_separability(str(path)) == 3
        what = "config" if bad == "config" else "sampled Hamiltonian"
        assert capsys.readouterr().err.startswith(f"config error: cannot read {what} {target}: ")

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

    def test_in_phase_violation_of_the_transformed_section_exits_two(self, case_ii_config, monkeypatch,
                                                                     capsys):
        # the transformed section's report fails its in-phase gate, here with
        # positivity_tol raised to the margin: the exit and message of every
        # other in-phase violation
        real = cli.separability_report

        def raised_gate(section, path, spec, tol):
            return real(section, path, spec, dataclasses.replace(tol, positivity_tol=section.in_phase_margin))

        monkeypatch.setattr(cli, "separability_report", raised_gate)
        assert cmd_gauge_check(str(case_ii_config), seed=1) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("in-phase violation: in-phase margin ")

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
