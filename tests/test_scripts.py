"""Smoke tests: each script under scripts/ runs to completion, and so does
the README's library example; and everything the CI workflow names exists."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from holosplit.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_lambda_cases(capsys):
    assert _load("run_lambda_cases").main() == 0
    out = capsys.readouterr().out
    for case in ("i", "ii", "iii"):
        assert f"classification: case_{case}" in out


def test_refutation_scan(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["refutation_scan.py", "--seeds", "4"])
    assert _load("refutation_scan").main() == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [int(r.split()[0]) for r in rows] == [7, 8, 9, 10]
    assert "section invalid" in rows[2]


def test_product_crossover(monkeypatch, capsys):
    # the script pins BLAS to one thread; restore the variables afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "argv", ["product_crossover.py", "--batches", "4", "16", "--repeats", "1"])
    module = _load("product_crossover")
    assert module.main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    # a C-order and a time-last column per stack size
    assert header.split()[3:] == ["n=4", "C", "n=4", "T", "n=16", "C", "n=16", "T"]
    rows = [r.replace(",", " ").split() for r in lines]
    assert [tuple(int(x) for x in r[:3]) for r in rows] == list(module.SHAPES)
    assert all(len(r) == 7 and all(float(x) > 0 for x in r[3:]) for r in rows)


def test_first_read(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["first_read.py", "--files", "8x2", "4x3", "--repeats", "1"])
    assert _load("first_read").main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", "MB", "first", "ms", "peak/file", "hit", "ms", "npz", "ms"]
    rows = [r.split() for r in lines]
    assert [r[0] for r in rows] == ["9x2x2", "5x3x3"]
    assert all(len(r) == 6 and all(float(x) > 0 for x in r[1:]) for r in rows)


def test_stage_peaks(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["stage_peaks.py", "--n", "6", "--m", "2", "--steps", "16"])
    assert _load("stage_peaks").main() == 0
    title, header, *lines = capsys.readouterr().out.splitlines()
    assert title == "frame path 0.003 MB: 17 x 6 x 2 complex"
    assert header.split() == ["stage", "peak", "MB", "x", "path", "live", "MB", "x", "path"]
    rows = [r.split() for r in lines]
    assert [r[0] for r in rows] == ["propagate_frame", "build_section", "separability_report", "decompose"]
    assert all(len(r) == 5 and all(float(x) > 0 for x in r[1:]) for r in rows)


def test_march_crossover(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "argv", ["march_crossover.py", "--dims", "2", "4", "--steps", "16",
                                      "--repeats", "1"])
    module = _load("march_crossover")
    assert module.main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    # slice/Taylor per M, then the real/complex slice ratio
    assert header.split() == ["N", "M=2", "M=4", "real"]
    rows = [r.split() for r in lines]
    assert [int(r[0]) for r in rows] == [2, 4] and all(len(r) == 4 for r in rows)
    # M = 4 does not fit in N = 2
    assert rows[0][2] == "nan" and all(float(x) > 0 for x in rows[0][1:2] + rows[0][3:] + rows[1][1:])
    # the real slices are chosen through dynamics._REAL_SLICES, which is restored
    assert module.dynamics._REAL_SLICES == range(3, 6)


def test_march_crossover_checks_the_real_slices(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    # real slices that drift make the script fail its agreement check
    monkeypatch.setattr(sys, "argv", ["march_crossover.py", "--dims", "4", "--steps", "16", "--repeats", "1"])
    module = _load("march_crossover")
    real = module.dynamics._taylor_stack
    monkeypatch.setattr(module.dynamics, "_taylor_stack", lambda g, c, p: real(g, c, p) * (1 + 1e-9))
    with pytest.raises(AssertionError, match="differ at N = 4, M = 2"):
        module.main()


def test_readme_library_example(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[0] == "case_iii"


def test_workflow_names_only_what_exists(capsys):
    # nothing runs the workflow until it is pushed, so a file, extra,
    # subcommand or workload renamed under it would go unnoticed. It runs
    # entry points and holds no inline Python: its assertions belong here
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<" not in text
    paths = set(re.findall(r"[\w./-]+\.(?:py|toml|json|txt|md)\b", text))
    assert "bench/run.py" in paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []
    pyproject = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^\[project\.optional-dependencies\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    extras = {e for found in re.findall(r"pip install -e \.\[([\w,-]+)\]", text) for e in found.split(",")}
    assert extras and extras <= set(re.findall(r"^([\w-]+)\s*=", block.group(1), re.M))
    # the help calls the workflow makes exit 0; an unknown command exits 3
    commands = re.search(r'for c in ([\w -]+); do holosplit "\$c" --help', text).group(1).split()
    assert len(commands) == 5 and "python -m holosplit --help" in text
    for argv in [["--help"]] + [[command, "--help"] for command in commands]:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: holosplit")
    workloads = re.search(r"for w in ([\w -]+); do", text).group(1).split()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workloads == [w["name"] for w in benchmark["workloads"]]
