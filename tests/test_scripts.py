"""Smoke tests: each script under scripts/ runs to completion."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    monkeypatch.setattr(sys, "argv", ["product_crossover.py", "--batches", "4", "--repeats", "1"])
    module = _load("product_crossover")
    assert module.main() == 0
    rows = [r.replace(",", " ").split() for r in capsys.readouterr().out.splitlines()[1:]]
    assert [tuple(int(x) for x in r[:3]) for r in rows] == list(module.SHAPES)
    assert all(len(r) == 4 and float(r[3]) > 0 for r in rows)


def test_march_crossover(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "argv", ["march_crossover.py", "--dims", "2", "4", "--steps", "16",
                                      "--repeats", "1"])
    module = _load("march_crossover")
    assert module.main() == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [2, 4]
    # M = 4 does not fit in N = 2
    assert rows[0][2] == "nan" and all(float(x) > 0 for x in rows[0][1:2] + rows[1][1:])
