import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ddcauchy.cli import main


FAST = ["--set", "mesh.sharp_n_angular=48", "--set", "mesh.sharp_n_radial=12",
        "--set", "mesh.h0=0.2"]


def test_solve_sharp(capsys):
    code = main(["solve", "--delta", "0.001", "--alpha", "0.01",
                 "--epsilon", "0"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "u_err_sharp=" in out


def test_solve_diffuse(capsys, tmp_path):
    code = main(["solve", "--delta", "0.001", "--alpha", "0.01",
                 "--epsilon", "0.125"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "u_err_band=" in out


def test_table_outputs(tmp_path, capsys):
    code = main(["table", "--out", str(tmp_path),
                 "--set", "study.alphas=0.1,0.01",
                 "--set", "study.epsilons=0.125"] + FAST)
    assert code == 0
    assert os.path.exists(tmp_path / "table.csv")
    assert os.path.exists(tmp_path / "config.echo")
    assert os.path.exists(tmp_path / "plot_results.py")


def test_rates_outputs(tmp_path, capsys):
    code = main(["rates", "--out", str(tmp_path),
                 "--set", "study.deltas=0.0625,0.03125",
                 "--set", "study.eps_coef=0.0",
                 "--set", "study.eps_exp=0.0"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "u-slope" in out
    assert os.path.exists(tmp_path / "rates.csv")


def test_spectrum_outputs(tmp_path, capsys):
    code = main(["spectrum", "--out", str(tmp_path),
                 "--set", "study.alpha=1e-3",
                 "--set", "study.spectrum_h0=0.25"] + FAST)
    assert code == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out
    spect = open(tmp_path / "spectrum.csv").read().splitlines()
    assert spect[0] == "index,eigenvalue"
    assert len(spect) > 100


def test_spectrum_over_dense_cap_exits_2(tmp_path, capsys):
    # the size of the spectrum system (1,588 on the default mesh) is known
    # only after assembly, so the cap is checked there, not at load
    code = main(["spectrum", "--out", str(tmp_path),
                 "--set", "solver.dense_cap=100"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "study.spectrum_h0, solver.dense_cap" in err and "1588" in err
    assert not os.path.exists(tmp_path / "spectrum.csv")


def test_rates_single_delta_fit_undefined(tmp_path, capsys):
    code = main(["rates", "--out", str(tmp_path),
                 "--set", "study.deltas=0.0625",
                 "--set", "study.eps_coef=0.0"] + FAST)
    assert code == 0
    assert "u-slope undefined (1 points)" in capsys.readouterr().out


def test_bad_set_flag(capsys):
    for item, named in (("nonsense", "'nonsense'"), ("=3", "'=3'"),
                        ("mesh.hO=0.3", "mesh.hO"),
                        ("mesh.sharp_n_angular=100000000",
                         "mesh.sharp_n_angular"),
                        ("mesh.h0=1e-9", "mesh.h0"),
                        ("study.spectrum_h0=1e-9", "study.spectrum_h0"),
                        ("geometry.sigma_r=1e-300", "geometry.sigma_r"),
                        ("geometry.sigma_t=1e12", "geometry.sigma_t"),
                        ("mesh.subdivision=1000", "mesh.subdivision")):
        assert main(["table", "--set", item]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.count("\n") == 1 and err.startswith("ddcauchy: ")
        assert named in err and "Traceback" not in err


def test_table_has_no_preset_flag(capsys):
    # presets hold rate schedules; the table reads none of them
    with pytest.raises(SystemExit) as exc:
        main(["table", "--preset", "fig7"])
    assert exc.value.code == 2
    assert "--preset" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["table", "rates", "spectrum"])
def test_unusable_out_dir_exits_2(tmp_path, capsys, monkeypatch, command):
    def no_study(*args):
        raise AssertionError("the study ran")

    for study in ("run_iteration_table", "run_rate_study",
                  "run_spectrum_study", "Workspace"):
        monkeypatch.setattr(f"ddcauchy.experiments.{study}", no_study)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main([command, "--out", str(out)] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "output.directory" in captured.err


@pytest.mark.parametrize("flags, flag", [
    (["--delta", "0.001", "--alpha", "0", "--epsilon", "0"], "--alpha"),
    (["--delta", "-1", "--alpha", "0.01", "--epsilon", "0"], "--delta"),
    (["--delta", "0.001", "--alpha", "0.01", "--epsilon", "0.5"],
     "--epsilon"),
    (["--delta", "nan", "--alpha", "0.01", "--epsilon", "0"], "--delta"),
    (["--delta", "0.001", "--alpha", "inf", "--epsilon", "0"], "--alpha"),
    (["--delta", "0.001", "--alpha", "0.01", "--epsilon", "-0.125"],
     "--epsilon"),
])
def test_solve_flags_checked(capsys, flags, flag):
    assert main(["solve"] + flags + FAST) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("delta, epsilon, name", [
    pytest.param("1e300", "0", "u_err_sharp", id="0-u_err_sharp"),
    pytest.param("1e300", "0.125", "u_err_band", id="0.125-u_err_band"),
    ("1.7e308", "0", "u_err_sharp"), ("1.7e308", "0.125", "u_err_band")])
def test_non_finite_error_exits_1(capsys, delta, epsilon, name):
    # noise of norm 1e300 overflows the error norms; at 1.7e308 the noisy
    # data themselves overflow
    assert main(["solve", "--delta", delta, "--alpha", "0.01",
                 "--epsilon", epsilon] + FAST) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and name in err[0] and "not finite" in err[0]


@pytest.mark.parametrize("epsilon", ["0", "0.125"])
def test_non_finite_error_prints_no_warnings(capsys, epsilon):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--delta", "1e300", "--alpha", "0.01",
                     "--epsilon", epsilon] + FAST) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "study.spectrum_h0=0.5",
     "--set", "study.epsilon=0.01"],
    ["rates", "--set", "mesh.h0=1.0", "--set", "mesh.max_levels=0"]])
def test_stage_error_exits_1_in_one_line(capsys, tmp_path, args):
    # both configs load, but the band on the coarse mesh carries no
    # H-band mass: assembly's error names its stage on one line
    code = main(args + ["--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err == ("ddcauchy: assembly error: H-band mass is identically "
                   "zero\n")


def test_table_non_finite_cell_exits_1(capsys, tmp_path):
    # noise of norm 1e300 overflows the KKT right-hand side of the cell
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["table", "--out", str(tmp_path),
                     "--set", "study.table_delta=1e300",
                     "--set", "study.epsilons=0.25",
                     "--set", "study.alphas=1.0,0.1"] + FAST) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "eps=0.25 alpha=1" in err[0] and "study.table_delta" in err[0]


def test_verify_passes(verify_run):
    code, out = verify_run
    assert code == 0
    assert out.count("[PASS]") == 7


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(args, threads, out):
    """Start ``python -m ddcauchy`` with ``threads`` BLAS threads."""
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "ddcauchy", *args,
                             "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("args, files", [
    (["rates", "--preset", "fig7", "--set", "study.deltas=0.0078125"],
     ["rates.csv"]),
    # two alphas: each step preconditions both in one 4-column R_H solve
    (["table", "--set", "study.epsilons=0.015625",
      "--set", "study.alphas=0.001,0.0001"], ["table.csv", "residuals.csv"]),
])
def test_data_files_do_not_depend_on_blas_threads(tmp_path, args, files):
    # both systems have n > 10,000, where OpenBLAS splits ddot across
    # threads; the inner products must sum in one order regardless
    procs = {t: _run_module(args, t, tmp_path / str(t)) for t in (1, 2)}
    try:
        for t, proc in procs.items():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"{t} thread(s): {err}"
    finally:
        for proc in procs.values():
            proc.kill()
    for name in files:
        one = (tmp_path / "1" / name).read_bytes()
        assert one == (tmp_path / "2" / name).read_bytes(), name
