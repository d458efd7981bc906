import os

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


def test_rates_single_delta_fit_undefined(tmp_path, capsys):
    code = main(["rates", "--out", str(tmp_path),
                 "--set", "study.deltas=0.0625",
                 "--set", "study.eps_coef=0.0"] + FAST)
    assert code == 0
    assert "u-slope undefined (1 points)" in capsys.readouterr().out


def test_bad_set_flag(capsys):
    with pytest.raises(SystemExit):
        main(["table", "--set", "nonsense"])
    capsys.readouterr()
    assert main(["table", "--set", "mesh.hO=0.3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mesh.hO" in err
    assert "Traceback" not in err


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8
