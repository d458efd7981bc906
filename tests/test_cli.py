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
    for item, named in (("nonsense", "'nonsense'"), ("=3", "'=3'"),
                        ("mesh.hO=0.3", "mesh.hO")):
        assert main(["table", "--set", item]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.count("\n") == 1 and err.startswith("ddcauchy: ")
        assert named in err and "Traceback" not in err


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


@pytest.mark.parametrize("epsilon, name", [("0", "u_err_sharp"),
                                            ("0.125", "u_err_band")])
def test_non_finite_error_exits_1(capsys, epsilon, name):
    # noise of norm 1e300 overflows the error norms
    assert main(["solve", "--delta", "1e300", "--alpha", "0.01",
                 "--epsilon", epsilon] + FAST) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and name in err[0] and "not finite" in err[0]


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8
