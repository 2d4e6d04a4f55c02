import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from conelab import phase, shooting
from conelab.cli import main
from conelab.geometry import ConeSpace
from conelab.shooting import OutcomeKind, ShootingOutcome, flux_consistency, shoot


def test_scan_prints_threshold(capsys):
    assert main(["scan", "--n", "3", "--lambda-min", "0.92", "--lambda-max",
                 "0.96", "--lambda-points", "5"]) == 0
    out = capsys.readouterr().out
    assert "empirical threshold" in out
    assert "Minimizing" in out and "NotMinimizing" in out


def test_scan_writes_csv(tmp_path, capsys):
    path = tmp_path / "records.csv"
    main(["scan", "--n", "2", "--lambda-min", "0.8", "--lambda-max", "1.0",
          "--lambda-points", "3", "--output", str(path), "--no-timing"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# cone-min-lab v1"
    assert len(lines) == 5


def test_scan_formula_only_svg(tmp_path):
    path = tmp_path / "phase.svg"
    main(["scan", "--n", "3", "4", "--mode", "formula-only",
          "--lambda-points", "9", "--format", "svg", "--output", str(path)])
    assert path.read_text().startswith("<svg")


def test_shoot_reports_outcome(capsys, tmp_path):
    path = tmp_path / "traj.txt"
    main(["shoot", "--n", "3", "--lam", "0.95", "--h0", "0.5",
          "--output", str(path)])
    out = capsys.readouterr().out
    assert "ExitsAtCeiling" in out
    assert np.loadtxt(path).shape[1] == 3
    outcome = shoot(ConeSpace(3, 0.95), 0.5)
    assert (f"steps: {outcome.steps} accepted, {outcome.rejected} rejected"
            in out)


def test_shoot_reports_diagnostics(capsys, monkeypatch):
    stalled = ShootingOutcome(kind=OutcomeKind.STALLED_NUMERIC, thetas=np.array([0.0, 0.1]),
                              Hs=np.array([0.5, 0.6]), log_fs=np.array([0.0, -0.1]),
                              diagnostics="floor tail failed", steps=1)
    monkeypatch.setattr(shooting, "shoot", lambda space, H0, rtol: stalled)
    main(["shoot", "--n", "3", "--lam", "0.5", "--h0", "0.5"])
    out = capsys.readouterr().out
    assert "outcome: StalledNumeric\n" in out
    assert "diagnostics: floor tail failed\n" in out
    monkeypatch.undo()
    main(["shoot", "--n", "3", "--lam", "0.95", "--h0", "0.5"])
    assert "diagnostics" not in capsys.readouterr().out


@pytest.mark.parametrize("flags, rtol, steps", [((), shooting.RTOL, 30),
                                               (("--rtol", "1e-8"), 1e-8, 15)])
def test_shoot_rtol_sets_the_tolerance(capsys, flags, rtol, steps):
    main(["shoot", "--n", "3", "--lam", "0.95", "--h0", "0.5", *flags])
    outcome = shoot(ConeSpace(3, 0.95), 0.5, rtol=rtol)
    assert outcome.steps == steps
    assert f"steps: {steps} accepted, 0 rejected\n" in capsys.readouterr().out


def test_shoot_rejects_a_zero_rtol():
    # 0 is passed on, not read as "unset"
    with pytest.raises(ValueError, match="rtol"):
        main(["shoot", "--n", "3", "--lam", "0.95", "--h0", "0.5", "--rtol", "0"])


def test_shoot_reports_area_and_flux(capsys):
    H0 = 0.0002913244446230061
    main(["shoot", "--n", "3", "--lam", "0.9", "--h0", repr(H0)])
    out = capsys.readouterr().out
    assert "ExtendsToHalfPi" in out
    space = ConeSpace(3, 0.9)
    area, flux = flux_consistency(space, H0, shoot(space, H0))
    assert f"normalized area (quadrature): {area:.12g}\n" in out
    assert f"boundary flux (closed form):  {flux:.12g}\n" in out


def test_competitor_direct_evaluation(capsys):
    main(["competitor", "--n", "2", "--lam", "0.9",
          "--delta", "0.001", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert "NotMinimizing" in out
    assert "bound" in out and "numeric" in out


def test_competitor_search_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    main(["competitor", "--n", "5", "--lam", "0.81", "--output", str(path)])
    report = json.loads(path.read_text())
    assert report["verdict"] == "Inconclusive"
    assert report["log_margin_gap"] == -math.inf
    assert report["delta"] == float(np.exp(report["log_delta"]))
    # a junction below the smallest double: delta reads 0.0, the logs carry it
    main(["competitor", "--n", "2", "--lam", "0.9999", "--output", str(path)])
    report = json.loads(path.read_text())
    assert report["verdict"] == "NotMinimizing"
    assert report["delta"] == 0.0 and report["log_delta"] < -745.0
    assert report["log_margin_gap"] > 0.0
    assert "log_delta:" in capsys.readouterr().out


@pytest.mark.parametrize("n, lam", [(2, 0.99), (3, 0.9), (5, 0.592)])
def test_competitor_direct_mode_rechecks_the_search_witness(tmp_path, n, lam):
    # direct mode at the search's own witness: the same verdict and margin,
    # decided on the log gap as search mode is
    search, direct = tmp_path / "search.json", tmp_path / "direct.json"
    main(["competitor", "--n", str(n), "--lam", repr(lam), "--output", str(search)])
    found = json.loads(search.read_text())
    assert found["verdict"] == "NotMinimizing"
    main(["competitor", "--n", str(n), "--lam", repr(lam), "--delta", repr(found["delta"]),
          "--alpha", repr(found["alpha"]), "--output", str(direct)])
    report = json.loads(direct.read_text())
    assert report["verdict"] == found["verdict"]
    assert report["margin"] == found["margin"] and report["bound"] == found["bound"]
    assert report["log_delta"] == math.log(found["delta"])
    assert report["log_margin_gap"] == pytest.approx(found["log_margin_gap"], rel=1e-12)


@pytest.mark.parametrize("flags, config", [
    (["--delta", "0.01"], {}), (["--alpha", "0.5"], {}),
    ([], {"delta": 0.01}), (["--delta", "0.01"], {"lam": 0.8})])
def test_competitor_rejects_a_lone_delta_or_alpha(tmp_path, capsys, flags, config):
    # direct mode needs both; one alone, from a flag or the config, is a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), "competitor", "--n", "3", "--lam", "0.9", *flags])
    assert exit_info.value.code == 2
    assert "--delta and --alpha" in capsys.readouterr().err


def test_competitor_takes_the_pair_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5}))
    main(["--config", str(cfg), "competitor", "--n", "2", "--lam", "0.9", "--delta", "0.001"])
    out = capsys.readouterr().out
    assert "delta: 0.001\n" in out and "alpha: 0.5\n" in out


def test_stability_tiny_lambda(capsys):
    # lam^2 underflows to 0 at 1e-200: the certificate of lam = 1e-160, not ZeroDivisionError
    main(["stability", "--lam", "1e-200"])
    assert "log(R/eps): 1  (gap inf)" in capsys.readouterr().out


def test_stability_output(capsys):
    main(["stability", "--lam", "0.9"])
    out = capsys.readouterr().out
    assert "unstable" in out
    main(["stability", "--lam", "1.0"])
    assert "stable" in capsys.readouterr().out


def test_curvature_output(capsys):
    main(["curvature", "--n", "3", "--lam", "0.9", "--t", "2.0"])
    out = capsys.readouterr().out
    assert "sectional[tangential]" in out
    assert "ricci[radial]" in out


def test_monotonicity_output(capsys):
    main(["monotonicity", "--surface", "equator-cone", "--n", "3", "--lam", "0.9",
          "--radii", "0.1", "1", "10"])
    out = capsys.readouterr().out
    values = [float(line.split()[-1]) for line in out.strip().splitlines()]
    assert max(values) - min(values) < 1e-10 * values[0]


def test_monotonicity_catenoid_output(capsys):
    # radii up to the neck radius rho(0) = 1 are dropped; none left falls back to 2 and 5
    main(["monotonicity", "--surface", "catenoid", "--radii", "0.5", "1", "1.5", "3"])
    assert capsys.readouterr().out == ("r=1.5: density ratio 5.09653992919\n"
                                       "r=3: density ratio 5.2696266934\n")
    main(["monotonicity", "--surface", "catenoid", "--radii", "0.5", "1"])
    assert capsys.readouterr().out == ("r=2: density ratio 5.23642088562\n"
                                       "r=5: density ratio 5.50592529866\n")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda-min": 0.93, "lambda-max": 0.96,
                               "lambda-points": 4}))
    main(["--config", str(cfg), "scan", "--n", "3"])
    out = capsys.readouterr().out
    assert out.count("lambda=") == 4


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda-points": 4}))
    main(["--config", str(cfg), "scan", "--n", "3", "--lambda-min", "0.93",
          "--lambda-max", "0.96", "--lambda-points", "6"])
    assert capsys.readouterr().out.count("lambda=") == 6


def test_config_turns_timing_off(tmp_path, monkeypatch, capsys):
    calls = []
    scan = phase.scan

    def recorded(*args, **kwargs):
        calls.append(kwargs["measure_time"])
        return scan(*args, **kwargs)

    monkeypatch.setattr(phase, "scan", recorded)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-timing": True, "lambda-points": 3}))
    main(["--config", str(cfg), "scan", "--n", "3"])
    main(["scan", "--n", "3", "--lambda-points", "3"])
    assert calls == [False, True]


@pytest.mark.parametrize("command, config", [
    (["scan", "--n", "3"], {"lamda-min": 0.9}),
    (["scan", "--n", "3"], {"lam": 0.9}),           # a flag of another command
    (["scan", "--n", "3"], {"config": "other.json"}),
    (["curvature", "--n", "3", "--lam", "0.9"], {"radii": [1.0]})])
def test_config_key_that_names_no_flag_is_rejected(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), *command])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"config key {next(iter(config))!r} is not a flag of {command[0]}" in err


@pytest.mark.parametrize("command, config", [
    (["scan"], {"n": 3}), (["monotonicity"], {"radii": 2.0})])
def test_config_scalar_for_a_list_flag_is_rejected(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(cfg), *command])
    assert exit_info.value.code == 2
    assert f"config key {next(iter(config))!r} takes a list" in capsys.readouterr().err


def test_config_list_flag_takes_a_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [3, 4], "lambda-points": 2}))
    main(["--config", str(cfg), "scan"])
    out = capsys.readouterr().out
    assert out.count("n=3 lambda=") == 2 and out.count("n=4 lambda=") == 2


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def _readme_commands():
    """The cone-min-lab lines of README's first "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in joined.splitlines()
            if line.startswith("cone-min-lab ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    # every documented command exits 0, so the README cannot drift from the CLI
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert main(argv) == 0, argv
