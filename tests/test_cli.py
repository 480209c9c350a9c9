import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from vpshell import cli, oracle_suite
from vpshell.dynamics import OracleError, StiffnessError
from vpshell.reporting import (
    RunSetup,
    load_certificate,
    load_verification_report,
    save_certificate,
    save_run_config,
)


@pytest.fixture()
def workspace(tmp_path):
    """Certificate plus run config on disk, small grid for speed."""
    cert_path = tmp_path / "cert.ini"
    rc = cli.main(
        ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", str(cert_path)]
    )
    assert rc == 0
    setup = RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6)
    config_path = save_run_config(setup, tmp_path / "run.ini")
    return tmp_path, cert_path, config_path


class TestDesign:
    def test_writes_certificate(self, workspace, capsys):
        tmp_path, cert_path, _ = workspace
        cert = load_certificate(cert_path)
        assert cert.recipe == "small-data"
        assert cert.spec.eps == 0.2

    def test_fixed_mass_route(self, tmp_path):
        out = tmp_path / "fm.ini"
        rc = cli.main(["design", "--c1", "1", "--c2", "1", "--t", "1.0", "--out", str(out)])
        assert rc == 0
        assert load_certificate(out).recipe == "fixed-mass"

    def test_inadmissible_eps_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(
            ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.3",
             "--out", str(tmp_path / "c.ini")]
        )
        assert rc == 2
        assert "eps-admissible-max" in capsys.readouterr().err

    def test_exploratory_flag_forces_through(self, tmp_path):
        out = tmp_path / "c.ini"
        rc = cli.main(
            ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.3",
             "--exploratory", "--out", str(out)]
        )
        assert rc == 0
        assert load_certificate(out).exploratory

    def test_bad_targets_are_usage_errors(self, tmp_path):
        rc = cli.main(["design", "--c1", "-1", "--c2", "1", "--out", str(tmp_path / "c.ini")])
        assert rc == 2


class TestPipeline:
    def test_init_run_verify(self, workspace, capsys):
        tmp_path, cert_path, config_path = workspace

        rc = cli.main(["init", "--config", str(config_path), "--out", str(tmp_path / "init")])
        assert rc == 0
        assert (tmp_path / "init" / "initial.csv").exists()
        assert (tmp_path / "init" / "membership.ini").exists()

        out_dir = tmp_path / "out"
        rc = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert rc == 0
        for name in ("rows.csv", "shells.csv", "manifest.ini", "certificate.ini",
                     "snapshot_000.csv"):
            assert (out_dir / name).exists(), name

        rc = cli.main(["verify", str(out_dir), str(cert_path)])
        assert rc == 0
        report = load_verification_report(out_dir / "verification.ini")
        assert report.passed
        assert len(report.stages) == 5

    def test_threads_flag_is_accepted(self, workspace, tmp_path):
        _, _, config_path = workspace
        rc = cli.main(
            ["init", "--config", str(config_path), "--out", str(tmp_path / "i2"),
             "--threads", "8"]
        )
        assert rc == 0

    def test_verify_refuses_foreign_certificate(self, workspace, tmp_path, capsys):
        ws, cert_path, config_path = workspace
        out_dir = ws / "out_refuse"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0

        foreign = ws / "foreign.ini"
        rc = cli.main(
            ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.1", "--out", str(foreign)]
        )
        assert rc == 0
        rc = cli.main(["verify", str(out_dir), str(foreign)])
        assert rc == 2
        assert "refused" in capsys.readouterr().err

    def test_verify_fails_on_unreachable_claims(self, workspace, capsys):
        ws, cert_path, config_path = workspace
        out_dir = ws / "out_fail"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0

        # same class parameters, but a density claim 12 orders too strong
        cert = load_certificate(cert_path)
        greedy = dataclasses.replace(cert, rhot_lower=cert.rhot_lower * 1e12)
        greedy_path = ws / "greedy.ini"
        save_certificate(greedy, greedy_path)
        rc = cli.main(["verify", str(out_dir), str(greedy_path)])
        assert rc == 1
        report = load_verification_report(out_dir / "verification.ini")
        assert report.first_failure().name == "certified-lower-bounds"


class TestOracleCommand:
    def test_small_suite(self, tmp_path, capsys):
        out = tmp_path / "suite.ini"
        rc = cli.main(["oracle", "--cases", "3", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "[oracle-suite]\ncases = 3\nviolations = 0\npassed = true\n\n"
        assert "0 violations" in capsys.readouterr().out


def _run_dir(ws, name="out", **setup):
    """Run the workspace's small grid, optionally with changed RunSetup fields."""
    config = save_run_config(
        RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6, **setup), ws / f"{name}.ini"
    )
    assert cli.main(["run", "--config", str(config), "--out", str(ws / name)]) == 0
    return ws / name


def _config_without_n_w(ws):
    config = ws / "no_n_w.ini"
    config.write_text((ws / "run.ini").read_text().replace("n_w = 8\n", ""))
    return ["run", "--config", str(config), "--out", str(ws / "out")]


def _verify_stopped_before_t(ws):
    t_horizon = load_certificate(ws / "cert.ini").t_horizon
    return ["verify", str(_run_dir(ws, "short", t_end=0.5 * t_horizon)), str(ws / "cert.ini")]


def _verify_truncated(name):
    def argv(ws):
        out = _run_dir(ws)
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines[:-3]))
        return ["verify", str(out), str(ws / "cert.ini")]
    return argv


def _init_unresolved_shell(*design_argv):
    """design exits 0, but its shell is thinner than double precision
    resolves at a0, so init refuses the certificate."""
    def argv(ws):
        assert cli.main(["design", *design_argv, "--out", str(ws / "thin.ini")]) == 0
        config = save_run_config(
            RunSetup(certificate_path="thin.ini", n_r=8, n_w=8, n_ell=6), ws / "thin_run.ini"
        )
        return ["init", "--config", str(config), "--out", str(ws / "init")]
    return argv


def _run_t_end_nan(ws):
    config = save_run_config(
        RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6, t_end=float("nan"),
                 dt_max=0.001),
        ws / "nan.ini",
    )
    return ["run", "--config", str(config), "--out", str(ws / "out")]


USAGE_ERRORS = {
    "design-c1-inf": lambda ws: ["design", "--c1", "inf", "--c2", "1", "--out", str(ws / "c.ini")],
    "design-t-inf": lambda ws: ["design", "--c1", "1", "--c2", "1", "--t", "inf", "--out", str(ws / "c.ini")],
    "config-without-n_w": _config_without_n_w,
    "oracle-zero-cases": lambda ws: ["oracle", "--cases", "0"],
    "verify-missing-dir": lambda ws: ["verify", str(ws / "nowhere"), str(ws / "cert.ini")],
    "verify-stopped-before-T": _verify_stopped_before_t,
    "verify-truncated-shells": _verify_truncated("shells.csv"),
    "verify-truncated-snapshot": _verify_truncated("snapshot_001.csv"),
    "init-fixed-mass-unresolved-shell": _init_unresolved_shell("--c1", "1", "--c2", "1", "--t", "1"),
    "init-small-data-unresolved-shell": _init_unresolved_shell("--c1", "32", "--c2", "1e3"),
    "run-t_end-nan": _run_t_end_nan,
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_one_line(case, workspace, capsys):
    argv = USAGE_ERRORS[case](workspace[0])
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stiffness_error_is_a_failed_run(workspace, monkeypatch, capsys):
    def stiff(*args, **kwargs):
        raise StiffnessError(7, 0.5, 1e-15)

    ws, _, config_path = workspace
    monkeypatch.setattr(cli, "integrate", stiff)
    assert cli.main(["run", "--config", str(config_path), "--out", str(ws / "out")]) == 1
    assert "run aborted" in capsys.readouterr().err


def test_oracle_error_is_a_failed_run(monkeypatch, capsys):
    def unconverged(*args, **kwargs):
        raise OracleError("Newton solve did not converge")

    monkeypatch.setattr(oracle_suite, "integrate_oracle", unconverged)
    assert cli.main(["oracle", "--cases", "3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "oracle aborted" in err and "Traceback" not in err


def test_desk_run_files_match_recorded_digests(tmp_path):
    """design -> init -> run -> verify on the README desk config reproduces
    every run-directory file byte for byte."""
    recorded = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "desk_digests.json").read_text()
    )
    cert, config = tmp_path / "certificate.ini", tmp_path / "run.ini"
    save_run_config(RunSetup(certificate_path="certificate.ini"), config)
    for argv in (
        ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", str(cert)],
        ["init", "--config", str(config), "--out", str(tmp_path / "init")],
        ["run", "--config", str(config), "--out", str(tmp_path / "run")],
        ["verify", str(tmp_path / "run"), str(cert)],
    ):
        assert cli.main(argv) == 0, argv
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "run").iterdir()
    }
    assert digests == recorded
    initial = hashlib.sha256((tmp_path / "init" / "initial.csv").read_bytes()).hexdigest()
    assert initial == recorded["snapshot_000.csv"]
