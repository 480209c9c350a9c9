import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vpshell import cli, dynamics, oracle_suite
from vpshell.dynamics import OracleError, StiffnessError
from vpshell.reporting import (
    RunSetup,
    load_certificate,
    load_run_config,
    load_run_data,
    load_verification_report,
    save_certificate,
    save_run,
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
        rc = cli.main(
            ["design", "--c1", "1", "--c2", "1", "--t", "1.0", "--eps", "0.02", "--exploratory",
             "--out", str(out)]
        )
        assert rc == 0
        assert load_certificate(out).recipe == "fixed-mass"

    def test_inadmissible_eps_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(
            ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.3",
             "--out", str(tmp_path / "c.ini")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "eps-admissible-max" in err
        assert err.endswith("; pass --exploratory to force it\n")

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

    def test_run_refuses_data_outside_the_class(self, tmp_path, capsys):
        """The desk certificate at 4x2x2 samples a mass of 2.1e-2, below the
        mass sandwich's 2.4e-2: init and run exit 1 and run writes nothing;
        the certificate marked exploratory runs."""
        cert = tmp_path / "cert.ini"
        assert cli.main(
            ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", str(cert)]
        ) == 0
        config = save_run_config(
            RunSetup(certificate_path="cert.ini", n_r=4, n_w=2, n_ell=2), tmp_path / "run.ini"
        )
        assert cli.main(["init", "--config", str(config), "--out", str(tmp_path / "init")]) == 1
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert "  fail    total-mass: mass 2.114861e-02 in sandwich" in out
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        cert.write_text(cert.read_text().replace("exploratory = false", "exploratory = true"))
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("design, skipped", [
        (["--c1", "32", "--c2", "1e-3"], []),
        (["--c1", "1", "--c2", "1e-2", "--t", "1"], ["initial-sup-norms"]),
    ], ids=["small-data-eps-6e-5", "fixed-mass-eps-1e-3"])
    def test_small_eps_certificates_pass_every_stage(self, tmp_path, capsys, design, skipped):
        """Certificates whose density quadrature read a false plateau miss
        (eps = 6.25e-5) or whose support-ellipse check cancelled at
        a0 = 9.8e5 run and verify at 16x16x8; the fixed-mass recipe makes
        no time-zero claims."""
        cert, out = tmp_path / "cert.ini", tmp_path / "out"
        config = save_run_config(
            RunSetup(certificate_path="cert.ini", n_r=16, n_w=16, n_ell=8), tmp_path / "run.ini"
        )
        assert cli.main(["design", *design, "--out", str(cert)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["verify", str(out), str(cert)]) == 0
        report = load_verification_report(out / "verification.ini")
        assert report.passed
        assert len(report.stages) == 5
        assert [s.name for s in report.stages if s.status != "pass"] == skipped

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
        """A density claim 12 orders stronger than the recipe's is refused
        naming rhot_lower, before any report is written (in process,
        verify_focusing_run fails it at certified-lower-bounds); the
        certificate's own claims fail, exit 1, against a record one of
        whose shells turns at T/2."""
        ws, cert_path, config_path = workspace
        out_dir = ws / "out_fail"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0

        # same class parameters, but a density claim 12 orders too strong
        cert = load_certificate(cert_path)
        greedy = dataclasses.replace(cert, rhot_lower=cert.rhot_lower * 1e12)
        greedy_path = ws / "greedy.ini"
        save_certificate(greedy, greedy_path)
        capsys.readouterr()
        assert cli.main(["verify", str(out_dir), str(greedy_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"verify error: {greedy_path}: ") and "rhot_lower" in err
        assert not (out_dir / "verification.ini").exists()

        run = load_run_data(out_dir)
        turning = run.turning_time.copy()
        turning[3] = 0.5 * cert.t_horizon
        early = dataclasses.replace(run, turning_time=turning)
        save_run(early, cert, load_run_config(config_path), out_dir)
        assert cli.main(["verify", str(out_dir), str(cert_path)]) == 1
        stages = load_verification_report(out_dir / "verification.ini").stages
        first = next(s for s in stages if s.status == "fail")
        assert first.name == "turning-after-T" and first.witness_id == run.final.ids[3]

    def test_verify_refuses_steps_no_run_takes(self, workspace, capsys):
        """Every step of a run adds one row, so [run] steps is rows.csv's
        row count less one; a manifest claiming 1000000 is refused."""
        ws, cert_path, _ = workspace
        out = _run_dir(ws)
        manifest = out / "manifest.ini"
        text = manifest.read_text()
        steps = len(load_run_data(out).rows) - 1
        assert text.count(f"steps = {steps}\n") == 1
        manifest.write_text(text.replace(f"steps = {steps}\n", "steps = 1000000\n"))
        capsys.readouterr()
        assert cli.main(["verify", str(out), str(cert_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"verify error: {manifest}: [run] steps = 1000000 is too many for "
            f"rows.csv's {steps + 1} rows\n"
        )

    def test_verify_reads_the_runs_own_certificate(self, workspace, capsys):
        """The run's certificate.ini must load and equal the given
        certificate but for exploratory: garbage and a certificate of the
        same class with another C2 are refused naming both files; either
        file marked exploratory by hand only claims less and verifies."""
        ws, cert_path, _ = workspace
        out = _run_dir(ws)
        own = out / "certificate.ini"
        intact = own.read_text()
        other = ws / "other.ini"
        design = ["design", "--c1", "32", "--c2", "1e-8", "--eps", "0.2", "--out", str(other)]
        assert cli.main(design) == 0
        for text, refusal in (
            ("garbage", f"refused: {own}: "),
            (other.read_text(), f"refused: {own}: the run's certificate differs from {cert_path} at c2\n"),
        ):
            own.write_text(text)
            capsys.readouterr()
            assert cli.main(["verify", str(out), str(cert_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(refusal) and str(cert_path) in err, err
            assert err.count("\n") == 1 and "Traceback" not in err
        own.unlink()
        assert cli.main(["verify", str(out), str(cert_path)]) == 2
        assert capsys.readouterr().err == (
            f"refused: certificate file not found: {own}; "
            f"the run cannot be checked against {cert_path}\n"
        )
        marked = intact.replace("exploratory = false", "exploratory = true")
        for run_text, given_text in ((marked, intact), (intact, marked)):
            own.write_text(run_text)
            cert_path.write_text(given_text)
            assert cli.main(["verify", str(out), str(cert_path)]) == 0

    @pytest.mark.parametrize("design, edit", [
        (["--c1", "1", "--c2", "1e-4", "--t", "1"], ("c1 = 1.0\n", "c1 = 2.0\n")),
        (["--c1", "32", "--c2", "1e-7", "--eps", "0.2"],
         ("[class]\n", "[class]\ntarget_mass = 0.03\n")),
    ], ids=["fixed-mass-c1-not-target-mass", "small-data-with-target-mass"])
    def test_certificate_whose_recipe_and_class_disagree_is_refused(
        self, tmp_path, capsys, design, edit
    ):
        """A fixed-mass certificate whose c1 = 2.0 is not its [class]
        target_mass = 1.0, and a small-data one given a target_mass, are
        refused by run and verify with exit 2 and one line naming the file;
        run used to sample the class's mass and verify to fail total-mass."""
        cert = tmp_path / "cert.ini"
        config = save_run_config(
            RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6), tmp_path / "run.ini"
        )
        assert cli.main(["design", *design, "--out", str(cert)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        text = cert.read_text()
        assert text.count(edit[0]) == 1
        cert.write_text(text.replace(*edit))
        capsys.readouterr()
        for argv in (
            ["run", "--config", str(config), "--out", str(tmp_path / "rerun")],
            ["verify", str(tmp_path / "out"), str(cert)],
        ):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]} error: {cert}: a ") and "target_mass" in err
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "rerun").exists()


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


def _init_unresolved_shell(design_argv, a0, eps):
    """design refuses a shell thinner than double precision resolves at a0,
    so the same class is written into a certificate by hand; init must
    refuse that certificate too."""
    def argv(ws):
        thin = ws / "thin.ini"
        assert cli.main(["design", *design_argv, "--out", str(thin)]) == 2
        assert not thin.exists()
        forced = [*design_argv, "--eps", "0.02", "--exploratory", "--out", str(thin)]
        assert cli.main(["design", *forced]) == 0
        text = thin.read_text()
        for key, value in (("a0", a0), ("a1", -1.0 / eps**2), ("eps", eps)):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
        thin.write_text(text)
        config = save_run_config(
            RunSetup(certificate_path="thin.ini", n_r=8, n_w=8, n_ell=6), ws / "thin_run.ini"
        )
        return ["init", "--config", str(config), "--out", str(ws / "init")]
    return argv


def _collapsed_radial_grid(command):
    """A certificate design accepts, on 40 radial cells that double
    precision cannot hold apart at its a0."""
    def argv(ws):
        cert = ws / "thin_grid.ini"
        assert cli.main(["design", "--c1", "1", "--c2", "1e-3", "--out", str(cert)]) == 0
        config = save_run_config(
            RunSetup(certificate_path="thin_grid.ini", n_r=40, n_w=4, n_ell=4),
            ws / "thin_grid_run.ini",
        )
        return [command, "--config", str(config), "--out", str(ws / command)]
    return argv


def _unallocatable_grid(command):
    """A radial grid of 1e14 cells, whose 728 TiB np.arange numpy refuses
    before any memory is touched.  Only a grid that no machine can
    allocate belongs here: one numpy could allocate would be filled."""
    def argv(ws):
        config = save_run_config(
            RunSetup(certificate_path="cert.ini", n_r=10**14, n_w=8, n_ell=6), ws / "huge.ini"
        )
        return [command, "--config", str(config), "--out", str(ws / command)]
    return argv


def _run_t_end_nan(ws):
    config = save_run_config(
        RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6, t_end=float("nan"),
                 dt_max=0.001),
        ws / "nan.ini",
    )
    return ["run", "--config", str(config), "--out", str(ws / "out")]


# default eps gives delta_r ~ 1.0e-12 at a0 ~ 9.8e7 (fixed mass) and
# 6.25e-11**3 at a0 = 1 (small data)
FIXED_MASS_THIN = ("--c1", "1", "--c2", "1", "--t", "1")
SMALL_DATA_THIN = ("--c1", "32", "--c2", "1e3")

USAGE_ERRORS = {
    "design-c1-inf": lambda ws: ["design", "--c1", "inf", "--c2", "1", "--out", str(ws / "c.ini")],
    "design-t-inf": lambda ws: ["design", "--c1", "1", "--c2", "1", "--t", "inf", "--out", str(ws / "c.ini")],
    "config-without-n_w": _config_without_n_w,
    "oracle-zero-cases": lambda ws: ["oracle", "--cases", "0"],
    "verify-missing-dir": lambda ws: ["verify", str(ws / "nowhere"), str(ws / "cert.ini")],
    "verify-stopped-before-T": _verify_stopped_before_t,
    "verify-truncated-shells": _verify_truncated("shells.csv"),
    "verify-truncated-snapshot": _verify_truncated("snapshot_001.csv"),
    "design-fixed-mass-unresolved-shell": lambda ws: ["design", *FIXED_MASS_THIN, "--out", str(ws / "c.ini")],
    "design-small-data-unresolved-shell": lambda ws: ["design", *SMALL_DATA_THIN, "--out", str(ws / "c.ini")],
    "init-fixed-mass-unresolved-shell": _init_unresolved_shell(FIXED_MASS_THIN, 97870568.64380415, 1.0108202744905371e-4),
    "init-small-data-unresolved-shell": _init_unresolved_shell(SMALL_DATA_THIN, 1.0, 6.25e-11),
    "run-t_end-nan": _run_t_end_nan,
    "init-collapsed-radial-grid": _collapsed_radial_grid("init"),
    "run-collapsed-radial-grid": _collapsed_radial_grid("run"),
    "init-unallocatable-grid": _unallocatable_grid("init"),
    "run-unallocatable-grid": _unallocatable_grid("run"),
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


def test_step_budget_beyond_dt_max_is_refused_naming_the_config(workspace, capsys):
    """dt_max = 1e-10 needs 8e7 steps to the desk certificate's T = 0.008."""
    ws, _, _ = workspace
    config = save_run_config(
        RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6, dt_max=1e-10),
        ws / "tiny_dt.ini",
    )
    assert cli.main(["run", "--config", str(config), "--out", str(ws / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"run error: {config}: t_end / dt_max = 8e+07 steps exceeds")
    assert not (ws / "out").exists()


def test_step_budget_used_up_is_a_failed_run(workspace, monkeypatch, capsys):
    """At cfl = 0.001 the 8x8x6 desk run takes 227 steps, past a budget of 60."""
    ws, _, _ = workspace
    monkeypatch.setattr(dynamics, "MAX_STEPS", 60)
    config = save_run_config(
        RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6, cfl=0.001),
        ws / "slow.ini",
    )
    assert cli.main(["run", "--config", str(config), "--out", str(ws / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("run aborted: 60 steps reached at t=")


def test_oracle_error_is_a_failed_run(monkeypatch, capsys):
    def unconverged(*args, **kwargs):
        raise OracleError("Newton solve did not converge")

    monkeypatch.setattr(oracle_suite, "integrate_oracle_batch", unconverged)
    assert cli.main(["oracle", "--cases", "3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "oracle aborted" in err and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    """The runtime is numpy alone; scipy is a test dependency only.  Nor
    does it load numpy.polynomial, since no quadrature runs at run time."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = (
        "import sys, vpshell.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('scipy', 'numpy.polynomial'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_oracle_newton_failure_names_the_case(monkeypatch, capsys):
    """A real Newton failure, not a stub: too few steps allowed.  Case 0
    of the default draws is force-free and needs no Newton solve, so the
    first case named is case 1."""
    monkeypatch.setattr(dynamics, "ORACLE_NEWTON_MAX_ITER", 1)
    assert cli.main(["oracle", "--cases", "3"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("oracle aborted: profile-one: Newton solve")


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
    # re-recorded when rho0 became closed form (the density-plateau deviation
    # reads 0.000e+00 where the quadrature read 2.409e-14), and again when
    # membership.ini took verification.ini's [stage:<name>] layout and
    # mass-sandwich became total-mass
    membership = hashlib.sha256((tmp_path / "init" / "membership.ini").read_bytes()).hexdigest()
    assert membership == "dcd911a0949143152b60a022c74a5b41b31a6c81c6301a05758a1f74f12ea650"


# ------------------------------------------------------- malformed INI files

# the command that reads each INI file of a finished run
INI_COMMANDS = {"cert.ini": "verify", "manifest.ini": "verify", "run.ini": "run"}
INI_NAMES = st.sampled_from(sorted(INI_COMMANDS))


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# commas would split a list value into valid numbers again
NOT_FINITE_NUMBERS = st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "1e999", "two", "", "0x10", "1.0.0", "%"]
) | st.text(
    st.characters(blacklist_characters="\r\n,", blacklist_categories=("Cs",)), max_size=6
).filter(lambda text: not _finite_number(text))


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """design, run and verify on a 6x6x4 grid; the workspace is not changed after."""
    ws = tmp_path_factory.mktemp("intact")
    cert = str(ws / "cert.ini")
    assert cli.main(["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", cert]) == 0
    save_run_config(RunSetup(certificate_path="cert.ini", n_r=6, n_w=6, n_ell=4), ws / "run.ini")
    assert cli.main(["run", "--config", str(ws / "run.ini"), "--out", str(ws / "out")]) == 0
    assert cli.main(["verify", str(ws / "out"), cert]) == 0
    return ws


def _ini_path(ws, name):
    return ws / "out" / name if name == "manifest.ini" else ws / name


def _run_with(intact, name, content: bytes):
    """Exit code, stderr and written report of the command that reads the
    INI file name, on a copy of the intact workspace where that file holds
    content; also the file's path in the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        shutil.copytree(intact, ws, dirs_exist_ok=True)
        path = _ini_path(ws, name)
        path.write_bytes(content)
        report = ws / "report.ini"
        if INI_COMMANDS[name] == "run":
            argv = ["run", "--config", str(path), "--out", str(ws / "rerun")]
        else:
            argv = ["verify", str(ws / "out"), str(ws / "cert.ini"), "--out", str(report)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue(), report.read_bytes() if report.exists() else None, path


def _assert_names_file(name, err, path):
    assert err.startswith(f"{INI_COMMANDS[name]} error: {path}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


def _assert_refused_or_unchanged(intact, name, content):
    """The command exits 2 with one line naming the file, or, for a change
    the command does not read, runs as on the intact file: verify writes
    the intact report.  A change to a run.ini value may run a different
    but valid config, so run only has to succeed quietly."""
    code, err, report, path = _run_with(intact, name, content)
    if code == 2:
        _assert_names_file(name, err, path)
    elif INI_COMMANDS[name] == "verify":
        assert code == 0 and report == (intact / "out" / "verification.ini").read_bytes()
    else:
        assert code == 0 and err == ""


class TestMalformedIniFiles:
    @settings(max_examples=40, deadline=None)
    @given(name=INI_NAMES, data=st.data())
    def test_missing_section_or_key(self, intact, name, data):
        lines = _ini_path(intact, name).read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        _assert_refused_or_unchanged(intact, name, b"".join(lines[:i] + lines[i + 1:]))

    @settings(max_examples=40, deadline=None)
    @given(name=INI_NAMES, value=NOT_FINITE_NUMBERS, data=st.data())
    def test_value_not_a_finite_number(self, intact, name, value, data):
        lines = _ini_path(intact, name).read_bytes().splitlines(keepends=True)
        numeric = [
            i for i, line in enumerate(lines)
            if b" = " in line and _finite_number(line.split(b" = ", 1)[1].decode())
        ]
        i = data.draw(st.sampled_from(numeric))
        lines[i] = lines[i].split(b" = ", 1)[0] + f" = {value}\n".encode()
        _assert_refused_or_unchanged(intact, name, b"".join(lines))

    @settings(max_examples=30, deadline=None)
    @given(name=INI_NAMES, byte=st.integers(0x80, 0xFF), data=st.data())
    def test_undecodable_byte(self, intact, name, byte, data):
        text = _ini_path(intact, name).read_bytes()
        at = data.draw(st.integers(0, len(text)))
        code, err, _, path = _run_with(intact, name, text[:at] + bytes([byte]) + text[at:])
        assert code == 2
        _assert_names_file(name, err, path)

    @settings(max_examples=40, deadline=None)
    @given(name=INI_NAMES, data=st.data())
    def test_truncated(self, intact, name, data):
        text = _ini_path(intact, name).read_bytes()
        _assert_refused_or_unchanged(intact, name, text[: data.draw(st.integers(0, len(text) - 1))])

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("manifest.ini", "count = 2", "count = two"),
            ("manifest.ini", "[snapshots]", "[snaps]"),
            ("manifest.ini", "times = 0.0,0.008", "times = 0.0,0.0"),
            ("manifest.ini", "format = 1", "format = 7"),
            # valid snapshots, but not where save_run puts them: not read
            pytest.param(
                "manifest.ini", "files = snapshot_000.csv",
                "files = ../out/snapshot_000.csv", id="manifest.ini-files-parent-path",
            ),
            pytest.param(
                "manifest.ini", "files = snapshot_000.csv",
                "files = {intact}/out/snapshot_000.csv", id="manifest.ini-files-absolute-path",
            ),
            ("run.ini", "n_r = 6", "n_r = six"),
            ("run.ini", "cfl = 0.2", "cfl = 0."),
            ("run.ini", "mark_times =", "mark_times = -0.001"),
            # a mark after t_end: the certificate's horizon, then an explicit one
            pytest.param(
                "run.ini", "mark_times =", "mark_times = 0.002,0.5", id="run.ini-mark_times after T"
            ),
            pytest.param(
                "run.ini",
                "cfl = 0.2\n\n[diagnostics]\nmark_times =",
                "cfl = 0.2\nt_end = 0.004\n\n[diagnostics]\nmark_times = 0.002,0.5",
                id="run.ini-mark_times after t_end = 0.004",
            ),
            ("run.ini", "cfl = 0.2", "cfl = 0.2\nt_end = 0.0"),
            ("cert.ini", "e0_sup_bound = 32.0\n", ""),
            ("cert.ini", "sup_r_bound = 4.000000000000001", "sup_r_bound = inf"),
            ("cert.ini", "exploratory = false", "exploratory = no"),
            ("cert.ini", "eps = 0.2", "eps = 1e300"),
        ],
    )
    def test_refusals_name_the_file(self, intact, name, old, new):
        text = _ini_path(intact, name).read_text()
        assert old in text
        new = new.format(intact=intact)
        code, err, _, path = _run_with(intact, name, text.replace(old, new).encode())
        assert code == 2
        _assert_names_file(name, err, path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("integrator", "dt_mx", "1e-05"),  # a typo of dt_max
            ("integrator", "output_stride", "3"),  # retired: every state has a row
            ("diagnostics", "n_bins", "64"),  # retired: field.N_BINS bins
        ],
    )
    def test_key_nothing_reads_is_refused(self, intact, section, key, value):
        """A key run.ini's reader does not read would otherwise leave its
        setting at the default without a word."""
        text = _ini_path(intact, "run.ini").read_text()
        edited = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        assert edited != text
        code, err, _, path = _run_with(intact, "run.ini", edited.encode())
        assert code == 2
        assert err == f"run error: {path}: [{section}] {key} is not a run config key\n"

    @pytest.mark.parametrize("key", ["n_r", "n_w", "n_ell"])
    def test_sampling_key_is_required(self, intact, key):
        """RunSetup's grid defaults are not the run config's: run.ini must
        name every grid size."""
        text = _ini_path(intact, "run.ini").read_text()
        edited = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
        assert edited != text
        code, err, _, path = _run_with(intact, "run.ini", edited.encode())
        assert code == 2
        assert err == f"run error: {path}: missing section or key '{key}'\n"

    def test_class_mismatch_refusal_names_the_manifest(self, intact):
        text = _ini_path(intact, "manifest.ini").read_text()
        assert "a0 = 1.0\n" in text
        edited = text.replace("a0 = 1.0\n", "a0 = 1.5\n").encode()
        code, err, _, path = _run_with(intact, "manifest.ini", edited)
        assert code == 2
        assert err.startswith(f"refused: {path}: class parameters ClassSpec(a0=1.5"), err
        assert f"certificate {path.parents[1] / 'cert.ini'}: ClassSpec(a0=1.0" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_ending_before_the_horizon_is_refused_naming_both_files(self, intact, tmp_path):
        shutil.copytree(intact, tmp_path, dirs_exist_ok=True)
        run_ini = tmp_path / "run.ini"
        run_ini.write_text(run_ini.read_text().replace("cfl = 0.2", "cfl = 0.2\nt_end = 0.004"))
        short, cert = tmp_path / "short", tmp_path / "cert.ini"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["run", "--config", str(run_ini), "--out", str(short)]) == 0
            assert cli.main(["verify", str(short), str(cert)]) == 2
        assert err.getvalue() == (
            f"refused: {short / 'manifest.ini'}: run has no snapshot at certificate "
            f"{cert}'s T = 0.008; it ends at t = 0.004\n"
        )
