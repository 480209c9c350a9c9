import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
            ("run.ini", "n_r = 6", "n_r = six"),
            ("run.ini", "cfl = 0.2", "cfl = 0."),
            ("run.ini", "mark_times =", "mark_times = -0.001"),
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
        code, err, _, path = _run_with(intact, name, text.replace(old, new).encode())
        assert code == 2
        _assert_names_file(name, err, path)

    def test_class_mismatch_refusal_names_the_manifest(self, intact):
        text = _ini_path(intact, "manifest.ini").read_text()
        assert "a0 = 1.0\n" in text
        edited = text.replace("a0 = 1.0\n", "a0 = 1.5\n").encode()
        code, err, _, path = _run_with(intact, "manifest.ini", edited)
        assert code == 2
        assert err.startswith(f"refused: {path}: class parameters ClassSpec(a0=1.5"), err
        assert err.count("\n") == 1 and "Traceback" not in err
