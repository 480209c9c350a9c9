"""Byte pins of the output that the desk digests (bench/desk_digests.json)
do not reach: fixed-mass verification with and without an exploratory
certificate, a failing report with witness shells, membership reports of
a fixed-mass sample, a total-mass miss and a per-shell miss, and the
INI records a desk run never writes: fixed-mass and exploratory
certificates, a fixed-mass manifest, and a run.ini and certificate given
ints where floats are declared.  A change to any of these bytes must be
named, with its reason, in CHANGES.md."""

import contextlib
import dataclasses
import hashlib
import io

from vpshell import (
    IntegratorConfig,
    check_membership,
    cli,
    design_fixed_mass,
    design_small_data,
    integrate,
    sample_ensemble,
    verify_focusing_run,
)
from vpshell.initial_data import InitialData
from vpshell.reporting import (
    RunSetup,
    save_certificate,
    save_membership_report,
    save_run,
    save_run_config,
    save_verification_report,
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _verify_fixed_mass(tmp_path, design_argv):
    """design -> run -> verify at 8x8x6; returns verify's exit code, its
    stdout with the run directory's path replaced by <run>, and the SHA-256
    of verification.ini."""
    cert, config, run = tmp_path / "certificate.ini", tmp_path / "run.ini", tmp_path / "run"
    save_run_config(RunSetup(certificate_path="certificate.ini", n_r=8, n_w=8, n_ell=6), config)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["design", *design_argv, "--out", str(cert)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(run)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", str(run), str(cert)])
    return code, stdout.getvalue().replace(str(run), "<run>"), _sha256(run / "verification.ini")


EXPLORATORY_FIXED_MASS_STDOUT = """\
verification (exploratory certificate)
  skipped initial-sup-norms: exploratory certificate
  skipped total-mass: exploratory certificate
  pass    turning-after-T: min(turning time - T) = inf
  pass    confinement-radius: max radius at T = 0.998669 vs bound 7.98823 (rel slack 1e-06)
  pass    certified-lower-bounds: rho certified 0.239688 >= predicted 0.000294266, \
E certified 1.00267 >= predicted 0.0156711
report -> <run>/verification.ini
"""

FIXED_MASS_STDOUT = """\
verification
  skipped initial-sup-norms: fixed-mass recipe makes no time-zero claims
  pass    total-mass: mass 1.0000000000000002 vs C1 1.0, rel err 2.220e-16
  pass    turning-after-T: min(turning time - T) = inf
  pass    confinement-radius: max radius at T = 0.201868 vs bound 1.61493 (rel slack 1e-06)
  pass    certified-lower-bounds: rho certified 29.021 >= predicted 0.0072, \
E certified 24.5396 >= predicted 0.383435; both >= C2 = 0.0001
report -> <run>/verification.ini
"""


def test_exploratory_fixed_mass_verification(tmp_path):
    design = ["--c1", "1", "--c2", "1e-2", "--t", "1", "--eps", "0.05", "--exploratory"]
    code, stdout, digest = _verify_fixed_mass(tmp_path, design)
    assert code == 0
    assert stdout == EXPLORATORY_FIXED_MASS_STDOUT
    assert digest == "3d03f8f96f31f86c144edce601f5372a7027aa1b332917aeb8a3fc28640184d1"


def test_fixed_mass_verification(tmp_path):
    code, stdout, digest = _verify_fixed_mass(tmp_path, ["--c1", "1", "--c2", "1e-4", "--t", "1"])
    assert code == 0
    assert stdout == FIXED_MASS_STDOUT
    assert digest == "81fb3cb9750f4925573116638c40223e7c623d031aea27e8826f0f86588ffabf"


def test_failing_report_with_witness_shells(tmp_path):
    """The 8x8x6 run at eps = 0.05 to 3T crosses pericenter; against its
    certificate moved to T = 3T with a confinement radius 1e-6 of the
    claimed one, stages (iii) and (iv) fail and name a shell."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.05)
    ens = sample_ensemble(InitialData.from_spec(cert.spec), 8, 8, 6)
    t_end = 3.0 * cert.t_horizon
    result = integrate(ens, IntegratorConfig(t_end=t_end, dt_max=t_end / 150))
    moved = dataclasses.replace(cert, t_horizon=t_end, sup_r_bound=1e-6 * cert.sup_r_bound)
    report = verify_focusing_run(result, moved)
    failed = {s.name: s.witness_id for s in report.stages if s.status == "fail"}
    assert failed.keys() >= {"turning-after-T", "confinement-radius"}
    assert None not in (failed["turning-after-T"], failed["confinement-radius"])
    path = save_verification_report(report, tmp_path / "verification.ini")
    assert hashlib.sha256(str(report).encode()).hexdigest() == (
        "4067ec608739baba5be6a54518a80d6d54d5859a08523eb9605da5195436e89e"
    )
    assert _sha256(path) == "882192ac77d2f016624abb3f544e2d77e03573abcc81acc6bc01704f8207c6b7"


def _membership_digest(tmp_path, data, ensemble):
    report = check_membership(data, ensemble)
    return report, _sha256(save_membership_report(report, tmp_path / "membership.ini"))


# The three membership pins were re-recorded when membership.ini took
# verification.ini's stage layout: [stage:<name>] sections with status,
# detail and witness_shell in place of [check:<name>] sections with
# passed, hard, detail and an (id, r, w, ell) witness, mass-sandwich
# renamed total-mass, and the fixed-mass mass detail reading "vs C1".


def test_fixed_mass_membership(tmp_path):
    data = InitialData.from_spec(design_fixed_mass(1.0, 1e-4, 1.0).spec)
    report, digest = _membership_digest(tmp_path, data, sample_ensemble(data, 8, 8, 6))
    assert report.passed
    assert digest == "54bd55944a8439b3c86ada2a863214a3507b9fc0f07c1cc305a31a8e31a8bc87"


def test_mass_sandwich_miss_membership(tmp_path):
    """The desk certificate on a 4x2x2 grid samples a mass of 2.1e-2, below
    the sandwich's lower end 2.4e-2."""
    data = InitialData.from_spec(design_small_data(c1=32.0, c2=1e-7, eps=0.2).spec)
    report, digest = _membership_digest(tmp_path, data, sample_ensemble(data, 4, 2, 2))
    assert [s.name for s in report.stages if s.status == "fail"] == ["total-mass"]
    assert digest == "ed26efe90531d18d40a419e69e6cea134cd33ae278ea7cb8d44e2f1b426d993b"


def test_per_shell_miss_membership(tmp_path):
    """Shells moved out by half the shell's width miss the radial shell and
    the support ellipse, each naming its worst shell."""
    data = InitialData.from_spec(design_small_data(c1=32.0, c2=1e-7, eps=0.2).spec)
    ens = sample_ensemble(data, 8, 8, 6)
    moved = ens.advanced(ens.r + 0.5 * data.spec.delta_r, ens.w, ens.time)
    report, digest = _membership_digest(tmp_path, data, moved)
    missed = {s.name: s.witness_id for s in report.stages if s.status == "fail"}
    assert missed == {"support-ellipse": 42, "radial-shell": 336}
    # re-recorded when rho0 became closed form: density-plateau reads
    # 0.000e+00 where the quadrature read 2.409e-14
    assert digest == "710d70c05305a9c43a1523e699d41ded1d8ca91609798ca79011d730acfe6471"


def test_fixed_mass_run_from_int_settings(tmp_path):
    """A fixed-mass certificate (target_mass, c0 and eta, no time-zero
    bounds) run from a RunSetup whose every float is given as an int: the
    run.ini, the run's certificate.ini and its manifest.ini write each of
    them as a float, in the order given."""
    cert = design_fixed_mass(1.0, 1e-4, 1.0)
    setup = RunSetup(
        certificate_path="certificate.ini", n_r=8, n_w=8, n_ell=6,
        t_end=1, dt_max=1, cfl=1, mark_times=(1, 0.5),
    )
    assert _sha256(save_run_config(setup, tmp_path / "run.ini")) == (
        "bf897522bced53c7e7580d3b9ea22a24686625f3077cdb8a3a3561dae8eff72c"
    )
    config, marks = setup.resolve(cert)
    result = integrate(sample_ensemble(InitialData.from_spec(cert.spec), 8, 8, 6), config, marks)
    out = save_run(result, cert, setup, tmp_path / "run")
    assert _sha256(out / "certificate.ini") == (
        "78ceb782c8db87eb3cc1c3b856c7ab0a6e29bdcbcf9b662928080f20a48cdab8"
    )
    assert _sha256(out / "manifest.ini") == (
        "4847d1e53057cecb4f993a4d3edb3d1ce0db3885ff6f8a1ceb348530e6744164"
    )


def test_exploratory_certificates(tmp_path):
    """A fixed-mass certificate beyond its admissible eps, and a small-data
    one designed from int targets, which are written as floats."""
    fixed_mass = design_fixed_mass(1.0, 1e-2, 1.0, eps=0.05, exploratory=True)
    assert _sha256(save_certificate(fixed_mass, tmp_path / "fixed_mass.ini")) == (
        "5c17dd91e3c0be858928b375b6c4fd5dc28b59751906bf65a8084aacd14f848e"
    )
    small = design_small_data(c1=32, c2=1, eps=0.2, exploratory=True)
    assert _sha256(save_certificate(small, tmp_path / "small.ini")) == (
        "3b3fad067bfa9d7dcba39e48f8ea7574bcc92dd864b943c9fdf99a9a82f6e210"
    )
