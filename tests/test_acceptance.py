"""Acceptance suite: one test per shipped claim, each printing a
[PASS]/[FAIL] line (run with -s to see them on success).

The expensive artifacts (the two focusing runs, the long dispersal run,
the exploratory far-shell run) are built once per module and shared.
"""

import filecmp
import math

import numpy as np
import pytest

from vpshell import (
    Ensemble,
    InitialData,
    IntegratorConfig,
    SortedMassIndex,
    check_membership,
    cli,
    confinement_lower_bounds,
    decay_slope,
    design_fixed_mass,
    design_small_data,
    free_motion_radius_squared,
    integrate,
    integrate_oracle,
    run_oracle_suite,
    sample_ensemble,
    sup_norms,
    verify_focusing_run,
)
from vpshell.reporting import RunSetup, save_run_config

RHO_BIN_SLACK = 0.5
RADIUS_REL_SLACK = 1e-6


def criterion(n, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {n:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------ shared runs

@pytest.fixture(scope="module")
def run5():
    """Desk-scale focusing run: C1=32, C2=1e-7, eps=0.2, N ~ 1.6e4."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, 40, 44, 28)
    cfg = IntegratorConfig(t_end=cert.t_horizon, dt_max=cert.t_horizon / 50.0)
    result = integrate(ens, cfg, mark_times=(cert.t_horizon,))
    return cert, data, ens, result


@pytest.fixture(scope="module")
def run6():
    """Sharper focusing run (eps=0.05) extended to 100 T for the decay
    tail; the mark at T serves the confinement checks."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.05)
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, 24, 24, 16)
    t_end = 100.0 * cert.t_horizon
    cfg = IntegratorConfig(t_end=t_end, dt_max=t_end / 200.0)
    result = integrate(ens, cfg, mark_times=(cert.t_horizon,))
    return cert, result


@pytest.fixture(scope="module")
def run7():
    """Exploratory fixed-mass run at eps far beyond the admissible bound."""
    cert = design_fixed_mass(c1=1.0, c2=1.0, t_horizon=1.0, eps=0.02, exploratory=True)
    data = InitialData.from_spec(cert.spec)
    ens = sample_ensemble(data, 16, 16, 12)
    cfg = IntegratorConfig(t_end=cert.t_horizon, dt_max=cert.t_horizon / 50.0)
    result = integrate(ens, cfg, mark_times=(cert.t_horizon,))
    return cert, result


@pytest.fixture(scope="module")
def suite_result():
    return run_oracle_suite(n_cases=1000, seed=1234)


# ------------------------------------------------------------- criteria

def test_criterion_01_oracle_matches_closed_form():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        y0 = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        y1 = -float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        ell = float(np.exp(rng.uniform(np.log(1e-4), 0.0))) * y0**2 * y1**2
        t_end = 3.0 * y0 / abs(y1)
        t_eval = np.linspace(0.0, t_end, 20)
        traj = integrate_oracle(y0, y1, ell, P=0.0, t_end=t_end, t_eval=t_eval)
        exact = free_motion_radius_squared(y0, y1, ell, t_eval)
        worst = max(worst, float(np.max(np.abs(traj.y**2 / exact - 1.0))))
    criterion(
        1,
        "P=0 oracle agrees with the closed-form radius over 100 draws",
        worst <= 1e-8,
        f"max rel err {worst:.3e} <= 1e-8 at 20 times each",
    )


def test_criterion_02_turning_bounds_hold_on_random_suite(suite_result):
    r = suite_result
    turning_ok = all(o.ydot_ok and o.y_turn_ok for o in r.outcomes)
    worst_gap = max(o.y_turn - o.y_star for o in r.outcomes)
    criterion(
        2,
        "1000-draw suite: no turning before the bound, radius within y*",
        turning_ok and r.elapsed_seconds < 60.0,
        f"max(y_turn - y_star) = {worst_gap:.3e} <= 1e-9, {r.elapsed_seconds:.1f} s < 60 s",
    )


def test_criterion_03_envelope_bound_holds_on_random_suite(suite_result):
    envelope_ok = all(o.envelope_ok for o in suite_result.outcomes)
    criterion(
        3,
        "same 1000 draws: parabolic envelope dominates y(t)^2 to turning",
        envelope_ok,
        "tolerance 1e-9",
    )


def test_criterion_04_single_shell_saturates_bounds_bitwise():
    m, b = 0.7, 1.3
    ens = Ensemble.single(r=b, w=0.0, ell=1e-4, weight=m)
    idx = SortedMassIndex.from_ensemble(ens)
    lb = confinement_lower_bounds(m, b)
    norms = sup_norms(idx)
    ok = (
        idx.e_sup_exact() == lb.e_lower
        and norms.rho_sup_certified == lb.rho_lower
        and lb.e_lower == m / b**2
        and lb.rho_lower == 3.0 * m / (4.0 * np.pi * b**3)
    )
    criterion(
        4,
        "single shell saturates E = M/B^2 and rho = 3M/(4 pi B^3) bitwise",
        ok,
        f"E = {lb.e_lower!r}, rho = {lb.rho_lower!r}",
    )


def test_criterion_05_desk_scale_focusing_run(run5):
    cert, data, ens, result = run5
    n = len(ens)
    ok_n = 1e4 <= n <= 1e5

    membership = check_membership(data, ens)
    row0 = result.rows[0]
    cap = cert.rho0_sup_bound
    ok_rho0 = (
        membership.passed
        and row0.rho_sup_certified <= cap
        and row0.rho_sup_binned <= cap * (1.0 + RHO_BIN_SLACK)
    )
    ok_e0 = row0.e_sup_exact <= cert.e0_sup_bound

    snap = result.snapshot_at(cert.t_horizon)
    r_max = float(np.max(snap.r))
    ok_radius = r_max <= cert.sup_r_bound * (1.0 + RADIUS_REL_SLACK)

    rho_cert = confinement_lower_bounds(snap.total_mass, r_max).rho_lower
    ok_growth = rho_cert >= cert.c2

    report = verify_focusing_run(result, cert)
    criterion(
        5,
        "desk run (C1=32, C2=1e-7, eps=0.2) meets all certificate claims",
        ok_n and ok_rho0 and ok_e0 and ok_radius and ok_growth and report.passed,
        f"N = {n}, rho0 ok, E0 {row0.e_sup_exact:.4g} <= 32, "
        f"r_max(T) = {r_max:.4g} <= {cert.sup_r_bound:.4g}, "
        f"rho(T) certified {rho_cert:.4g} >= {cert.c2:g}",
    )


def test_criterion_06_sharper_focusing_run(run6):
    cert, result = run6
    snap = result.snapshot_at(cert.t_horizon)
    r_max = float(np.max(snap.r))
    ok_radius = r_max <= cert.sup_r_bound * (1.0 + RADIUS_REL_SLACK)

    rho_start = result.rows[0].rho_sup_certified
    rho_t = confinement_lower_bounds(snap.total_mass, r_max).rho_lower
    growth = rho_t / rho_start
    criterion(
        6,
        "eps=0.05 run: radii within 100 eps^2 at T, certified density x10",
        ok_radius and growth >= 10.0,
        f"r_max(T) = {r_max:.4g} <= {cert.sup_r_bound:.4g}, growth {growth:.3g}x",
    )


def test_criterion_07_far_shell_recipe_arithmetic_and_run(run7):
    cert, result = run7
    ok_c0 = cert.c0 == 3.0 + 12.0 * math.sqrt(2.0)
    ok_eps = f"{cert.eps_admissible_max:.6g}" == "0.000202164"

    report = verify_focusing_run(result, cert)
    statuses = {s.name: s.status for s in report.stages}
    ok_stages = (
        statuses["initial-sup-norms"] == "skipped"
        and statuses["total-mass"] == "skipped"
        and statuses["turning-after-T"] == "pass"
        and statuses["confinement-radius"] == "pass"
        and statuses["certified-lower-bounds"] == "pass"
    )
    criterion(
        7,
        "fixed-mass recipe constants exact; exploratory run passes iii-v",
        ok_c0 and ok_eps and ok_stages,
        f"C0 = {cert.c0!r}, eps_max = {cert.eps_admissible_max:.6g}, "
        f"stages {statuses}",
    )


def test_criterion_08_mass_conserved_bitwise(run5, run6, run7):
    worst = 0.0
    count = 0
    for result in (run5[3], run6[1], run7[1]):
        for row in result.rows:
            worst = max(worst, abs(row.mass_error))
            count += 1
    criterion(
        8,
        "mass error is exactly zero on every diagnostics row",
        worst == 0.0,
        f"{count} rows across three runs, max |mass_error| = {worst!r}",
    )


def test_criterion_09_no_turning_before_horizon(run5, run6):
    cert5, _, _, result5 = run5
    cert6, result6 = run6
    ok5 = bool(np.all(result5.turning_time > cert5.t_horizon))
    ok6 = bool(np.all(result6.turning_time > cert6.t_horizon))
    min6 = float(np.min(result6.turning_time))
    criterion(
        9,
        "every shell turns only after the certified horizon in runs 5-6",
        ok5 and ok6,
        f"run 5: none turned by T; run 6: min turning {min6:.6g} > T = {cert6.t_horizon:.6g}",
    )


def test_criterion_10_field_decays_like_inverse_square_time(run6):
    _, result = run6
    slope = decay_slope(result.rows, window_decades=1.0)
    criterion(
        10,
        "post-dispersal field sup decays with log-log slope -2 +/- 0.3",
        -2.3 <= slope <= -1.7,
        f"slope {slope:.4f} over the final decade to 100 T",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    cert_path = tmp_path / "cert.ini"
    rc = cli.main(
        ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", str(cert_path)]
    )
    assert rc == 0
    setup = RunSetup(certificate_path="cert.ini", n_r=40, n_w=44, n_ell=28)
    config_path = save_run_config(setup, tmp_path / "run.ini")

    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    rc1 = cli.main(["run", "--config", str(config_path), "--out", str(out1), "--threads", "1"])
    rc2 = cli.main(["run", "--config", str(config_path), "--out", str(out2), "--threads", "7"])
    assert rc1 == 0 and rc2 == 0

    names = sorted(p.name for p in out1.iterdir())
    same_listing = names == sorted(p.name for p in out2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    criterion(
        11,
        "full rerun with a different --threads value is byte-identical",
        same_listing and mismatch == [] and errors == [],
        f"{len(names)} files compared, {len(match)} equal",
    )
