"""The mutant kill matrix: one named mutant per row, each an edit to a
written run record or its certificate, a change to the code or a wrong
input the code itself makes, and the check that should catch it.

A record mutant is caught when `vpshell verify` refuses or fails the
edited record or certificate, or the record of a `vpshell run` made
with the changed code: it exits nonzero and, where the row names one,
prints the refusal.  A bound mutant, a weakened bound formula, is
caught when the 1000-case oracle suite finds a violation.  A sample
that is not its data's is caught when check_membership fails it, or
when its runs on the refinement grids do not settle as
test_refinement.py requires.  A run whose settings the code accepts but
whose shells break their own proven bounds is caught when `vpshell
verify` fails it.  A mutant no check catches yet is xfail(strict=True)
with the ROADMAP item that would catch it as its reason, so the change
that kills it must remove the marker.
"""

import contextlib
import dataclasses
import io
import shutil

import numpy as np
import pytest

from vpshell import (
    InitialData,
    check_membership,
    cli,
    design_fixed_mass,
    design_small_data,
    dynamics,
    integrate,
    oracle_suite,
    sample_ensemble,
    turning_point_bound,
)
from vpshell.field import SortedMassIndex
from vpshell.phase_space import REDUCED_MEASURE, Ensemble
from vpshell.reporting import (
    RunSetup,
    load_certificate,
    load_run_data,
    save_certificate,
    save_run_config,
    save_snapshot,
)

from test_refinement import GRIDS, ORDER_BANDS, _observed_order


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The desk certificate run on an 8x8x6 grid; not changed after."""
    ws = tmp_path_factory.mktemp("desk")
    save_run_config(RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6), ws / "run.ini")
    design = ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.2", "--out", str(ws / "cert.ini")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(design) == 0
        assert cli.main(["run", "--config", str(ws / "run.ini"), "--out", str(ws / "run")]) == 0
    return ws


def _edit_snapshot(run_dir, k: int, edit):
    """Rewrite the run's k-th snapshot file as edit(ensemble) returns it."""
    ens = load_run_data(run_dir).snapshots[k][1]
    save_snapshot(edit(ens), sorted(run_dir.glob("snapshot_*.csv"))[k])


def _scale_snapshot_0(run_dir):
    """Snapshot 0 with r x3, w x0.1 and weight x1/2."""
    _edit_snapshot(run_dir, 0, lambda ens: dataclasses.replace(
        ens, r=ens.r * 3.0, w=ens.w * 0.1, weight=ens.weight * 0.5
    ))


def _move_snapshot_0(run_dir):
    """Snapshot 0 with r x3 and w x0.1, its ids, ell and weights kept."""
    _edit_snapshot(run_dir, 0, lambda ens: dataclasses.replace(ens, r=ens.r * 3.0, w=ens.w * 0.1))


def _nudge_one_final_weight(run_dir):
    """The final snapshot's weight x(1 + 1e-15) on one shell, a few ulp."""

    def edit(ens):
        weight = ens.weight.copy()
        weight[0] *= 1.0 + 1e-15
        assert weight[0] != ens.weight[0]
        return dataclasses.replace(ens, weight=weight)

    _edit_snapshot(run_dir, -1, edit)


def _loosen_certificate_bounds(run_dir):
    """The run's certificate with sup_r_bound, rho0_sup_bound and
    e0_sup_bound at 1e9, where its recipe gives 4.0, 0.2387 and 32.0."""
    path = run_dir.parent / "cert.ini"
    loose = dict.fromkeys(("sup_r_bound", "rho0_sup_bound", "e0_sup_bound"), 1e9)
    save_certificate(dataclasses.replace(load_certificate(path), **loose), path)


MUTANTS = [
    pytest.param(
        _scale_snapshot_0, "snapshot_000.csv: column weight differs", id="snapshot-0-scaled",
    ),
    pytest.param(
        _move_snapshot_0, None, id="snapshot-0-moved",
        marks=pytest.mark.xfail(strict=True, reason="item 1"),
    ),
    pytest.param(
        _nudge_one_final_weight, "column weight differs",
        id="final-weight-nudged",
    ),
    pytest.param(
        _loosen_certificate_bounds, "sup_r_bound", id="certificate-bounds-loosened",
    ),
]


@pytest.mark.parametrize("mutate, refusal", MUTANTS)
def test_verify_catches(desk_run, tmp_path, mutate, refusal):
    ws = shutil.copytree(desk_run, tmp_path / "ws")
    mutate(ws / "run")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(ws / "run"), str(ws / "cert.ini")])
    assert code != 0
    if refusal is not None:
        assert code == 2 and refusal in err.getvalue()


def _halve_the_force_mass(monkeypatch):
    """The force ell/r^3 + m_enc/r^2 with m_enc halved."""
    force = dynamics._force
    monkeypatch.setattr(dynamics, "_force", lambda ell_r3, m_enc, r2, out: force(
        ell_r3, 0.5 * m_enc, r2, out
    ))


def _count_own_weight(monkeypatch):
    """interior_mass counting each shell's own weight in full."""
    interior_mass = SortedMassIndex.interior_mass

    def mutant(self, out=None):
        out = interior_mass(self, out)
        out[self.order] += self.weights
        return out

    monkeypatch.setattr(SortedMassIndex, "interior_mass", mutant)


# Neither run's record contradicts itself, so only a replay of the run
# from its record, compared byte for byte, can tell it from the code's.
RUN_MUTANTS = [
    pytest.param(
        _halve_the_force_mass, id="force-mass-halved",
        marks=pytest.mark.xfail(strict=True, reason="item 1"),
    ),
    pytest.param(
        _count_own_weight, id="own-weight-counted",
        marks=pytest.mark.xfail(strict=True, reason="item 1"),
    ),
]


@pytest.mark.parametrize("mutate", RUN_MUTANTS)
def test_verify_catches_a_run_made_by(desk_run, tmp_path, monkeypatch, mutate):
    """`vpshell run` with the mutant in place, on the desk run's
    certificate and run.ini, then `vpshell verify` without it."""
    ws = tmp_path / "ws"
    ws.mkdir()
    for name in ("cert.ini", "run.ini"):
        shutil.copy(desk_run / name, ws / name)
    with monkeypatch.context() as patch:
        mutate(patch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(ws / "run.ini"), "--out", str(ws / "run")]) == 0
    # the mutant is live: the run's final state is not the code's
    final = sorted((ws / "run").glob("snapshot_*.csv"))[-1].name
    assert (ws / "run" / final).read_bytes() != (desk_run / "run" / final).read_bytes()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(ws / "run"), str(ws / "cert.ini")])
    assert code != 0


# (the name oracle_suite calls, what the mutant does to its result)
BOUND_MUTANTS = [
    pytest.param(
        "turning_point_bound", lambda b: dataclasses.replace(b, y_star=b.y_star - 1e-10),
        id="y-star-lowered-1e-10", marks=pytest.mark.xfail(strict=True, reason="item 8"),
    ),
    pytest.param(
        "infall_envelope", lambda env: env - 1e-10,
        id="envelope-lowered-1e-10", marks=pytest.mark.xfail(strict=True, reason="item 8"),
    ),
    pytest.param(
        "turning_point_bound", lambda b: dataclasses.replace(b, y_star=b.y_star * (1.0 - 1e-6)),
        id="y-star-scaled-1-minus-1e-6",
    ),
]


@pytest.mark.parametrize("name, weaken", BOUND_MUTANTS)
def test_oracle_suite_catches(monkeypatch, name, weaken):
    """run_oracle_suite(1000, 1234) with the bound weakened as the row
    says, wherever the suite evaluates it."""
    bound = getattr(oracle_suite, name)
    calls = []

    def mutant(*args):
        calls.append(args)
        return weaken(bound(*args))

    monkeypatch.setattr(oracle_suite, name, mutant)
    result = oracle_suite.run_oracle_suite(1000, 1234)
    assert calls  # the mutant is live
    assert not result.passed


@pytest.mark.xfail(strict=True, reason="item 11")
def test_membership_catches_the_fixed_mass_sample_off_rho0():
    """check_membership on the 16x16x8 sample of the fixed-mass
    certificate C1 = 1, C2 = 1e-2, T = 1 (a0 = 9.8e5, delta_r = 1.0e-9,
    each radial cell about one ulp of a0 wide), whose density per radial
    cell, cell mass over 4 pi r^2 dr, is 1.3-11% below rho0."""
    data = InitialData.from_spec(design_fixed_mass(c1=1.0, c2=1e-2, t_horizon=1.0).spec)
    n_r = 16
    ens = sample_ensemble(data, n_r, 16, 8)
    r_lo, r_hi = data.support_box()[:2]
    radii, cell = np.unique(ens.r, return_inverse=True)
    density = np.bincount(cell, ens.weight) / (4.0 * np.pi * radii**2 * ((r_hi - r_lo) / n_r))
    assert np.min(density / data.rho0(radii)) < 0.9  # the sample is off
    assert not check_membership(data, ens).passed


def _sample_at_radial_quarter_points(data, n_r, n_w, n_ell):
    """sample_ensemble's grid with the radial midpoints moved to the cells'
    quarter points, r_lo + dr (k + 1/4); the w and ell midpoints, the
    weights f0 REDUCED_MEASURE dr dw dl and the dropped zero cells as there."""
    r_lo, r_hi, w_lo, w_hi, ell_hi = data.support_box()
    dr, dw, dl = (r_hi - r_lo) / n_r, (w_hi - w_lo) / n_w, ell_hi / n_ell
    r, w, ell = np.meshgrid(
        r_lo + dr * (np.arange(n_r) + 0.25),
        w_lo + dw * (np.arange(n_w) + 0.5),
        dl * (np.arange(n_ell) + 0.5),
        indexing="ij",
    )
    weight = REDUCED_MEASURE * data.evaluate_reduced(r, w, ell) * dr * dw * dl
    ids = np.flatnonzero(weight > 0.0)
    return Ensemble(
        r=r.ravel()[ids], w=w.ravel()[ids], ell=ell.ravel()[ids],
        weight=weight.ravel()[ids], ids=ids, time=0.0,
    )


@pytest.mark.xfail(strict=True, reason="item 15")
def test_refinement_catches_a_sampler_off_the_radial_midpoints():
    """The desk certificate sampled at the radial quarter points on each of
    test_refinement.py's grids and run to T: e_sup_exact settles at order
    1.926 and r_max at 1.000001, both ascending, inside their bands.
    Moving the w and ell points as well is caught (e_sup_exact order 1.0,
    not ascending)."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    data = InitialData.from_spec(cert.spec)
    rows = []
    for grid in GRIDS:
        config, marks = RunSetup("cert.ini", *grid).resolve(cert)
        ens = _sample_at_radial_quarter_points(data, *grid)
        rows.append(integrate(ens, config, marks).rows[-1])
    settled = []
    for name, (lo, hi) in ORDER_BANDS.items():
        values = [getattr(row, name) for row in rows]
        settled.append(values[0] < values[1] < values[2] and lo <= _observed_order(values) <= hi)
    assert not all(settled)


@pytest.mark.xfail(strict=True, reason="item 2")
def test_verify_catches_a_shell_turning_before_its_bound(tmp_path):
    """The focus certificate C1 = 32, C2 = 1e-7, eps = 0.05 on an 8x8x6
    grid, run to 3T with dt_max = 3T/150 at cfl = 1, which
    IntegratorConfig allows (170 steps).  A shell turns at 0.988 of the
    t0_lower its own turning_point_bound proves, with P the total mass;
    at cfl = 0.2 the least ratio is 1.000069."""
    design = ["design", "--c1", "32", "--c2", "1e-7", "--eps", "0.05", "--out", str(tmp_path / "cert.ini")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(design) == 0
        t = load_certificate(tmp_path / "cert.ini").t_horizon
        setup = RunSetup(certificate_path="cert.ini", n_r=8, n_w=8, n_ell=6,
                         t_end=3.0 * t, dt_max=3.0 * t / 150.0, cfl=1.0)
        save_run_config(setup, tmp_path / "run.ini")
        assert cli.main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "run")]) == 0
    run = load_run_data(tmp_path / "run")
    start = run.snapshots[0][1]
    bound = turning_point_bound(start.ell, start.total_mass, start.r, start.w)
    assert np.min(run.turning_time / bound.t0_lower) < 0.99  # the run is off
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(tmp_path / "run"), str(tmp_path / "cert.ini")])
    assert code == 1
