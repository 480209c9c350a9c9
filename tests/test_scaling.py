"""Units are powers of two: the field and the step commute with exact
rescaling.

The spherically symmetric system is invariant under r -> lam r and
t -> tau t, with w -> (lam/tau) w, ell -> (lam^4/tau^2) ell and
mass -> (lam^3/tau^2) mass, so a field lam/tau^2 and a density 1/tau^2.
When lam and tau are powers of two, every correctly rounded operation
commutes with the rescaling (barring overflow and subnormals), so a
rescaled input must give the rescaled output bit for bit.  The check
needs no reference solution, and it catches absolute tolerances and
dimensionally inconsistent code.

rho_sup_binned is exempt: its geometric bin edges do not scale.
"""

import dataclasses

import numpy as np
import pytest

from vpshell import (
    Ensemble,
    InitialData,
    IntegratorConfig,
    SortedMassIndex,
    design_small_data,
    integrate,
    sample_ensemble,
    verify_focusing_run,
)

SCALES = [(4.0, 2.0), (2.0, 2.0), (1.0, 2.0), (2.0**10, 2.0**-3), (2.0**-1, 2.0**2)]

# each row field's dimension as exponents (of lam, of tau)
ROW_DIMENSIONS = {
    "t": (0, 1),
    "rho_sup_certified": (0, -2),
    "e_sup_exact": (1, -2),
    "r_min": (1, 0),
    "r_max": (1, 0),
    "mass_error": (3, -2),
    "dt_current": (0, 1),
}
EXEMPT = {"rho_sup_binned"}


def rescaled(ens: Ensemble, lam, tau) -> Ensemble:
    return Ensemble(
        r=ens.r * lam,
        w=ens.w * (lam / tau),
        ell=ens.ell * (lam**4 / tau**2),
        weight=ens.weight * (lam**3 / tau**2),
        ids=ens.ids,
        time=ens.time * tau,
    )


def tie_states():
    """States whose radii tie in groups, in scrambled order: the t = 0
    grid of the desk certificate, and drawn radii from a short list."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    yield sample_ensemble(InitialData.from_spec(cert.spec), 8, 8, 6)
    rng = np.random.default_rng(7)
    n = 500
    for pool in (np.geomspace(0.3, 4.0, 40), np.array([1.0, np.nextafter(1.0, 2.0), 2.5])):
        yield Ensemble(
            r=rng.choice(pool, n),
            w=rng.normal(size=n),
            ell=rng.uniform(0.1, 1.0, n),
            weight=rng.uniform(0.5, 2.0, n) / n,
            ids=rng.permutation(n).astype(np.int64),
        )


@pytest.mark.parametrize("lam, tau", SCALES)
def test_index_queries_commute_with_rescaling(lam, tau):
    for ens in tie_states():
        base = SortedMassIndex.from_ensemble(ens)
        assert base.group_ends is not None
        index = SortedMassIndex.from_ensemble(rescaled(ens, lam, tau))
        assert index.order.tobytes() == base.order.tobytes()
        mass = lam**3 / tau**2
        assert index.interior_mass().tobytes() == (base.interior_mass() * mass).tobytes()
        assert index.e_sup_exact() == base.e_sup_exact() * (lam / tau**2)


def desk_run(ens, cert, tau=1.0):
    """The desk certificate's run to T, as the CLI's defaults set it."""
    t_end = cert.t_horizon * tau
    config = IntegratorConfig(t_end=t_end, dt_max=t_end / 50)
    return integrate(ens, config, mark_times=(t_end,))


def focus_run(ens, cert, tau=1.0):
    """The eps = 0.05 run to 3T with a mark at T, as the focus benchmark."""
    t_end = 3.0 * cert.t_horizon * tau
    config = IntegratorConfig(t_end=t_end, dt_max=t_end / 150)
    return integrate(ens, config, mark_times=(cert.t_horizon * tau,))


RUNS = {
    "desk-8x8x6": (0.2, (8, 8, 6), desk_run),
    "focus-16x16x8": (0.05, (16, 16, 8), focus_run),
}


@pytest.fixture(scope="module")
def base_runs():
    """Each run's certificate, initial state and unscaled result."""
    runs = {}
    for name, (eps, grid, run) in RUNS.items():
        cert = design_small_data(c1=32.0, c2=1e-7, eps=eps)
        ens = sample_ensemble(InitialData.from_spec(cert.spec), *grid)
        runs[name] = (cert, ens, run(ens, cert))
    return runs


@pytest.mark.parametrize("lam, tau", SCALES)
@pytest.mark.parametrize("name", RUNS)
def test_integrate_commutes_with_rescaling(base_runs, name, lam, tau):
    cert, ens, base = base_runs[name]
    result = RUNS[name][2](rescaled(ens, lam, tau), cert, tau)

    assert result.steps == base.steps
    assert len(result.snapshots) == len(base.snapshots)
    for (time, state), (base_time, base_state) in zip(result.snapshots, base.snapshots):
        assert time == base_time * tau
        assert state.r.tobytes() == (base_state.r * lam).tobytes()
        assert state.w.tobytes() == (base_state.w * (lam / tau)).tobytes()
    assert result.turning_time.tobytes() == (base.turning_time * tau).tobytes()
    assert result.r_min_shell.tobytes() == (base.r_min_shell * lam).tobytes()
    assert result.t_at_r_min.tobytes() == (base.t_at_r_min * tau).tobytes()

    fields = {f.name for f in dataclasses.fields(base.rows[0])}
    assert fields == set(ROW_DIMENSIONS) | EXEMPT
    for field, (p, q) in ROW_DIMENSIONS.items():
        got = np.array([getattr(row, field) for row in result.rows])
        want = np.array([getattr(row, field) for row in base.rows]) * (lam**p * tau**q)
        assert got.tobytes() == want.tobytes(), field


@pytest.mark.parametrize("tau", [1.0, 2.0**-30, 2.0**-40])
def test_verify_commutes_with_rescaling(base_runs, tau):
    """Every stage's status and witness at tau equal those at tau = 1.
    The certificate is exploratory, as stages (i) and (ii) read the
    spec, which does not scale; sup_r_bound = 0.9 lies between the
    largest radius at T (0.807) and at t = 0 (1.007).  At tau = 2**-40,
    T = 7.3e-15 is an exact key: the state at T, not the initial state
    a few times 1e-15 away."""
    cert, ens, base = base_runs["desk-8x8x6"]

    def judged(result, tau):
        scaled = dataclasses.replace(
            cert,
            exploratory=True,
            t_horizon=cert.t_horizon * tau,
            sup_r_bound=0.9,
            rhot_lower=cert.rhot_lower / tau**2,
            et_lower=cert.et_lower / tau**2,
        )
        report = verify_focusing_run(result, scaled)
        return [(s.name, s.status, s.witness_id) for s in report.stages]

    result = desk_run(rescaled(ens, 1.0, tau), cert, tau)
    assert result.snapshot_at(cert.t_horizon * tau) is result.final
    assert judged(result, tau) == judged(base, 1.0)
