"""Grid refinement: the sampled run stands for the certificate's continuum
solution only as far as its values settle when the sampling grid is
refined.

The desk certificate (C1 = 32, C2 = 1e-7, eps = 0.2) is sampled on the
README's 40x44x28 grid and on the grids half and twice as fine per axis,
and each sample is run to T with the run config's defaults.  The observed
order of a value v at T is log2(|v_20 - v_40| / |v_40 - v_80|).
"""

import numpy as np
import pytest

from vpshell import InitialData, design_small_data, integrate, sample_ensemble
from vpshell.reporting import RunSetup

GRIDS = ((20, 22, 14), (40, 44, 28), (80, 88, 56))
# value at T -> the band its observed order must lie in
ORDER_BANDS = {"e_sup_exact": (1.5, 3.0), "r_max": (0.8, 1.2)}


@pytest.fixture(scope="module")
def rows_at_t():
    """The row at T of the desk certificate's run on each of GRIDS."""
    cert = design_small_data(c1=32.0, c2=1e-7, eps=0.2)
    data = InitialData.from_spec(cert.spec)
    rows = []
    for n_r, n_w, n_ell in GRIDS:
        setup = RunSetup(certificate_path="cert.ini", n_r=n_r, n_w=n_w, n_ell=n_ell)
        config, marks = setup.resolve(cert)
        run = integrate(sample_ensemble(data, n_r, n_w, n_ell), config, mark_times=marks)
        assert run.rows[-1].t == cert.t_horizon
        rows.append(run.rows[-1])
    return rows


def _observed_order(values):
    coarse, fine = np.abs(np.diff(values))
    return float(np.log2(coarse / fine))


def test_field_sup_converges_at_second_order(rows_at_t):
    """e_sup_exact moves by 4.4e-5, then by 7.7e-6: order 2.52.  The band
    [1.5, 3.0] holds second order, the midpoint quadrature's, with room for
    the higher-order term that still shows at these grids, and refuses
    first order."""
    values = [row.e_sup_exact for row in rows_at_t]
    assert values[0] < values[1] < values[2]
    lo, hi = ORDER_BANDS["e_sup_exact"]
    assert lo <= _observed_order(values) <= hi


def test_outer_radius_converges_at_first_order(rows_at_t):
    """r_max moves by 2.7e-4, then by 1.4e-4: order 1.000002.  The outermost
    radial midpoint sits half a cell inside the support's edge, so the
    sampled r_max trails the continuum's by O(h).  The band [0.8, 1.2]
    holds first order and refuses second."""
    values = [row.r_max for row in rows_at_t]
    assert values[0] < values[1] < values[2]
    lo, hi = ORDER_BANDS["r_max"]
    assert lo <= _observed_order(values) <= hi
