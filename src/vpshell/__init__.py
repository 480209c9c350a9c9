"""Spherical-shell simulator and verification harness for transient
focusing in a repulsive mean field.

A thin shell of nearly radially infalling particles is discretized into
weighted characteristics (r, w, ell), integrated self-consistently
against its own enclosed-mass field, and checked against closed-form
bounds: a turning-point bound, a parabolic infall envelope, and
confinement lower bounds on the density and field sup norms.  Two
parameter recipes produce certificates of predicted behavior that a
completed run can be verified against, stage by stage.

Serialization and the command-line front end live in vpshell.reporting
and vpshell.cli.
"""

__version__ = "0.1.0"

from .bounds import (
    SupNormBound,
    TurningBound,
    confinement_lower_bounds,
    infall_envelope,
    turning_point_bound,
)
from .design import (
    BoundsCertificate,
    InadmissibleParameterError,
    RefusalError,
    check_membership,
    decay_slope,
    design_fixed_mass,
    design_small_data,
    verify_focusing_run,
)
from .dynamics import (
    IntegratorConfig,
    OracleError,
    PiecewiseConstantProfile,
    StepBudgetError,
    StiffnessError,
    accel,
    free_motion_radius_squared,
    integrate,
    integrate_oracle,
)
from .field import (
    DensityGrid,
    SortedMassIndex,
    default_grid_edges,
    density_estimate,
    sup_norms,
)
from .initial_data import (
    ClassSpec,
    EmptyEnsembleError,
    InitialData,
    derived_bounds,
    sample_ensemble,
)
from .oracle_suite import draw_cases, run_oracle_suite
from .phase_space import Ensemble
