"""Numerical toolkit for degree-m complex Hessian equations on flat tori.

The package splits into pointwise symmetric-function algebra (``symfunc``),
torus field calculus (``grid``), background data and generators
(``background``), the Newton/continuation solver (``solver``), iteration
lemma numerics (``iteration``), estimate verification experiments
(``verification``), field I/O (``hlf``) and the config-driven command line
(``config``, ``cli``).
"""

from .background import (
    BackgroundData,
    TrigPolynomial,
    gaussian_bump,
    lq_spike,
    manufactured_solution,
)
from .errors import (
    ConeViolationError,
    ConfigError,
    DomainError,
    NonConvergenceError,
    SingularMetricError,
)
from .grid import (
    HermitianField,
    ScalarField,
    TorusGrid,
    complex_gradient,
    complex_hessian,
    complex_hessian_spectral,
    eigen_field,
    entropy_functional,
    integrate,
    lp_norm,
    mollify,
    tree_sum,
)
from .hlf import read_field, write_field
from .iteration import (
    certify_iteration_hypothesis,
    degiorgi_threshold,
    kolodziej_bound,
    synthetic_degiorgi_families,
    synthetic_kolodziej_families,
)
from .solver import (
    ContinuationSchedule,
    SolveReport,
    SolverConfig,
    SolverState,
    compatibility_constant,
    continuation_degenerate,
    decreasing_sequence,
    degenerate_brackets,
    residual,
    solve_nondegenerate,
    stage_masses,
    wedge_integral,
)
from .symfunc import (
    ConeSpec,
    check_garding,
    check_maclaurin,
    cone_margins,
    cone_membership,
    elem_sym,
    elem_sym_minors,
    elem_sym_table,
    generalized_eigenvalues,
    grad_elem_sym,
    hessian_operator_F,
    planes_kernel,
    restricted_esp,
)
from .verification import (
    MonitorReport,
    StabilityRecord,
    ViscosityReport,
    laplacian_monitor,
    stability_experiment,
    stability_floor,
    twin_solve_uniqueness,
    uniqueness_energy,
    viscosity_check,
)

__version__ = "0.1.0"
