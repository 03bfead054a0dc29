"""Counterexamples to cap-based uniformity tests on spheres, with the
discrepancy machinery to verify both halves of the claim numerically."""

from .cap_transform import (
    funk_hecke_lambda,
    odd_mean_zero_check,
    weight_mass,
)
from .densities import (
    Driver,
    PlanarRationalDensity,
    ZonalDensity,
    generate_qud,
    marginal_cdf,
    planar_arc_probability,
    positivity_margin,
    zonal_cap_probability,
)
from .discrepancy import (
    DiscrepancyReport,
    TelescopeResult,
    arc_discrepancy_fixed_length,
    cap_discrepancy_fixed_height,
    circle_discrepancy,
    telescoping_check,
)
from .orthopoly import (
    FreakHeight,
    FreakHeights,
    freak_heights,
    legendre_eval,
    legendre_roots,
)
from .sphere import (
    Cap,
    PointSet,
    Provenance,
    cap_measure,
    fibonacci_sphere,
    generate_uniform,
    load_points,
    radical_inverse,
    save_points,
    unit_vector,
)

__version__ = "0.1.0"
