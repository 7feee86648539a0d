"""Determinantal Coulomb gases on a hard-wall ellipse."""

from .errors import (DomainError, OutOfRangeError, SingularPointError,
                     TailDivergenceError)
from .geometry import (EllipseGeometry, GasFamily, PolyFamily, PolyKind,
                       bulk_domain_contains, contains, edge_domain_contains,
                       ellipse_deficit, joukowsky, joukowsky_inverse, log_weight,
                       log_weight_values, mu, one_minus_mu, weight, weight_values)
from .polynomials import (ScaledValue, chebyshev_t, chebyshev_u, chebyshev_v,
                          gegenbauer, jacobi, log_squared_norms, monic_value,
                          squared_norm)
from .quadrature import (HALF_LINE, UNIT_INTERVAL, QuadratureSpec, ellipse_rule,
                         integrate_c, integrate_ellipse, rule_for_gas)
from .kernels_finite import (FiniteKernel, kernel_elliptic_ginibre, kernel_eval,
                             kernel_truncated, kernel_truncated_edge,
                             kernel_truncated_limit)
from .kernels_limit import (LimitKernelSpec, LimitKind, bessel_kernel,
                            bulk_from_edge_check, bulk_strong, bulk_weak,
                            edge_strong, edge_weak, edge_weak_minus_cosine,
                            edge_weak_minus_sine, ginibre_kernel, global_kernel,
                            global_kernel_t,
                            global_kernel_u, global_kernel_v, global_rot_t,
                            global_rot_u, global_rot_v, make_kernel, sine_kernel)
from .correlations import (DensityGrid, GridSpec, correlation_k, density_grid,
                           log_partition)
from .sampler import (ChainSettings, PRNG_ALGORITHM, ParticleConfiguration,
                      density_chi_square, empirical_density,
                      integrated_autocorrelation, log_density, metropolis_accept,
                      run_chain)
from .specialfns import (BesselOrder, W_MAX, bessel_i, bessel_j, ln_gamma,
                         log_bessel_i, log_i_ratio)

__version__ = "0.1.0"
