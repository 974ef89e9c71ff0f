"""Numerical laboratory for the L^2 -> L^6 extension inequality on the
unit circle: the extension operator, the quintic convolution of its
Euler-Lagrange equation, densities of iterated arclength convolutions,
an extremizer search, and finite-resolution regularity experiments.

Conventions fixed once, used everywhere:

* f(theta) = sum c_n e^{i n theta}, coefficients n = -N..N;
* g^(xi) = int e^{-i x xi} g(x) dx, so (sigma)^(xi) = 2 pi J_0(|xi|);
* ||f||_{L^2}^2 = 2 pi sum |c_n|^2;
* the extension exponent is 6 = 2 + 4/d at d = 1 (curve in the plane).
"""

from .errors import (AdmissibilityError, BandwidthError, CacheError,
                     ConfigError, DivergenceError, GridSizeError,
                     NumericalError, PreconditionError, SingularRadiusError,
                     TailDataError)
from .spectral import (TAU, CircleFunction, analyze, conjugate_reflect,
                       constant_function, demodulate, inner_product, l2_norm,
                       modulate, random_function, rotate, synthesize,
                       weighted_norm)
from .bessel import (BesselTensor, RadialGrid, bessel_product_tail,
                     build_tensor, default_grid, enumerate_keys,
                     exp_tail_integral, radial_integrate, six_bessel_integral)
from .extension import (DecayReport, ExtensionField, decay_check, extend,
                        l6_norm, strip_tail)
from .quintic import (BoundRatioReport, RadialDensity, SupBoundReport,
                      auto_density, el_quintic, mu_value,
                      quintic_convolve, quintilinear_bound_ratio,
                      sup_bound_check)
from .variational import (ConstantReport, ELReport, constant_estimate,
                          constant_from_t0, el_residual, lambda0_value,
                          quotient, t0_value, ts_functional)
from .solver import (AscentConfig, AscentResult, PicardReport, ascend,
                     decompose, expansion_residual, linear_part,
                     nonlinear_part, picard_iterate)
from .regularity import (EtaReport, HolderReport, RegularityProfile,
                         SlopeReport, SmoothingReport, SplitReport,
                         calH_estimate, decay_slope, difference_norm,
                         dyadic_ts, eta_optimization, holder_estimate,
                         interpolation_constant, regularity_profile,
                         sharp_flat_split, smoothing_experiment, square_wave,
                         sup_quotient, triangle_wave)

__version__ = "0.1.0"
