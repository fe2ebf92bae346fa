"""Analysis toolkit for linear tensor-product problems on RKHS.

Univariate eigenpairs (analytic rules plus a quadrature oracle), exact
information-complexity counting for arbitrary linear information,
tractability classification, and exact minimal standard-information errors
on finite-dimensional models.
"""

from .complexity import (ComplexityQuery, ComplexityResult, TractabilityReport,
                         brute_force_count, check_goodcase_sobolev_min,
                         classify, count_info_complexity_all, en_all,
                         estimate_decay, qpt_exponent)
from .eigensolve import family_eigenpair, family_eigenpairs, family_eigenvalues
from .errors import (DomainError, NumericError, ParameterError,
                     ResourceLimitError, TruncationError)
from .nystrom import (QuadratureGrid, RefinedSpectrum, midpoint_grid,
                      nystrom_solver, nystrom_spectrum, richardson_refine)
from .reduction import (DiscreteProblem, Functional, build_Ig,
                        cube_mean_functional, fixed_info_radius, load_problem,
                        minimal_error_std, piecewise_constant_instance,
                        random_problem, random_problem_with_multiplicity,
                        top_eigenpair, verify_domination,
                        verify_e0_characterization)
from .spectra import (REL_TIE, Eigenpair, EigenSequence, KernelSpec,
                      gram_matrix, kernel_eval)

__version__ = "0.1.0"
