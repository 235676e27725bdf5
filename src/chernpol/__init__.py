"""Exact computation of Chern classes of spaces of polynomial forms, their
coefficient polynomials in symmetric-function bases, Stirling coefficients
of rising products, and enumerative invariants of Fano schemes and of
varieties of hypersurfaces containing linear subspaces.
"""

from .exactcore import (DuplicateAbscissaError, InconsistentDataError,
                        MultiPoly, NotInvertibleError, OutOfDomainError,
                        TruncationPolicy, UniPoly, interpolate, series_invert)
from .symfunc import (BASES, catalan_triangle, conjugate, convert_expansion,
                      enumerate_partitions, expand_in_basis, syt_count,
                      to_x_expansion)
from .specialization import (M_plain, M_tilde, eulerian_second, faulhaber,
                             simplex_moment, stirling_first, stirling_second)
from .rising import (RisingProductSpec, direct_rising_oracle,
                     leading_coefficient, simple_coefficient,
                     stirling_coefficient, vector_partitions)
from .chern import (ChernPolynomial, chern_direct, chern_interpolated,
                    euler_c2_closed, leading_term, odd_grouped_coefficient)
from .orbits import (enumerate_orbit, orbit_factorization_check, orbit_term,
                     orbit_types)
from .enumgeo import (chern_grassmannian, expected_dimension,
                      fano_chi_lines, fano_degree_lines, grassmann_integral,
                      sigma_degree, sigma_degree_symbolic)

__version__ = "1.0.0"
