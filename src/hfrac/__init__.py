"""Numerical toolkit for fractional sublaplacians on the Heisenberg group.

Spectral calculus on the (k, lambda) Laguerre lattice, the pure (L^s) and
conformally invariant (L_s) fractional powers, extension problems and their
Dirichlet-to-Neumann traces, singular-integral quadrature and Littlewood-Paley
square functions.  Verification suites check Plancherel, the pointwise
representation of L_s, the Dirichlet-to-Neumann traces, the extension PDE
residuals and the pointwise bound of D_s u by g*(L^s u), each as a report of
numbers with tolerances.  No commutator or L^p estimate is formed yet.
"""

from .group import (
    HeisenbergPoint,
    GridSpec,
    GridFunction,
    TestFunctionId,
    group_mul,
    group_inv,
    koranyi_norm,
    dilate,
    apply_vector_field,
    sublaplacian_grid,
    integrate,
    make_test_function,
    left_translate,
)
from .lagspec import (
    LambdaGrid,
    AnalysisQuadrature,
    PolyradialSpectrum,
    analyze_polyradial,
    synthesize,
    synthesize_at,
    plancherel_check,
)

__version__ = "0.1.0"
