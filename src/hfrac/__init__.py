"""Numerical toolkit for fractional sublaplacians on the Heisenberg group.

Spectral calculus on the (k, lambda) Laguerre lattice, the pure (L^s) and
conformally invariant (L_s) fractional powers, extension problems and their
Dirichlet-to-Neumann traces, Littlewood-Paley square functions, and a
verification harness for the commutator and square-function estimates.
"""

from .group import (
    GroupContext,
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
    CentralSliceField,
    central_transform,
    inverse_central_transform,
    twisted_convolve,
    analyze_polyradial,
    synthesize,
    synthesize_at,
    group_convolve,
    plancherel_check,
)

__version__ = "0.1.0"
