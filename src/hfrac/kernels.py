"""Conformal kernel, extension problems and their Dirichlet-to-Neumann traces.

The explicit kernel phi_{s,rho}(z,t) = ((rho^2+|z|^2)^2 + 16 t^2)^{-(n+1+s)/2}
generates the conformal Poisson operator w = C(n,s) rho^{2s} f * phi_{s,rho}.
Its Laguerre coefficients factor over dilation,

    c_k(phi_{s,rho})(lam) = rho^{-2s} c_k(phi_{s,1})(rho^2 lam),

and the convolution is a plain coefficient product.  So a whole rho-ladder
of kernels is one analysis of phi_{s,1} on the dilated lattices (the v-rule's
x-nodes do not depend on lam, so the identity holds for the discrete
coefficients too), and each level is one synthesis.

The non-conformal extension uses the Macdonald multiplier, the operators
kind macdonald((s, rho)):
theta_s(rho, mu) = (2^{1-s}/Gamma(s)) (rho sqrt(mu))^s K_s(rho sqrt(mu)).
It solves U'' + (1-2s)/rho U' = mu U with U(0) = 1 and decay at infinity,
collapses to exp(-rho sqrt(mu)) at s = 1/2, and its rho -> 0 Neumann trace is
exactly 2^{1-2s} Gamma(1-s)/Gamma(s) mu^s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, kv

from .group import (
    GridFunction,
    GridSpec,
    HeisenbergPoint,
    TestFunctionId,
    _conformal_kernel_profiles,
    _sublaplacian_parts,
    make_test_function,
)
from .lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    analyze_polyradial,
    synthesize,
    synthesize_at,
    synthesize_batch,
)
from .operators import SpectralMultiplier, apply_operator
from .report import VerificationReport
from .singular import SIGMA_GAUGE, SingularQuadrature, ir_values

__all__ = [
    "KernelConstants",
    "ExtensionField",
    "phi_kernel",
    "constants",
    "kernel_spectrum",
    "conformal_poisson",
    "conformal_extension",
    "dirichlet_to_neumann_conformal",
    "frac_conf_pointwise",
    "nonconformal_poisson",
    "nonconformal_extension",
    "conformal_pde_residual",
    "macdonald_check_integral",
    "kernel_mass",
    "default_rho_ladder",
    "LADDER_DELTA",
]


# ---------------------------------------------------------------------------
# kernel and constants
# ---------------------------------------------------------------------------

def phi_kernel(s: float, rho: float, p: HeisenbergPoint) -> float:
    """Pointwise kernel value at the point p."""
    if s <= 0 or rho <= 0:
        raise ValueError("phi_kernel requires s > 0 and rho > 0")
    return _conformal_kernel_profiles(s, rho, p.n)[0](p.z_abs_sq, p.t)


@dataclass(frozen=True)
class KernelConstants:
    C: float      # normalization of the Poisson kernel
    b: float      # constant of the pointwise difference representation
    dtn: float    # Dirichlet-to-Neumann constant 2^{1-2s} G(1-s)/G(s)
    n: int
    s: float


def constants(n: int, s: float) -> KernelConstants:
    """C(n,s), b(n,s) and the D-to-N constant, via log-gamma.

    C(n,s) = 4 pi^{-(n+1/2)} G(n+s) G((n+1+s)/2) / (G(s) G((n+s)/2)) is defined
    for s > 0; b and dtn additionally need 0 < s < 1/2 (|G(-s)| = G(1-s)/s).
    """
    if s <= 0:
        raise ValueError("constants require s > 0")
    logC = (math.log(4.0) - (n + 0.5) * math.log(math.pi)
            + gammaln(n + s) + gammaln((n + 1 + s) / 2.0)
            - gammaln(s) - gammaln((n + s) / 2.0))
    C = math.exp(logC)
    if not (0 < s < 0.5):
        # b, dtn only make sense below 1/2; C alone is still useful (and the
        # closed-form sanity value C(1,1) = 2/pi uses s = 1)
        return KernelConstants(C=C, b=math.nan, dtn=math.nan, n=n, s=s)
    log_abs_gamma_ms = gammaln(1.0 - s) - math.log(s)      # |Gamma(-s)|
    logb = ((1 + s) * math.log(4.0) - (n + 0.5) * math.log(math.pi)
            + gammaln(n + s) + gammaln((n + 1 + s) / 2.0)
            - gammaln((n + s) / 2.0) - log_abs_gamma_ms)
    dtn = 2.0 ** (1.0 - 2.0 * s) * math.exp(gammaln(1.0 - s) - gammaln(s))
    return KernelConstants(C=C, b=math.exp(logb), dtn=dtn, n=n, s=s)


def kernel_mass(n: int, s: float, rho: float, R_box: Optional[float] = None) -> tuple:
    """(total mass of phi_{s,rho}, mass outside the Koranyi ball of radius R_box).

    The total is the exact closed form 1/(C(n,s) rho^{2s}); the outer part uses
    the tail bound phi <= |y|^{-Q-2s} with the H^1 gauge-sphere constant, so it
    exists for n = 1 only.
    """
    kc = constants(n, s)
    total = 1.0 / (kc.C * rho ** (2 * s))
    if R_box is None:
        return total, 0.0
    if n != 1:
        raise NotImplementedError("the kernel tail bound uses the H^1 gauge-sphere "
                                  "constant SIGMA_GAUGE: n = 1 only")
    tail = SIGMA_GAUGE * R_box ** (-2 * s) / (2 * s)
    return total, tail


# ---------------------------------------------------------------------------
# kernel spectra and the conformal Poisson operator
# ---------------------------------------------------------------------------

def _dilated_lattice(grid: LambdaGrid, radii: np.ndarray) -> LambdaGrid:
    """The lattice of phi_{s,1} that carries the rows of every phi_{s,rho_j}.

    Row i of phi_{s,rho_j} is rho_j^{-2s} times the row of phi_{s,1} at
    rho_j^2 lam_i, truncated at k_caps[i].  The lattice has the nodes
    +-rho_j^2 lam_i, weights rho_j^2 w_i and caps k_caps[i]; nodes that
    coincide exactly are merged and keep the larger cap.
    """
    half = grid.M // 2
    r2 = radii[:, None] ** 2
    pos, inv = np.unique((r2 * grid.nodes[half:]).ravel(), return_inverse=True)
    caps = np.zeros(pos.size, dtype=int)
    np.maximum.at(caps, inv, np.tile(grid.k_caps[half:], len(radii)))
    wts = np.empty(pos.size)
    wts[inv] = (r2 * grid.weights[half:]).ravel()
    return LambdaGrid.mirrored(pos, wts, caps, grid.K)


def kernel_spectrum(s: float, rho: float | np.ndarray, grid: LambdaGrid,
                    quad: AnalysisQuadrature, spec: GridSpec) -> PolyradialSpectrum | list:
    """Laguerre coefficients of phi_{s,rho} on the lattice.

    rho is a radius, which returns one spectrum, or a 1-D array of radii,
    which returns a list.  A ladder is one heavy-tail analysis of phi_{s,1} on
    the dilated lattices of its radii: on the v-rule the x-nodes do not depend
    on lam, so c_k(phi_{s,rho})(lam) = rho^{-2s} c_k(phi_{s,1})(rho^2 lam)
    holds for the discrete coefficients too, and the unit kernel is sampled,
    and the Laguerre recurrence run, once per call.
    """
    radii = np.atleast_1d(np.asarray(rho, dtype=float))
    if radii.ndim != 1 or np.any(radii <= 0):
        raise ValueError("kernel radii must be positive, one radius or a 1-D array")
    lattice = _dilated_lattice(grid, radii)
    unit = make_test_function(TestFunctionId("conformal-kernel", (s, 1.0)), spec)
    S1 = analyze_polyradial(unit, lattice, quad)
    out = []
    for r in radii.tolist():
        scale = r ** (-2.0 * s)
        rows = np.searchsorted(lattice.nodes, r * r * grid.nodes)
        coeffs = [scale * S1.coeffs[j][:cap] for j, cap in zip(rows, grid.k_caps)]
        out.append(PolyradialSpectrum(grid=grid, n=spec.n, coeffs=coeffs,
                                      name=TestFunctionId("conformal-kernel", (s, r)).label()))
    return out if np.ndim(rho) else out[0]


def _poisson_level(Sf: PolyradialSpectrum, Sk: PolyradialSpectrum, s: float,
                   rho: float) -> PolyradialSpectrum:
    """C(n,s) rho^{2s} f * phi_{s,rho} on the lattice, given phi_{s,rho}'s spectrum."""
    out = Sf.convolve(Sk) * (constants(Sf.n, s).C * rho ** (2 * s))
    out.name = f"P^conf_{rho:g}[{Sf.name}]"
    return out


def conformal_poisson(f: GridFunction, s: float, rho: float,
                      grid: Optional[LambdaGrid] = None,
                      quad: Optional[AnalysisQuadrature] = None) -> GridFunction:
    """w(. , rho) = C(n,s) rho^{2s} (f * phi_{s,rho}) through the Laguerre route.

    Warns (UserWarning) when the kernel's box-tail mass exceeds 1e-3 of the
    total: the convolution itself integrates the kernel on an extended radial
    domain, so the warning flags the sampled-kernel picture, not this result.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    grid = grid or LambdaGrid.build()
    quad = quad or AnalysisQuadrature.build(f.spec)
    Sf = analyze_polyradial(f, grid, quad)
    total, tail = kernel_mass(f.spec.n, s, rho, f.spec.R_z)
    if tail / total > 1e-3:
        warnings.warn(f"kernel tail outside the box carries {tail/total:.2e} of its mass "
                      "(analysis domain extends beyond the box)", stacklevel=2)
    return synthesize(_poisson_level(Sf, kernel_spectrum(s, rho, grid, quad, f.spec), s, rho),
                      f.spec)


# ---------------------------------------------------------------------------
# extension fields
# ---------------------------------------------------------------------------

def default_rho_ladder() -> np.ndarray:
    """rho_j = 2^{1-j}, j = 0..8."""
    return 2.0 * 2.0 ** (-np.arange(9, dtype=float))


LADDER_DELTA = 0.05     # log-offset of the companions rho_j e^{-delta}, rho_j e^{+delta}


def _ladder_radii(rho_levels) -> list:
    """Radii to synthesize: each rho_j, then its e^{-delta} and e^{+delta} companions."""
    if np.any(np.diff(rho_levels) >= 0):
        raise ValueError("rho levels must be strictly decreasing")
    e = (1.0, math.exp(-LADDER_DELTA), math.exp(LADDER_DELTA))
    return [rho * f for rho in rho_levels for f in e]


@dataclass
class ExtensionField:
    """Solution of an extension problem on a rho-ladder, at the _ladder_radii.

    fields[3j] is U(., rho_j); fields[3j+1] and fields[3j+2] are U at
    rho_j e^{-delta} and rho_j e^{+delta}, which support rho-derivatives
    without touching the ladder spacing.
    """

    rho_levels: np.ndarray
    fields: list
    provenance: str
    s: float

    def __post_init__(self):
        if len(self.fields) != len(_ladder_radii(self.rho_levels)):
            raise ValueError("an extension field holds U and its two companions at every level")

    @property
    def levels(self) -> list:
        """U(., rho_j) for every level j."""
        return self.fields[::3]

    def rho_derivatives(self, j: int, box: tuple):
        """(d/drho U, d2/drho2 U) at level j from the e^{±delta} companions, on
        box: an index of the grid such as interior_window() or full_window().

        The differences are pointwise in the grid, so only box is read and
        every value is the whole-grid value bit for bit."""
        u0, lo, hi = (g.values[box] for g in self.fields[3 * j:3 * j + 3])
        rho = self.rho_levels[j]
        hp = rho * (math.exp(LADDER_DELTA) - 1.0)
        hm = rho * (1.0 - math.exp(-LADDER_DELTA))
        d1 = (hm * hm * hi + (hp * hp - hm * hm) * u0 - hp * hp * lo) / (hp * hm * (hp + hm))
        return d1, _second_difference(lo, u0, hi, hm, hp)


def _second_difference(lo, u0, hi, hm, hp):
    """Three-point second derivative on the nodes x - hm, x, x + hp."""
    return 2.0 * (hm * hi - (hp + hm) * u0 + hp * lo) / (hp * hm * (hp + hm))


def conformal_extension(f: GridFunction, s: float, rho_levels=None,
                        grid: Optional[LambdaGrid] = None,
                        quad: Optional[AnalysisQuadrature] = None) -> ExtensionField:
    """Kernel-route extension: every level is a conformal Poisson convolution.

    The kernel spectra of every level and companion come from one ladder call
    of kernel_spectrum, so one analysis of phi_{s,1} serves them all.
    """
    grid = grid or LambdaGrid.build()
    quad = quad or AnalysisQuadrature.build(f.spec)
    rho_levels = default_rho_ladder() if rho_levels is None else np.asarray(rho_levels, float)
    radii = _ladder_radii(rho_levels)
    Sf = analyze_polyradial(f, grid, quad)
    Sks = kernel_spectrum(s, np.array(radii), grid, quad, f.spec)
    fields = [synthesize(_poisson_level(Sf, Sk, s, r), f.spec) for r, Sk in zip(radii, Sks)]
    return ExtensionField(rho_levels, fields, f"conformal(s={s:g})", s)


def macdonald_check_integral(orders, args) -> float:
    """Largest relative deviation of K_nu against its integral representation.

    K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt, evaluated adaptively;
    raises if any spot point misses 1e-10.
    """
    from scipy.integrate import quad as spquad
    worst = 0.0
    for nu in orders:
        for x in args:
            val, _ = spquad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                            0, 40.0, limit=400)
            ref = float(kv(nu, x))
            rel = abs(val - ref) / abs(ref)
            worst = max(worst, rel)
            if rel > 1e-10:
                raise ValueError(f"Macdonald evaluation off by {rel:.2e} at nu={nu}, x={x}")
    return worst


def nonconformal_poisson(f: GridFunction, rho: float, route: str = "spectral",
                         grid: Optional[LambdaGrid] = None,
                         quad: Optional[AnalysisQuadrature] = None) -> GridFunction:
    """e^{-rho L^{1/2}} f, by the spectral symbol or by subordination quadrature.

    route 'spectral' applies the kind poisson_nonconf, route 'subordination'
    the kind poisson_subordination, an independent route through heat symbols
    only (see the operators docstring).
    """
    kinds = {"spectral": "poisson_nonconf", "subordination": "poisson_subordination"}
    if route not in kinds:
        raise ValueError(f"unknown route {route!r}")
    m = SpectralMultiplier(kinds[route], rho, n=f.spec.n)
    grid = grid or LambdaGrid.build()
    return synthesize(apply_operator(analyze_polyradial(f, grid, quad), m).spectrum, f.spec)


def nonconformal_extension(f: GridFunction, s: float, rho_levels=None,
                           grid: Optional[LambdaGrid] = None,
                           quad: Optional[AnalysisQuadrature] = None) -> ExtensionField:
    """Per-mode Macdonald solution of the pure extension problem.

    Every level and its e^{+-delta} companions are Macdonald multipliers of one
    spectrum, so the whole ladder is synthesized in one batch: the Laguerre
    recurrence runs once per lambda node, not once per level and companion.
    """
    if not (0 < s < 1):
        raise ValueError("nonconformal extension requires s in (0, 1)")
    grid = grid or LambdaGrid.build()
    rho_levels = default_rho_ladder() if rho_levels is None else np.asarray(rho_levels, float)
    radii = _ladder_radii(rho_levels)
    Sf = analyze_polyradial(f, grid, quad)
    fields = synthesize_batch(Sf, f.spec, [SpectralMultiplier("macdonald", (s, r), n=f.spec.n)
                                           for r in radii])
    if not all(np.all(np.isfinite(g.values)) for g in fields):
        raise ValueError("Macdonald evaluation failed on the lattice")
    return ExtensionField(rho_levels, fields, f"nonconformal(s={s:g})", s)


# ---------------------------------------------------------------------------
# verification operations
# ---------------------------------------------------------------------------

def dirichlet_to_neumann_conformal(f: GridFunction, s: float,
                                   grid: Optional[LambdaGrid] = None,
                                   quad: Optional[AnalysisQuadrature] = None) -> VerificationReport:
    """Kernel-route Neumann trace against dtn(s) . spectral L_s f.

    N_j = -rho_j^{1-2s} d/drho w(., rho_j) on default_rho_ladder() (centered
    differences in log rho on tight companions), Richardson-extrapolated in the
    known secondary power rho^{2-2s}, compared in relative L2 on the interior
    window.  The target, the traces and the extrapolation are formed on that
    window only.
    """
    if not (0 < s < 0.5):
        raise ValueError("the D-to-N trace requires s in (0, 1/2)")
    if not f.polyradial:
        raise ValueError("the spectral reference needs a polyradial input")
    rep = VerificationReport(suite="kernels-dtn", inputs={"f": f.name, "s": s})
    grid = grid or LambdaGrid.build()
    quad = quad or AnalysisQuadrature.build(f.spec)
    rho_levels = default_rho_ladder()
    fld = conformal_extension(f, s, rho_levels, grid, quad)
    kc = constants(f.spec.n, s)
    Sf = analyze_polyradial(f, grid, quad)
    ref = synthesize(apply_operator(Sf, SpectralMultiplier("frac_conf", s, n=f.spec.n)).spectrum,
                     f.spec)
    win = f.spec.interior_window()
    target = kc.dtn * ref.values[win]
    scale = np.linalg.norm(target)
    traces = []
    errs = []
    for j, rho in enumerate(rho_levels):
        d1, _ = fld.rho_derivatives(j, win)
        Nj = -rho ** (1.0 - 2.0 * s) * d1
        traces.append(Nj)
        err = np.linalg.norm(Nj - target) / scale
        errs.append(err)
        rep.add(f"ladder_err_rho={rho:g}", err, route="kernel")
    p = 2.0 - 2.0 * s
    r_ratio = (rho_levels[-2] / rho_levels[-1]) ** p
    extrap = (r_ratio * traces[-1] - traces[-2]) / (r_ratio - 1.0)
    final = np.linalg.norm(extrap - target) / scale
    rep.add("richardson_err", final, route="kernel", tolerance=5e-2)
    mono = all(errs[i] > errs[i + 1] for i in range(len(errs) - 3, len(errs) - 1))
    rep.require("monotone_last_3", mono)
    rep.add("dtn_constant", kc.dtn, route="exact")
    rep.quadrature = {"levels": len(rho_levels), "delta": LADDER_DELTA}
    return rep.finish()


def frac_conf_pointwise(f: GridFunction, s: float, samples,
                        grid: Optional[LambdaGrid] = None,
                        quad: Optional[AnalysisQuadrature] = None,
                        squad: Optional[SingularQuadrature] = None):
    """(values, report): b(n,s)-weighted difference quadrature vs spectral L_s.

    The singular route never touches the Laguerre machinery; agreement at the
    samples exercises b(n,s), the gauge kernel and the spectral calculus at
    once.
    """
    if not (0 < s < 0.5):
        raise ValueError("the pointwise representation requires s in (0, 1/2)")
    spec = f.spec
    spec.require_interior(samples)
    rep = VerificationReport(suite="pointwise-ir", inputs={"f": f.name, "s": s,
                                                           "samples": len(samples)})
    grid = grid or LambdaGrid.build()
    squad = squad or SingularQuadrature.build()
    kc = constants(spec.n, s)
    vals = kc.b * ir_values(f, s, samples, squad)
    Sf = analyze_polyradial(f, grid, quad)
    S = apply_operator(Sf, SpectralMultiplier("frac_conf", s, n=spec.n)).spectrum
    u_s = np.array([x.z_abs_sq for x in samples])
    t_s = np.array([x.t for x in samples])
    ref = np.real(synthesize_at(S, u_s, t_s))
    scale = np.max(np.abs(ref))
    dev = np.max(np.abs(vals - ref)) / scale
    rep.add("max_rel_deviation", dev, route="quadrature/spectral", tolerance=5e-2)
    rep.add("reference_scale", scale, route="spectral")
    return vals, rep.finish()


def _level_residual(fld: ExtensionField, j: int, s: float, with_tt: bool,
                    ablate_tt: bool) -> float:
    """Relative residual at level j on the interior window.

    Every array is the window's: the rho-derivatives read the window, the
    stencils the window widened by their half-width."""
    rho = fld.rho_levels[j]
    w = fld.levels[j]
    win = w.spec.interior_window()
    d1, d2 = fld.rho_derivatives(j, win)
    Lw, tt = _sublaplacian_parts(w, 6, win)
    drho = (1.0 - 2.0 * s) / rho * d1
    res = d2 + drho
    res -= Lw
    scale = np.abs(d2)
    scale += np.abs(drho)
    scale += np.abs(Lw)
    if with_tt:
        tt *= 0.25 * rho * rho
        if not ablate_tt:
            res += tt
        scale += np.abs(tt)
    return np.linalg.norm(res) / np.linalg.norm(scale)


def _residual_report(rep: VerificationReport, fld: ExtensionField, s: float, levels,
                     route: str, tolerance, with_tt: bool, ablate_tt: bool = False):
    """Per-level interior residual of d_rho^2 + (1-2s)/rho d_rho [+ (rho^2/4) d_tt] - L.

    Each level is computed on the interior window alone (_level_residual): the
    rho-derivatives there, the spatial parts by sixth-order stencils on the
    window widened by their half-width; the d_tt term reuses the d_tt pass of
    L.  ablate_tt drops the d_tt term from the residual, not from the
    scale.  A selection of no level raises ValueError: its maximum would be
    an empty 0 that passes."""
    idx = levels if levels is not None else [
        j for j, r in enumerate(fld.rho_levels) if 0.12 <= r <= 2.1]
    if not idx:
        raise ValueError("the residual selects no ladder level (by default those with "
                         "0.12 <= rho <= 2.1)")
    worst = 0.0
    for j in idx:
        rel = _level_residual(fld, j, s, with_tt, ablate_tt)
        rep.add(f"residual_rho={fld.rho_levels[j]:g}", rel, route=route, tolerance=tolerance)
        worst = max(worst, rel)
    rep.add("residual_max", worst, route=route, tolerance=tolerance)
    return rep.finish()


def conformal_pde_residual(fld: ExtensionField, s: float,
                           ablate_tt: bool = False,
                           levels: Optional[list] = None) -> VerificationReport:
    """Interior residual of the conformal extension equation.

    Applies d_rho^2 + (1-2s)/rho d_rho + (rho^2/4) d_tt - L to the kernel-route
    levels on the interior window; rho-derivatives come from the companions,
    the spatial parts from grid stencils on the window widened by their
    half-width.  ablate_tt drops the (rho^2/4) d_tt term, which must inflate
    the residual by an order of magnitude at rho ~ 2.
    """
    rep = VerificationReport(suite="conformal-residual",
                             inputs={"s": s, "provenance": fld.provenance,
                                     "ablate_tt": ablate_tt})
    if len(fld.rho_levels) < 5:
        raise ValueError("need at least 5 rho levels")
    return _residual_report(rep, fld, s, levels, "kernel/grid",
                            None if ablate_tt else 5e-3, with_tt=True, ablate_tt=ablate_tt)


def nonconformal_pde_residual(fld: ExtensionField) -> VerificationReport:
    """Interior residual of d_rho^2 + (1-2s)/rho d_rho - L on a Macdonald field."""
    rep = VerificationReport(suite="nonconformal-residual",
                             inputs={"s": fld.s, "provenance": fld.provenance})
    return _residual_report(rep, fld, fld.s, None, "spectral/grid", 1e-3, with_tt=False)


def nonconformal_trace_fit(f: GridFunction, s: float,
                           grid: Optional[LambdaGrid] = None,
                           quad: Optional[AnalysisQuadrature] = None) -> VerificationReport:
    """Fit of the proportionality -rho^{1-2s} d_rho U -> c_hat . L^s f.

    The fit reads the two smallest radii of default_rho_ladder(), so only
    those two levels and their companions are synthesized.  The constant is
    reported, not asserted; it lands on the same 2^{1-2s} G(1-s)/G(s) as the
    conformal trace, which the Macdonald form makes explicit.
    """
    rep = VerificationReport(suite="nonconformal-trace", inputs={"f": f.name, "s": s})
    grid = grid or LambdaGrid.build()
    quad = quad or AnalysisQuadrature.build(f.spec)
    rho_levels = default_rho_ladder()[-2:]
    fld = nonconformal_extension(f, s, rho_levels, grid, quad)
    Sf = analyze_polyradial(f, grid, quad)
    ref = synthesize(apply_operator(Sf, SpectralMultiplier("frac_nonconf", s, n=f.spec.n)).spectrum,
                     f.spec)
    win = f.spec.interior_window()
    rv = ref.values[win].real.ravel()
    fits = []
    for j, rho in enumerate(rho_levels):
        d1, _ = fld.rho_derivatives(j, win)
        Nj = (-rho ** (1.0 - 2.0 * s) * d1).real.ravel()
        fits.append(float(np.dot(Nj, rv) / np.dot(rv, rv)))
        rep.add(f"c_hat_rho={rho:g}", fits[-1], route="spectral")
    drift = abs(fits[-1] - fits[-2]) / abs(fits[-1])
    rep.add("c_hat_drift", drift, route="spectral", tolerance=1e-2)
    kc = constants(f.spec.n, s)
    rep.add("c_hat_over_dtn", fits[-1] / kc.dtn, route="spectral")
    return rep.finish()
