"""Littlewood-Paley square functions g, g1, g_x and g* on the half-space
H^n x R+, and the pointwise theorem check of D_s u against g*(L^s u).

All vertical objects are built on the non-conformal Poisson extension
U(., rho) = e^{-rho L^{1/2}} u, whose per-mode profile and rho-derivative are
exact (symbol e^{-rho sqrt(mu)}), so the only quadratures are the rho-ladder
and, for the nontangential functional, the y-integral around each sample.

For polyradial U the gradient square collapses to

    |nabla U|^2 = 4 u (d_u G)^2 + (u/4) (d_t G)^2 + (d_rho G)^2,   u = |z|^2,

with G(u, t; rho) the radial profile: the horizontal twist terms cancel, which
keeps every evaluation on the (u, t) half-plane.

g* reads |nabla U|^2 off cubic-spline tables on an (r, t) mesh, one ladder
level at a time: every level's slices come from one batched Laguerre sweep
over the mesh radii, each field is lambda-inverted on the t >= 0 half of the
symmetric t-mesh, the spline fits are band products over the truncated
collocation inverses, and each level meets its y-weights as it is fitted.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline, NdBSpline
from scipy.linalg import solve_banded
from scipy.sparse import csr_array

from .group import GridFunction, GridSpec, _diff_axis, _horizontal_field
from .lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    _half_mesh_inversion,
    _lambda_phases,
    analyze_polyradial,
    slices_at_radii_batch,
    synthesize_batch,
)
from .operators import SpectralMultiplier, apply_operator
from .report import VerificationReport
from .singular import SingularQuadrature, _require_rule, _right_args, d_s_values

__all__ = [
    "SquareFunctionConfig",
    "NontangentialReport",
    "g_function",
    "g_parts",
    "g_star",
    "pointwise_theorem_check",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareFunctionConfig:
    """Ladders, weights and sample sets for the square-function operators."""

    rho_min: float = 2.0 ** -9
    rho_max: float = 2.0 ** 5
    per_octave: int = 2
    n_table_r: int = 512
    n_table_t: int = 768
    y_r_min: float = 1e-4
    y_r_max: float = 14.0
    y_per_decade: int = 12
    y_n_theta: int = 16
    y_n_phi: int = 16

    def __post_init__(self):
        if not 0 < self.rho_min < self.rho_max or self._ladder_size() < 2:
            raise ValueError("the rho-ladder needs 0 < rho_min < rho_max and at least two levels")
        # a cubic not-a-knot spline needs four mesh points per axis
        for name in ("n_table_r", "n_table_t"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 4:
                raise ValueError(f"{name} must be an integer >= 4, not {size!r}")
        # the y-rule is g*'s singular-quadrature node set: refused here, before
        # any suite that takes the config does work, on what the build refuses
        _require_rule("the y-rule (y_r_min, y_r_max, y_per_decade, y_n_theta, y_n_phi)",
                      self.y_r_min, self.y_r_max, self.y_per_decade, self.y_n_theta, self.y_n_phi)

    def _ladder_size(self) -> int:
        return int(round(self.per_octave * math.log2(self.rho_max / self.rho_min))) + 1

    def rho_ladder(self):
        m = self._ladder_size()
        return self.rho_min * (self.rho_max / self.rho_min) ** (np.arange(m) / (m - 1))

    def rho_weights(self):
        lad = self.rho_ladder()
        dlog = math.log(lad[1] / lad[0])
        w = np.full(lad.size, dlog)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def refine(self) -> "SquareFunctionConfig":
        """One more rho-node per octave, 1.25 times every table and Haar-rule size."""
        factor = 1.25
        return replace(self,
                       per_octave=self.per_octave + 1,
                       n_table_r=int(self.n_table_r * factor),
                       n_table_t=int(self.n_table_t * factor),
                       y_per_decade=int(round(self.y_per_decade * factor)),
                       y_n_theta=int(round(self.y_n_theta * factor)),
                       y_n_phi=int(round(self.y_n_phi * factor)))


# ---------------------------------------------------------------------------
# g-functions
# ---------------------------------------------------------------------------

def _horizontal_sq(U: GridFunction) -> np.ndarray:
    """|nabla_H U|^2 = sum_j |X_j U|^2 + |Y_j U|^2 by fourth-order stencils,
    every field from one d/dt pass."""
    spec = U.spec
    dt = _diff_axis(U.values, 2 * spec.n, spec.h_t, 1, 4)
    return sum(np.abs(_horizontal_field(U, f"{kind}{j}", dt, 4)) ** 2
               for j in range(1, spec.n + 1) for kind in "XY")


def g_parts(u: GridFunction, cfg: Optional[SquareFunctionConfig] = None,
            grid: Optional[LambdaGrid] = None,
            quad: Optional[AnalysisQuadrature] = None):
    """(g1^2, gx^2) as grids: rho-quadrature of rho |d_rho U|^2 and rho |grad_x U|^2.

    d_rho U is synthesized per level from the exact symbol derivative, the
    horizontal parts from grid stencils.  Shares one ladder, so g^2 = g1^2 +
    gx^2 holds exactly by construction.  Warns (UserWarning) when the last
    ladder level still carries over 1e-4 of g1^2's peak.
    """
    if not u.polyradial:
        raise ValueError("g-functions are built spectrally: polyradial input required")
    cfg = cfg or SquareFunctionConfig()
    grid = grid or LambdaGrid.build()
    Su = analyze_polyradial(u, grid, quad)
    lad = cfg.rho_ladder()
    wts = cfg.rho_weights()
    n = u.spec.n
    dUs = synthesize_batch(Su, u.spec, [SpectralMultiplier("poisson_nonconf_drho", r, n=n)
                                        for r in lad])
    Us = synthesize_batch(Su, u.spec, [SpectralMultiplier("poisson_nonconf", r, n=n)
                                       for r in lad])
    g1 = np.zeros(u.spec.shape)
    gx = np.zeros(u.spec.shape)
    last = 0.0
    for rho, w, dU, Urho in zip(lad, wts, dUs, Us):
        last = w * rho * rho * dU.values ** 2
        g1 += last
        gx += w * rho * rho * _horizontal_sq(Urho)
    tail = float(np.max(last) / max(np.max(g1), 1e-300))
    if tail > 1e-4:
        warnings.warn(f"rho-ladder tail share {tail:.2e}", stacklevel=2)
    return g1, gx


def g_function(u: GridFunction, parts: str = "full",
               cfg: Optional[SquareFunctionConfig] = None,
               grid: Optional[LambdaGrid] = None,
               quad: Optional[AnalysisQuadrature] = None) -> GridFunction:
    """g(u), g1(u) or g_x(u) as a real, non-negative grid of point values."""
    if parts not in ("full", "g1", "gx"):
        raise ValueError("parts must be one of full, g1, gx")
    g1, gx = g_parts(u, cfg, grid, quad)
    if parts == "g1":
        vals = np.sqrt(g1)
    elif parts == "gx":
        vals = np.sqrt(gx)
    else:
        vals = np.sqrt(g1 + gx)
    return u.copy_with(vals, name=f"{parts}[{u.name}]", polyradial=True)


# ---------------------------------------------------------------------------
# exact |nabla U|^2 tables and g*
# ---------------------------------------------------------------------------

def _gradient_sq(u, du, dt, drho):
    """|nabla U|^2 = 4 u (d_u G)^2 + (u/4) (d_t G)^2 + (d_rho G)^2 at u = |z|^2,
    in place: the result is du, and dt and drho are overwritten."""
    du *= du
    dt *= dt
    dt *= 0.0625
    du += dt
    du *= 4.0 * u
    drho *= drho
    du += drho
    return du


def _interp_knots(x: np.ndarray) -> np.ndarray:
    """Cubic not-a-knot knots on the mesh x, the ones fitpack places for s = 0."""
    return np.concatenate([np.repeat(x[0], 4), x[2:-2], np.repeat(x[-1], 4)])


def _collocation_inverse(x: np.ndarray, knots: np.ndarray):
    """A^{-1} of the cubic collocation matrix A[i, j] = B_j(x_i), by a banded
    solve of A X = I, and the half-width w of its band.

    The inverse of the banded A decays geometrically away from its diagonal,
    at the rate of the cubic B-spline pole 2 - sqrt(3) (Demko, Moss & Smith,
    Math. Comp. 43 (1984); Unser, Aldroubi & Eden, IEEE Trans. Signal
    Process. 41 (1993)).  Entries below 1e-20 of its largest are set to
    zero, and the nonzeros left lie within |i - j| <= w, read off them: 35 at
    every mesh of 96 points or more, so the fits multiply only inside the
    band (_band_fit).
    """
    A = BSpline.design_matrix(x, knots, 3).toarray()
    i, j = np.nonzero(A)
    lo, up = int(np.max(i - j)), int(np.max(j - i))
    banded = np.zeros((lo + up + 1, x.size))
    banded[up + i - j, j] = A[i, j]
    inv = solve_banded((lo, up), banded, np.eye(x.size))
    inv[np.abs(inv) < 1e-20 * np.max(np.abs(inv))] = 0.0
    i, j = np.nonzero(inv)
    return inv, int(np.max(np.abs(i - j)))


FIT_TILE = 96      # rows (columns) of one band block of the spline fits


def _band_fit(inv_r, w_r: int, V: np.ndarray, inv_t, w_t: int, left: np.ndarray) -> np.ndarray:
    """inv_r @ V @ inv_t.T, written into V, for inverses whose nonzeros lie
    within the half-widths w_r and w_t of their diagonals.

    Each tile of FIT_TILE rows of inv_r @ V (columns of the product with
    inv_t.T) multiplies only the band's columns (rows); the terms skipped are
    exact zeros.  left is an (N_r, N_t) scratch array.
    """
    nr, nt = V.shape
    for i0 in range(0, nr, FIT_TILE):
        i1 = min(i0 + FIT_TILE, nr)
        lo, hi = max(i0 - w_r, 0), min(i1 + w_r, nr)
        np.matmul(inv_r[i0:i1, lo:hi], V[lo:hi], out=left[i0:i1])
    for j0 in range(0, nt, FIT_TILE):
        j1 = min(j0 + FIT_TILE, nt)
        lo, hi = max(j0 - w_t, 0), min(j1 + w_t, nt)
        np.matmul(left[:, lo:hi], inv_t[j0:j1, lo:hi].T, out=V[:, j0:j1])
    return V


class _GradientTable:
    """Cubic interpolating splines of |nabla U|^2 over the window 0 <= r <= R_MAX,
    |t| <= T_MAX of the (r, t) half-plane, one ladder level at a time.

    Nothing but the mesh values depends on rho: the (r, t) mesh, its
    not-a-knot knots, the collocation inverses of both axes and the
    evaluation matrix at any point set are shared by every level.  A level's
    spline coefficients are A_r^{-1} V A_t^{-T} of its mesh values V, two
    band products, and its values at the points are one sparse mat-vec, so
    no spline object and no stack of levels is kept.  The Laguerre slices of
    all levels come from one batched sweep over the mesh radii: U with its
    u-derivative, and d_rho U.  The t-mesh is symmetric about 0, so each
    field is lambda-inverted on its t >= 0 half.
    """

    R_MAX = 25.0
    T_MAX = 26.0

    def __init__(self, Su: PolyradialSpectrum, cfg: SquareFunctionConfig):
        n_t = cfg.n_table_t
        self.r_axis = np.linspace(0.0, self.R_MAX, cfg.n_table_r)
        # the t >= 0 half of linspace(-T_MAX, T_MAX, n_t), mirrored; an odd
        # count holds t = 0 once
        self._t_half = np.linspace(-self.T_MAX, self.T_MAX, n_t)[n_t // 2:]
        if n_t % 2:
            self._t_half[0] = 0.0
        self.t_axis = np.concatenate([-self._t_half[n_t % 2:][::-1], self._t_half])
        self.Su = Su
        self.knots = (_interp_knots(self.r_axis), _interp_knots(self.t_axis))
        (self._inv_r, self._w_r), (self._inv_t, self._w_t) = (
            _collocation_inverse(x, k) for x, k in zip((self.r_axis, self.t_axis), self.knots))

    def mesh_values(self, rho_levels):
        """|nabla U|^2 on the (r, t) mesh: an iterator of one (N_r, N_t)
        array per level.

        The one Laguerre sweep of every level runs at the call.  A level is
        formed when it is asked for, in buffers the next level overwrites.
        """
        n, L = self.Su.n, len(rho_levels)
        uu = self.r_axis * self.r_axis
        sl, dsl = slices_at_radii_batch(
            self.Su, uu,
            [SpectralMultiplier("poisson_nonconf", r, n=n) for r in rho_levels]
            + [SpectralMultiplier("poisson_nonconf_drho", r, n=n) for r in rho_levels],
            want_du=[True] * L + [False] * L)
        grid = self.Su.grid
        ph, ph_t = _lambda_phases(grid, self._t_half), _lambda_phases(grid, self._t_half, dt=True)
        du, dt, drho = (np.empty((uu.size, self.t_axis.size)) for _ in range(3))
        return (_gradient_sq(uu[:, None], _half_mesh_inversion(dsl[l], ph, 1.0, du),
                             _half_mesh_inversion(sl[l], ph_t, -1.0, dt),
                             _half_mesh_inversion(sl[L + l], ph, 1.0, drho))
                for l in range(L))

    def design_matrix(self, zx, zy, t) -> csr_array:
        """(P, N_r N_t) B-spline evaluation matrix at the points (zx, zy, t).

        Rows of points outside the tabulated window are zero: the fields have
        decayed there.
        """
        r = np.sqrt(zx * zx + zy * zy)
        pts = np.column_stack([np.minimum(r, self.R_MAX), np.clip(t, -self.T_MAX, self.T_MAX)])
        D = NdBSpline.design_matrix(pts, self.knots, 3)
        # scipy sizes the columns by the largest index present, and the
        # points never reach r = R_MAX
        D = csr_array((D.data, D.indices, D.indptr),
                      shape=(len(pts), self.r_axis.size * self.t_axis.size))
        outside = (r > self.R_MAX) | (np.abs(t) > self.T_MAX)
        D.data[np.repeat(outside, np.diff(D.indptr))] = 0.0
        return D

    def values(self, rho_levels, zx, zy, t):
        """Yield each level's spline at the points (zx, zy, t), clamped at 0:
        one (P,) array per level.

        The evaluation matrix is built after the sweep, whose slices are the
        table's largest arrays, and each level's coefficients overwrite its
        mesh values.
        """
        fields = self.mesh_values(rho_levels)
        D = self.design_matrix(zx, zy, t)
        left = np.empty((self.r_axis.size, self.t_axis.size))
        for V in fields:
            C = _band_fit(self._inv_r, self._w_r, V, self._inv_t, self._w_t, left)
            out = D @ C.ravel()
            yield np.maximum(out, 0.0, out=out)


def _require_gstar_inputs(spec: GridSpec, samples) -> None:
    """Raise NotImplementedError unless n = 1, where g*'s y-nodes and gradient
    tables live, and ValueError for no samples or a sample within R/4 of a
    face of spec."""
    if spec.n != 1:
        raise NotImplementedError("g* is implemented for n = 1: its y-nodes and "
                                  "gradient tables live on H^1")
    spec.require_interior(samples)


def g_star(Su: PolyradialSpectrum, cfg: SquareFunctionConfig, samples,
           spec: GridSpec, lam_param: float) -> np.ndarray:
    """Nontangential square function of the function with spectrum Su, at the
    samples of the grid spec.

    g*(x)^2 = int_0^inf int_{H^n} (rho/(rho+|y|))^{lam Q} rho^{1-Q}
              |nabla U(x y^{-1}, rho)|^2 dy drho,
    with lam = lam_param (the weight exponent, not a spectral lambda), the
    Haar y-measure and the rho-ladder quadrature; |nabla U|^2 comes
    from cubic-spline tables of the exact spectral gradients.  The y-nodes
    are the singular-quadrature node set on [y_r_min, y_r_max], which like
    the tables is built for n = 1.  One evaluation matrix at every offset
    x y^{-1} serves all levels, and each level's values meet its y-node
    weights as the level is fitted, so no (level, offset) array is kept.
    """
    _require_gstar_inputs(spec, samples)
    Q = 2 * spec.n + 2
    lad = cfg.rho_ladder()
    wts = cfg.rho_weights()
    yq = SingularQuadrature.build(r_min=cfg.y_r_min, r_max=cfg.y_r_max,
                                  per_decade=cfg.y_per_decade,
                                  n_theta=cfg.y_n_theta, n_phi=cfg.y_n_phi)
    table = _GradientTable(Su, cfg)
    # x y^{-1} over the y-nodes, sample after sample
    px, py, pt = (np.concatenate(c) for c in zip(*(_right_args(x, yq) for x in samples)))
    rho = lad[:, None]
    weight = (rho / (rho + yq.gauge)) ** (lam_param * Q) * rho ** (1 - Q)   # (L, y-nodes)
    wy = (wts * lad)[:, None] * yq.w_haar * weight
    g2 = np.zeros(len(samples))
    for vals, w in zip(table.values(lad, px, py, pt), wy):
        g2 += vals.reshape(len(samples), -1) @ w
    return np.sqrt(g2)


# ---------------------------------------------------------------------------
# pointwise theorem check
# ---------------------------------------------------------------------------

@dataclass
class NontangentialReport:
    report: VerificationReport
    ds: np.ndarray
    gstar: np.ndarray
    ratios: np.ndarray
    lam_hat: float


def pointwise_theorem_check(u: GridFunction, s: float, lam_param: float, samples,
                            grid: Optional[LambdaGrid] = None,
                            quad: Optional[AnalysisQuadrature] = None,
                            cfg: Optional[SquareFunctionConfig] = None,
                            squad: Optional[SingularQuadrature] = None) -> NontangentialReport:
    """Per-sample D_s u against g*_lam(L^s u); reports the empirical constant.

    The admissible weight exponents are 1 < lam_param < 1 + 2s/Q.  The ratio
    table never violates the inequality beyond the propagated quadrature
    tolerance by construction of the reported constant; stability of that
    constant under one refinement step of every quadrature is the pass
    criterion.  Inputs g* cannot take, n != 1, no samples or a sample within
    R/4 of a face, are rejected before any analysis runs.
    """
    spec = u.spec
    Q = 2 * spec.n + 2
    if not (0 < s < 0.5):
        raise ValueError("the pointwise bound requires s in (0, 1/2)")
    if not (1.0 < lam_param < 1.0 + 2.0 * s / Q):
        raise ValueError(f"lam_param must lie in (1, 1 + 2s/Q) = (1, {1 + 2*s/Q:g})")
    if not u.polyradial:
        raise ValueError("polyradial input required")
    _require_gstar_inputs(spec, samples)
    rep = VerificationReport(suite="gstar-pointwise-thm",
                             inputs={"u": u.name, "s": s, "lam_param": lam_param,
                                     "samples": len(samples)})
    grid = grid or LambdaGrid.build()
    cfg = cfg or SquareFunctionConfig()
    squad = squad or SingularQuadrature.build()
    # the refined pass's inputs, built before any work: refine() raises on
    # inputs it cannot refine
    refined = (grid.refine(), (quad or AnalysisQuadrature.build(spec)).refine(),
               cfg.refine(), squad.refine())

    def one_pass(grid_, quad_, cfg_, squad_):
        Su = analyze_polyradial(u, grid_, quad_)
        Sw = apply_operator(Su, SpectralMultiplier("frac_nonconf", s, n=spec.n)).spectrum
        gs = g_star(Sw, cfg_, samples, spec, lam_param)
        ds = d_s_values(u, s, samples, squad_)
        return ds, gs

    ds, gs = one_pass(grid, quad, cfg, squad)
    bad = (gs <= 0) & (ds > 0)
    if np.any(bad):
        rep.require("gstar_vanishes_with_positive_ds", False)
        return NontangentialReport(rep.finish(), ds, gs, np.full_like(ds, np.inf), math.inf)
    ratios = np.where(gs > 0, ds / np.maximum(gs, 1e-300), 0.0)
    lam_hat = float(np.max(ratios))
    rep.add("lambda_hat", lam_hat, route="quadrature/spectral")
    rep.require("lambda_hat_finite", math.isfinite(lam_hat) and lam_hat > 0)
    for i in range(len(samples)):
        rep.add(f"ratio_{i}", float(ratios[i]), route="quadrature/spectral")
    ds2, gs2 = one_pass(*refined)
    lam2 = float(np.max(np.where(gs2 > 0, ds2 / np.maximum(gs2, 1e-300), 0.0)))
    drift = abs(lam2 - lam_hat) / lam_hat
    rep.add("lambda_hat_refined", lam2, route="quadrature/spectral")
    rep.add("refinement_drift", drift, route="quadrature/spectral", tolerance=0.10)
    return NontangentialReport(rep.finish(), ds, gs, ratios, lam_hat)
