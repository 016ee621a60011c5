"""Littlewood-Paley square functions, the square fractional integral and the
mean-value machinery on the half-space H^n x R+.

All vertical objects are built on the non-conformal Poisson extension
U(., rho) = e^{-rho L^{1/2}} u, whose per-mode profile and rho-derivative are
exact (symbol e^{-rho sqrt(mu)}), so the only quadratures are the rho-ladder
and, for the nontangential functional, the y-integral around each sample.

For polyradial U the gradient square collapses to

    |nabla U|^2 = 4 u (d_u G)^2 + (u/4) (d_t G)^2 + (d_rho G)^2,   u = |z|^2,

with G(u, t; rho) the radial profile: the horizontal twist terms cancel, which
keeps every evaluation on the (u, t) half-plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline, NdBSpline
from scipy.sparse import csr_array
from scipy.special import roots_legendre

from .group import GridFunction, GridSpec, apply_vector_field, sublaplacian_grid
from .kernels import ExtensionField, _second_difference
from .lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    _lambda_phases,
    analyze_polyradial,
    slices_at_radii_batch,
    synthesize_batch,
)
from .operators import SpectralMultiplier, apply_operator
from .report import VerificationReport
from .singular import SingularQuadrature, _right_args, d_s_values

__all__ = [
    "SquareFunctionConfig",
    "NontangentialReport",
    "gradient_sq",
    "g_function",
    "g_parts",
    "g_star",
    "pointwise_theorem_check",
    "mean_value_check",
    "extended_gauge",
    "extended_gauge_grad_sq",
    "extension_gradient_sq_at",
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
# gradients of extension fields
# ---------------------------------------------------------------------------

def _horizontal_sq(U: GridFunction) -> np.ndarray:
    """|nabla_H U|^2 = sum_j |X_j U|^2 + |Y_j U|^2 by fourth-order stencils."""
    return sum(np.abs(apply_vector_field(f"{kind}{j}", U, order=4).values) ** 2
               for j in range(1, U.spec.n + 1) for kind in "XY")


def gradient_sq(fld: ExtensionField) -> list:
    """|nabla U|^2 per level: horizontal stencils, d_rho from the companions."""
    out = []
    for j, rho in enumerate(fld.rho_levels):
        u = fld.levels[j]
        d1, _ = fld.rho_derivatives(j)
        vals = _horizontal_sq(u) + np.abs(d1) ** 2
        out.append(u.copy_with(vals.astype(complex), name=f"|grad U|^2@rho={rho:g}"))
    return out


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
        last = w * rho * rho * np.abs(dU.values) ** 2
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
    """g(u), g1(u) or g_x(u) as a grid of point values."""
    if parts not in ("full", "g1", "gx"):
        raise ValueError("parts must be one of full, g1, gx")
    g1, gx = g_parts(u, cfg, grid, quad)
    if parts == "g1":
        vals = np.sqrt(g1)
    elif parts == "gx":
        vals = np.sqrt(gx)
    else:
        vals = np.sqrt(g1 + gx)
    return u.copy_with(vals.astype(complex), name=f"{parts}[{u.name}]", polyradial=True)


# ---------------------------------------------------------------------------
# exact off-grid evaluation of |nabla U|^2
# ---------------------------------------------------------------------------

def _gradient_sq(u, du, dt, drho):
    """|nabla U|^2 = 4 u (d_u G)^2 + (u/4) (d_t G)^2 + (d_rho G)^2 at u = |z|^2."""
    return 4.0 * u * du * du + 0.25 * u * dt * dt + drho * drho


def extension_gradient_sq_at(Su: PolyradialSpectrum, rho: float,
                             u_vals: np.ndarray, t_vals: np.ndarray) -> np.ndarray:
    """|nabla U|^2 at scattered (|z|^2, t) for the Poisson extension of Su.

    One batched expansion delivers the Poisson slice, its radial derivative and
    the rho-derivative slice together; the t-derivative reuses the same slices
    with the modulated inversion.
    """
    u_vals = np.atleast_1d(np.asarray(u_vals, dtype=float))
    t_vals = np.atleast_1d(np.asarray(t_vals, dtype=float))
    mults = [SpectralMultiplier("poisson_nonconf", rho, n=Su.n),
             SpectralMultiplier("poisson_nonconf_drho", rho, n=Su.n)]
    sl, dsl = slices_at_radii_batch(Su, u_vals.ravel(), mults, want_du=True)
    ph, ph_t = (_lambda_phases(Su.grid, t_vals.ravel(), dt=d) for d in (False, True))
    du = np.real(np.sum(dsl[0] * ph, axis=0))
    dt = np.real(np.sum(sl[0] * ph_t, axis=0))
    dr = np.real(np.sum(sl[1] * ph, axis=0))
    return _gradient_sq(u_vals.ravel(), du, dt, dr).reshape(u_vals.shape)


def _interp_knots(x: np.ndarray) -> np.ndarray:
    """Cubic not-a-knot knots on the mesh x, the ones fitpack places for s = 0."""
    return np.concatenate([np.repeat(x[0], 4), x[2:-2], np.repeat(x[-1], 4)])


def _collocation_inverse(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """A^{-1} of the cubic collocation matrix A[i, j] = B_j(x_i).

    The inverse decays geometrically away from its diagonal; entries below
    1e-20 of its largest are set to zero, since left in they underflow to
    subnormals in the fits and slow every GEMM about fivefold.
    """
    inv = np.linalg.inv(BSpline.design_matrix(x, knots, 3).toarray())
    inv[np.abs(inv) < 1e-20 * np.max(np.abs(inv))] = 0.0
    return inv


class _GradientTable:
    """Cubic interpolating splines of |nabla U|^2 over the window 0 <= r <= R_MAX,
    |t| <= T_MAX of the (r, t) half-plane, one ladder level at a time.

    Nothing but the mesh values depends on rho: the (r, t) mesh, its
    not-a-knot knots, the collocation inverses of both axes and the
    evaluation matrix at any point set are shared by every level.  A level's
    spline coefficients are A_r^{-1} V A_t^{-T} of its mesh values V (two
    GEMMs) and its values at the points are one sparse mat-vec, so no spline
    object and no stack of levels is kept.  The Laguerre slices of all levels
    come from two batched sweeps over the mesh radii: U with its u-derivative,
    and d_rho U.
    """

    R_MAX = 25.0
    T_MAX = 26.0

    def __init__(self, Su: PolyradialSpectrum, cfg: SquareFunctionConfig):
        self.r_axis = np.linspace(0.0, self.R_MAX, cfg.n_table_r)
        self.t_axis = np.linspace(-self.T_MAX, self.T_MAX, cfg.n_table_t)
        self.Su = Su
        self.knots = (_interp_knots(self.r_axis), _interp_knots(self.t_axis))
        self._inv_r, self._inv_t = (_collocation_inverse(x, k)
                                    for x, k in zip((self.r_axis, self.t_axis), self.knots))

    def mesh_values(self, rho_levels):
        """|nabla U|^2 on the (r, t) mesh, one (N_r, N_t) array per level."""
        n = self.Su.n
        uu = self.r_axis * self.r_axis
        sl, dsl = slices_at_radii_batch(
            self.Su, uu, [SpectralMultiplier("poisson_nonconf", r, n=n) for r in rho_levels],
            want_du=True)
        rsl = slices_at_radii_batch(
            self.Su, uu, [SpectralMultiplier("poisson_nonconf_drho", r, n=n) for r in rho_levels])
        # Re(s^T ph) = [Re s; -Im s]^T [Re ph; Im ph]: one real product per
        # inversion, half the flops of the complex one whose imaginary half
        # would be thrown away
        def stacked(dt):
            ph = _lambda_phases(self.Su.grid, self.t_axis, dt=dt)
            return np.concatenate([ph.real, ph.imag])

        ph, ph_t = stacked(False), stacked(True)

        def inverted(slices, phases):
            return np.concatenate([slices.real, -slices.imag]).T @ phases

        for l in range(len(rho_levels)):
            yield _gradient_sq(uu[:, None], inverted(dsl[l], ph), inverted(sl[l], ph_t),
                               inverted(rsl[l], ph))

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

    def values(self, rho_levels, D: csr_array) -> np.ndarray:
        """(L, P) values, clamped at 0, of every level's spline at the rows of D."""
        out = np.empty((len(rho_levels), D.shape[0]))
        for l, V in enumerate(self.mesh_values(rho_levels)):
            out[l] = D @ (self._inv_r @ V @ self._inv_t.T).ravel()
        return np.maximum(out, 0.0, out=out)


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
    x y^{-1} serves all levels, and the (level, offset) values meet the
    (level, y-node) weights in one contraction.
    """
    if spec.n != 1:
        raise NotImplementedError("g* is implemented for n = 1: its y-nodes and "
                                  "gradient tables live on H^1")
    spec.require_interior(samples)
    Q = 2 * spec.n + 2
    lad = cfg.rho_ladder()
    wts = cfg.rho_weights()
    table = _GradientTable(Su, cfg)
    yq = SingularQuadrature.build(r_min=cfg.y_r_min, r_max=cfg.y_r_max,
                                  per_decade=cfg.y_per_decade,
                                  n_theta=cfg.y_n_theta, n_phi=cfg.y_n_phi)
    # x y^{-1} over the y-nodes, sample after sample
    px, py, pt = (np.concatenate(c) for c in zip(*(_right_args(x, yq) for x in samples)))
    vals = table.values(lad, table.design_matrix(px, py, pt))
    rho = lad[:, None]
    weight = (rho / (rho + yq.gauge)) ** (lam_param * Q) * rho ** (1 - Q)   # (L, y-nodes)
    wy = (wts * lad)[:, None] * yq.w_haar * weight
    return np.sqrt(np.einsum("lsy,ly->s", vals.reshape(len(lad), len(samples), -1), wy))


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
    criterion.
    """
    spec = u.spec
    Q = 2 * spec.n + 2
    if not (0 < s < 0.5):
        raise ValueError("the pointwise bound requires s in (0, 1/2)")
    if not (1.0 < lam_param < 1.0 + 2.0 * s / Q):
        raise ValueError(f"lam_param must lie in (1, 1 + 2s/Q) = (1, {1 + 2*s/Q:g})")
    if not u.polyradial:
        raise ValueError("polyradial input required")
    rep = VerificationReport(suite="gstar-pointwise-thm",
                             inputs={"u": u.name, "s": s, "lam_param": lam_param,
                                     "samples": len(samples)})
    grid = grid or LambdaGrid.build()
    cfg = cfg or SquareFunctionConfig()
    squad = squad or SingularQuadrature.build()

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
    ds2, gs2 = one_pass(grid.refine(), AnalysisQuadrature.build(spec, n_radial=1920),
                        cfg.refine(), squad.refine())
    lam2 = float(np.max(np.where(gs2 > 0, ds2 / np.maximum(gs2, 1e-300), 0.0)))
    drift = abs(lam2 - lam_hat) / lam_hat
    rep.add("lambda_hat_refined", lam2, route="quadrature/spectral")
    rep.add("refinement_drift", drift, route="quadrature/spectral", tolerance=0.10)
    return NontangentialReport(rep.finish(), ds, gs, ratios, lam_hat)


# ---------------------------------------------------------------------------
# extended gauge and the mean-value inequality
# ---------------------------------------------------------------------------

def extended_gauge(zx, zy, t, rho):
    return (rho ** 4 + (zx * zx + zy * zy) ** 2 + 16.0 * t * t) ** 0.25


def extended_gauge_grad_sq(zx, zy, t, rho):
    """|nabla d~|^2 = (|z|^6 + 16 t^2 |z|^2 + rho^6) / d~^6, closed form <= 1."""
    z2 = zx * zx + zy * zy
    d4 = rho ** 4 + z2 * z2 + 16.0 * t * t
    return (z2 ** 3 + 16.0 * t * t * z2 + rho ** 6) / d4 ** 1.5


def _extended_ball_nodes(r: float, center_rho: float):
    """Quadrature for int_{B_r((0, rho0))} F(u=|z|^2, t, rho) dz dt drho on H^1 x R+.

    Slices over sigma = rho - rho0 (24 Gauss nodes); each slice is a Koranyi
    ball of radius (r^4 - sigma^4)^{1/4} handled in the (varrho, theta)
    parametrization (24 x 16 Gauss nodes) with the measure
    (2 pi / 8) varrho d varrho d theta for z-radial integrands.
    """
    sx, sw = roots_legendre(24)
    sigma = sx * r
    wsig = sw * r
    rx, rw = roots_legendre(24)
    tx, tw = roots_legendre(16)
    theta = tx * math.pi / 2
    wth = tw * math.pi / 2
    us, tts, rhos, wts = [], [], [], []
    for sg, ws in zip(sigma, wsig):
        ry4 = r ** 4 - sg ** 4
        if ry4 <= 0:
            continue
        vmax = math.sqrt(ry4)          # varrho ranges over (0, r_y^2]
        vr = (rx + 1) * vmax / 2
        wv = rw * vmax / 2
        V, TH = np.meshgrid(vr, theta, indexing="ij")
        WV, WTH = np.meshgrid(wv, wth, indexing="ij")
        us.append((V * np.cos(TH)).ravel())
        tts.append((V * np.sin(TH) / 4.0).ravel())
        rhos.append(np.full(V.size, center_rho + sg))
        wts.append((2 * math.pi / 8.0 * V * WV * WTH).ravel() * ws)
    return (np.concatenate(us), np.concatenate(tts),
            np.concatenate(rhos), np.concatenate(wts))


def mean_value_check(fld: ExtensionField, Su: PolyradialSpectrum,
                     center_rho: float = 2.0) -> VerificationReport:
    """Mean-value inequality for V = |nabla U|^2 over extended Koranyi balls.

    Verifies E V >= -1e-4 max|E V| on a grid window (E = -L + d_rho^2),
    computes the plain and gauge-weighted ball averages by exact spectral
    evaluation, and reports the smallest constant making
    V(center) <= C r^{-(Q+1)} int_B V across the radii r = 1/2, 1, 2.  A
    subharmonicity violation rejects the input rather than failing the
    inequality.
    """
    spec = fld.levels[0].spec
    if spec.n != 1:
        raise NotImplementedError("the extended-ball nodes live on H^1 x R+: n = 1 only")
    radii = (0.5, 1.0, 2.0)
    rep = VerificationReport(suite="mean-value",
                             inputs={"center_rho": center_rho, "radii": list(radii)})
    Q = 2 * spec.n + 2

    # discrete subharmonicity on a window around the center level
    j0 = int(np.argmin(np.abs(fld.rho_levels - center_rho)))
    if not 0 < j0 < len(fld.rho_levels) - 1:
        raise ValueError("center_rho must pick an interior ladder level: d_rho^2 V "
                         "needs a level on each side")
    grads = gradient_sq(fld)
    V0 = grads[j0]
    hp = fld.rho_levels[j0 - 1] - fld.rho_levels[j0]
    hm = fld.rho_levels[j0] - fld.rho_levels[j0 + 1]
    d2 = _second_difference(grads[j0 + 1].values.real, V0.values.real,
                            grads[j0 - 1].values.real, hm, hp)
    LV = sublaplacian_grid(V0, order=4).values.real
    EV = (-LV + d2)[spec.interior_window()]
    scale = float(np.max(np.abs(EV)))
    worst = float(np.min(EV))
    rep.add("subharmonic_min_over_scale", worst / scale, route="grid")
    if worst < -1e-4 * scale:
        rep.require("input_E_subharmonic", False)
        rep.note("input rejected: discrete E V dips below tolerance")
        return rep.finish()
    rep.require("input_E_subharmonic", True)

    # gauge bound
    rng = np.random.default_rng(20240812)
    zr = rng.uniform(-2, 2, (10000, 2))
    tr = rng.uniform(-1, 1, 10000)
    rr = rng.uniform(1e-3, 3, 10000)
    K = extended_gauge_grad_sq(zr[:, 0], zr[:, 1], tr, rr)
    rep.add("gauge_grad_sq_max", float(np.max(K)), route="exact", tolerance=1.0 + 1e-8)

    # finite-difference spot check of the closed-form gradient
    p = (0.7, -0.4, 0.3, 1.2)
    eps = 1e-6
    gx = (extended_gauge(p[0] + eps, p[1], p[2], p[3])
          - extended_gauge(p[0] - eps, p[1], p[2], p[3])) / (2 * eps)
    gt = (extended_gauge(p[0], p[1], p[2] + eps, p[3])
          - extended_gauge(p[0], p[1], p[2] - eps, p[3])) / (2 * eps)
    gr = (extended_gauge(p[0], p[1], p[2], p[3] + eps)
          - extended_gauge(p[0], p[1], p[2], p[3] - eps)) / (2 * eps)
    X = gx - p[1] / 2 * gt
    Y = (extended_gauge(p[0], p[1] + eps, p[2], p[3])
         - extended_gauge(p[0], p[1] - eps, p[2], p[3])) / (2 * eps) + p[0] / 2 * gt
    fd = X * X + Y * Y + gr * gr
    cf = extended_gauge_grad_sq(*p)
    rep.add("gauge_grad_fd_dev", abs(fd - cf) / cf, route="quadrature", tolerance=1e-6)

    # ball averages with exact evaluation of V
    vc = float(extension_gradient_sq_at(Su, center_rho, np.array([0.0]), np.array([0.0]))[0])
    consts, consts_K = [], []
    for r in radii:
        us, ts, rhos, wts = _extended_ball_nodes(r, center_rho)
        vals = np.empty_like(wts)
        for rho in np.unique(rhos):      # exact evaluation, one slice per rho node
            m = rhos == rho
            vals[m] = extension_gradient_sq_at(Su, rho, us[m], ts[m])
        plain = float(np.dot(wts, vals))
        zz = np.sqrt(us)
        Kw = extended_gauge_grad_sq(zz, np.zeros_like(zz), ts, np.abs(rhos - center_rho))
        weighted = float(np.dot(wts * Kw, vals))
        consts.append(vc * r ** (Q + 1) / plain)
        consts_K.append(vc * r ** (Q + 1) / weighted)
        rep.add(f"C_hat_r={r:g}", consts[-1], route="quadrature")
        rep.add(f"C_hat_gauge_r={r:g}", consts_K[-1], route="quadrature")
    spread = max(consts) / min(consts) - 1.0
    rep.add("C_hat_spread", spread, route="quadrature", tolerance=0.20)
    return rep.finish()
