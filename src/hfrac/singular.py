"""Singular-integral quadrature for the nonlocal kernels |y|^{-Q-gamma}.

Geometry (n = 1): with the gauge r = (|z|^4 + 16 t^2)^{1/4} and the
parametrization |z|^2 = r^2 cos(theta), 4t = r^2 sin(theta), phi the angle of
z, the Haar measure is dy = (r^3/4) dr dtheta dphi.  The engine integrates

    difference-combination(y) * |y|^{-Q-gamma}

over a log-radial x Gauss-Legendre(theta) x uniform(phi) node set, adds a
Taylor model for the ball r < r_min (the differences vanish there to the
order that makes the kernel integrable), and closes with the exact power tail
beyond r_max where the test functions have effectively vanished.

One group convention throughout: differences are taken at x . y^{-1} and core
derivatives along the left-invariant flows x . (a).  Both commute with left
translations, as L_s does, so no result depends on the input being polyradial.

The closed-form ingredients, all for n = 1 (Q = 4):
    |B_1| = pi^2/8,   sigma = Q |B_1| = pi^2/2,
    J1 = int_{B_1} |z|^2 |y|^{-Q-gamma} dy = (pi/2)/(1 - gamma/2),
    J2 = int_{B_1} t^2  |y|^{-Q-gamma} dy = (pi^2/128)/(2 - gamma/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .group import GridFunction, HeisenbergPoint, _compose

__all__ = ["SingularQuadrature", "BALL_VOLUME_UNIT", "SIGMA_GAUGE",
           "d_s_values", "t_s_values", "ir_values"]

BALL_VOLUME_UNIT = math.pi ** 2 / 8.0       # |B_1| on H^1
SIGMA_GAUGE = 4.0 * BALL_VOLUME_UNIT        # surface constant: |B_r| = SIGMA r^Q / Q


def _require_rule(what: str, r_min: float, r_max: float, per_decade: int,
                  n_theta: int, n_phi: int) -> None:
    """Raise ValueError unless 0 < r_min < r_max and every count is >= 1."""
    if not (0 < r_min < r_max and min(per_decade, n_theta, n_phi) >= 1):
        raise ValueError(f"{what} needs 0 < r_min < r_max and per_decade, n_theta, n_phi >= 1")


@dataclass(frozen=True)
class SingularQuadrature:
    """Node set shared by every sample point (offsets live in the y variable)."""

    xs: np.ndarray        # z-offset, first component
    ys: np.ndarray        # z-offset, second component
    ts: np.ndarray        # t-offset
    gauge: np.ndarray     # |y| at the nodes
    w_haar: np.ndarray    # Haar weights (r^3/4 dr dtheta dphi)
    r_min: float
    r_max: float
    n_theta: int
    n_phi: int

    @classmethod
    def build(cls, r_min: float = 1e-3, r_max: float = 60.0, per_decade: int = 14,
              n_theta: int = 24, n_phi: int = 24) -> "SingularQuadrature":
        """Raises ValueError unless 0 < r_min < r_max and every count is >= 1:
        a reversed span would integrate with negative Haar weights."""
        _require_rule("the singular quadrature", r_min, r_max, per_decade, n_theta, n_phi)
        decades = math.log10(r_max / r_min)
        m = max(8, int(round(per_decade * decades)))
        logr = np.linspace(math.log(r_min), math.log(r_max), m)
        r = np.exp(logr)
        dlog = logr[1] - logr[0]
        wr = np.full(m, dlog)
        wr[0] *= 0.5
        wr[-1] *= 0.5
        tx, tw = roots_legendre(n_theta)
        theta = tx * math.pi / 2.0
        wtheta = tw * math.pi / 2.0
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        wphi = np.full(n_phi, 2.0 * math.pi / n_phi)

        R, TH, PH = np.meshgrid(r, theta, phi, indexing="ij")
        WR, WT, WP = np.meshgrid(wr, wtheta, wphi, indexing="ij")
        zabs = R * np.sqrt(np.cos(TH))
        xs = (zabs * np.cos(PH)).ravel()
        ys = (zabs * np.sin(PH)).ravel()
        ts = (R * R * np.sin(TH) / 4.0).ravel()
        # dy = (r^3/4) dr dth dph; trapezoid in log r contributes an extra r
        w = (R ** 4 / 4.0 * WR * WT * WP).ravel()
        return cls(xs=xs, ys=ys, ts=ts, gauge=R.ravel(), w_haar=w,
                   r_min=r_min, r_max=r_max, n_theta=n_theta, n_phi=n_phi)

    def refine(self) -> "SingularQuadrature":
        """Half the inner radius, and 1.4 times the shells per decade and the angles."""
        factor = 1.4
        base = len(np.unique(self.gauge))
        decades = math.log10(self.r_max / self.r_min)
        return SingularQuadrature.build(
            r_min=self.r_min / 2.0, r_max=self.r_max,
            per_decade=int(round(base / decades * factor)),
            n_theta=int(round(self.n_theta * factor)), n_phi=int(round(self.n_phi * factor)))


def _require_evaluator(u: GridFunction, who: str):
    if u.evaluator is None:
        raise ValueError(f"{who} needs a closed-form evaluator on the input "
                         "(catalog functions and their products carry one)")
    if u.spec.n != 1:
        raise NotImplementedError(f"{who} implemented for n = 1")


def _right_args(x: HeisenbergPoint, q: SingularQuadrature):
    """Coordinates of x . (-y) over the node set."""
    return _compose(x.x[0], x.y[0], x.t, -q.xs, -q.ys, -q.ts)


def _flow_derivatives(u: GridFunction, X, Y, T, order: int):
    """Central differences of u along the flows x . (a), all samples per call.

    Order 1 gives the left-invariant (Xu, Yu, Tu), order 2 (X^2 u, Y^2 u, T^2 u).
    """
    eps = 1e-4 if order == 1 else 1e-3

    def val(ax, ay, at):
        return u.evaluator(*_compose(X, Y, T, ax, ay, at))

    f0 = val(0.0, 0.0, 0.0) if order == 2 else None
    out = []
    for a in np.eye(3) * eps:
        fp, fm = val(*a), val(*-a)
        out.append((fp - fm) / (2 * eps) if order == 1 else (fp - 2 * f0 + fm) / eps ** 2)
    return out


def _difference_quadrature(u: GridFunction, v, gamma: float, samples,
                           quad: SingularQuadrature, who: str) -> np.ndarray:
    """Difference integrals against |y|^{-Q-gamma} at the samples, core and tail added.

    Two functions: int [u(xy^-1)-u(x)][v(xy^-1)-v(x)] dy, first-order core.
    One function (v None): int [u(x)-u(xy^-1)] dy, second-order core.
    """
    for w in (u, v or u):
        _require_evaluator(w, who)
    quad = quad or SingularQuadrature.build()
    kernel = quad.w_haar * quad.gauge ** (-(4.0 + gamma))
    J1 = quad.r_min ** (2.0 - gamma) * (math.pi / 2.0) / (1.0 - gamma / 2.0)
    J2 = quad.r_min ** (4.0 - gamma) * (math.pi ** 2 / 128.0) / (2.0 - gamma / 2.0)
    tail_c = SIGMA_GAUGE * quad.r_max ** (-gamma) / gamma
    X, Y, T = np.array([[x.x[0], x.y[0], x.t] for x in samples], dtype=float).reshape(-1, 3).T
    ux = u.evaluator(X, Y, T)
    if v is None:
        xx, yy, tt = _flow_derivatives(u, X, Y, T, 2)
        core = -0.5 * ((xx + yy) * J1 / 2.0 + tt * J2)
        tail = ux * tail_c
    else:
        gu = _flow_derivatives(u, X, Y, T, 1)
        vx, gv = (ux, gu) if v is u else (v.evaluator(X, Y, T),
                                          _flow_derivatives(v, X, Y, T, 1))
        core = (gu[0] * gv[0] + gu[1] * gv[1]) / 2.0 * J1 + gu[2] * gv[2] * J2
        tail = ux * vx * tail_c
    out = np.empty(len(samples))
    for i, x in enumerate(samples):
        args = _right_args(x, quad)
        du = u.evaluator(*args) - ux[i]
        if v is None:
            out[i] = -float(np.sum(du * kernel))
        else:
            dv = du if v is u else v.evaluator(*args) - vx[i]
            out[i] = float(np.sum(du * dv * kernel))
    return out + core + tail


def d_s_values(u: GridFunction, s: float, samples, quad: SingularQuadrature = None) -> np.ndarray:
    """Square fractional integral D_s u at the samples, 0 < s < 1/2.

    D_s u(x)^2 = int |u(x y^-1) - u(x)|^2 |y|^{-Q-4s} dy, assembled as
    quadrature over [r_min, r_max] + first-order core + exact u(x)^2 tail.
    """
    if not (0 < s < 0.5):
        raise ValueError("D_s requires s in (0, 1/2)")
    return np.sqrt(np.maximum(_difference_quadrature(u, u, 4.0 * s, samples, quad, "D_s"), 0.0))


def t_s_values(u: GridFunction, v: GridFunction, s: float, samples,
               quad: SingularQuadrature = None) -> np.ndarray:
    """Bilinear form T_s(u, v)(x) = int [u(xy^-1)-u(x)][v(xy^-1)-v(x)] |y|^{-Q-2s} dy."""
    if not (0 < s < 0.5):
        raise ValueError("T_s requires s in (0, 1/2)")
    return _difference_quadrature(u, v, 2.0 * s, samples, quad, "T_s")


def ir_values(f: GridFunction, s: float, samples, quad: SingularQuadrature = None) -> np.ndarray:
    """The difference integral int (f(x) - f(x w^-1)) |w|^{-Q-2s} dw, 0 < s < 1/2.

    Multiplied by b(n, s) this is the pointwise form of the conformal
    fractional power.  The first-order term of the core integrates to zero by
    symmetry; the second-order correction along the left-invariant flows is
    kept (the integrand only vanishes linearly, so the core power is lower
    than in D_s).
    """
    if not (0 < s < 0.5):
        raise ValueError("the pointwise representation requires s in (0, 1/2)")
    return _difference_quadrature(f, None, 2.0 * s, samples, quad, "frac_conf_pointwise")
