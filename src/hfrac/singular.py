"""Singular-integral quadrature for the nonlocal kernels |y|^{-Q-gamma}.

Geometry (n = 1): with the gauge r = (|z|^4 + 16 t^2)^{1/4} and the
parametrization |z|^2 = r^2 cos(theta), 4t = r^2 sin(theta), phi the angle of
z, the Haar measure is dy = (r^3/4) dr dtheta dphi.  The engine integrates

    difference-combination(y) * |y|^{-Q-gamma}

over a log-radial x Gauss-Legendre(theta) x uniform(phi) node set, adds a
first-order Taylor model for the ball r < r_min (the differences vanish there
to the order that makes the kernel integrable), and closes with the exact
power tail beyond r_max where the test functions have effectively vanished.

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

from .group import GridFunction, HeisenbergPoint

__all__ = ["SingularQuadrature", "BALL_VOLUME_UNIT", "SIGMA_GAUGE",
           "d_s_values", "t_s_values", "ir_values", "horizontal_derivatives"]

BALL_VOLUME_UNIT = math.pi ** 2 / 8.0       # |B_1| on H^1
SIGMA_GAUGE = 4.0 * BALL_VOLUME_UNIT        # surface constant: |B_r| = SIGMA r^Q / Q


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

    @classmethod
    def build(cls, r_min: float = 1e-3, r_max: float = 60.0, per_decade: int = 14,
              n_theta: int = 24, n_phi: int = 24) -> "SingularQuadrature":
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
                   r_min=r_min, r_max=r_max)

    def refine(self, factor: float = 1.4) -> "SingularQuadrature":
        base = len(np.unique(self.gauge))
        decades = math.log10(self.r_max / self.r_min)
        return SingularQuadrature.build(
            r_min=self.r_min / 2.0, r_max=self.r_max,
            per_decade=int(round(base / decades * factor)),
            n_theta=int(round(24 * factor)), n_phi=int(round(24 * factor)))


def _require_evaluator(u: GridFunction, who: str):
    if u.evaluator is None:
        raise ValueError(f"{who} needs a closed-form evaluator on the input "
                         "(catalog functions and their products carry one)")
    if u.spec.n != 1:
        raise NotImplementedError(f"{who} implemented for n = 1")


def _right_args(x: HeisenbergPoint, q: SingularQuadrature):
    """Coordinates of x . (-y) over the node set."""
    X1, Y1, T1 = x.x[0], x.y[0], x.t
    px = X1 - q.xs
    py = Y1 - q.ys
    pt = T1 - q.ts + 0.5 * (q.xs * Y1 - X1 * q.ys)
    return px, py, pt


def _left_args(x: HeisenbergPoint, q: SingularQuadrature):
    """Coordinates of (-y) . x over the node set."""
    X1, Y1, T1 = x.x[0], x.y[0], x.t
    px = X1 - q.xs
    py = Y1 - q.ys
    pt = T1 - q.ts + 0.5 * (X1 * q.ys - q.xs * Y1)
    return px, py, pt


def horizontal_derivatives(u: GridFunction, x: HeisenbergPoint, eps: float = 1e-4,
                           invariance: str = "left"):
    """(X u, Y u, T u)(x) by central differences of the evaluator.

    'left' gives the left-invariant fields X = d_x - (y/2) d_t,
    Y = d_y + (x/2) d_t (flows: right multiplication); 'right' the
    right-invariant ones (flows: left multiplication).
    """
    X1, Y1, T1 = x.x[0], x.y[0], x.t
    ev = u.evaluator

    def val(p):
        return complex(np.asarray(ev(np.array([p[0]]), np.array([p[1]]), np.array([p[2]])))[0]).real

    def flow(direction, e):
        a = (e if direction == 0 else 0.0, e if direction == 1 else 0.0,
             e if direction == 2 else 0.0)
        ax, ay, at = a
        if invariance == "left":   # x . (a)
            return (X1 + ax, Y1 + ay, T1 + at + 0.5 * (X1 * ay - ax * Y1))
        return (X1 + ax, Y1 + ay, T1 + at + 0.5 * (ax * Y1 - X1 * ay))   # (a) . x

    out = []
    for d in range(3):
        out.append((val(flow(d, eps)) - val(flow(d, -eps))) / (2 * eps))
    return tuple(out)


def _second_flow_derivatives(u: GridFunction, x: HeisenbergPoint, eps: float = 1e-3):
    """Second derivatives along the right-invariant flows (for the ir core)."""
    X1, Y1, T1 = x.x[0], x.y[0], x.t
    ev = u.evaluator

    def val(ax, ay, at):
        px = X1 + ax
        py = Y1 + ay
        pt = T1 + at + 0.5 * (ax * Y1 - X1 * ay)
        return complex(np.asarray(ev(np.array([px]), np.array([py]), np.array([pt])))[0]).real

    f0 = val(0.0, 0.0, 0.0)
    xx = (val(eps, 0, 0) - 2 * f0 + val(-eps, 0, 0)) / eps ** 2
    yy = (val(0, eps, 0) - 2 * f0 + val(0, -eps, 0)) / eps ** 2
    tt = (val(0, 0, eps) - 2 * f0 + val(0, 0, -eps)) / eps ** 2
    return xx, yy, tt


def _core_constants(gamma: float, r_min: float):
    J1 = r_min ** (2.0 - gamma) * (math.pi / 2.0) / (1.0 - gamma / 2.0)
    J2 = r_min ** (4.0 - gamma) * (math.pi ** 2 / 128.0) / (2.0 - gamma / 2.0)
    return J1, J2


def d_s_values(u: GridFunction, s: float, samples, quad: SingularQuadrature = None) -> np.ndarray:
    """Square fractional integral D_s u at the samples, 0 < s < 1/2.

    D_s u(x)^2 = int |u(x y^-1) - u(x)|^2 |y|^{-Q-4s} dy, assembled as
    quadrature over [r_min, r_max] + first-order core + exact u(x)^2 tail.
    """
    if not (0 < s < 0.5):
        raise ValueError("D_s requires s in (0, 1/2)")
    _require_evaluator(u, "D_s")
    quad = quad or SingularQuadrature.build()
    gamma = 4.0 * s
    kernel = quad.w_haar * quad.gauge ** (-(4.0 + gamma))
    J1, J2 = _core_constants(gamma, quad.r_min)
    tail_c = SIGMA_GAUGE * quad.r_max ** (-gamma) / gamma
    out = np.empty(len(samples))
    for i, x in enumerate(samples):
        px, py, pt = _right_args(x, quad)
        ux = complex(np.asarray(u.evaluator(np.array([x.x[0]]), np.array([x.y[0]]),
                                            np.array([x.t])))[0]).real
        diff = np.real(u.evaluator(px, py, pt)) - ux
        main = float(np.sum(diff * diff * kernel))
        gx, gy, gt = horizontal_derivatives(u, x, invariance="left")
        core = (gx * gx + gy * gy) / 2.0 * J1 + gt * gt * J2
        out[i] = math.sqrt(max(main + core + ux * ux * tail_c, 0.0))
    return out


def t_s_values(u: GridFunction, v: GridFunction, s: float, samples,
               quad: SingularQuadrature = None) -> np.ndarray:
    """Bilinear form T_s(u, v)(x) = int [u(xy^-1)-u(x)][v(xy^-1)-v(x)] |y|^{-Q-2s} dy."""
    if not (0 < s < 0.5):
        raise ValueError("T_s requires s in (0, 1/2)")
    _require_evaluator(u, "T_s")
    _require_evaluator(v, "T_s")
    quad = quad or SingularQuadrature.build()
    gamma = 2.0 * s
    kernel = quad.w_haar * quad.gauge ** (-(4.0 + gamma))
    J1, J2 = _core_constants(gamma, quad.r_min)
    tail_c = SIGMA_GAUGE * quad.r_max ** (-gamma) / gamma
    out = np.empty(len(samples))
    for i, x in enumerate(samples):
        px, py, pt = _right_args(x, quad)
        xa = np.array([x.x[0]]); ya = np.array([x.y[0]]); ta = np.array([x.t])
        ux = complex(np.asarray(u.evaluator(xa, ya, ta))[0]).real
        vx = complex(np.asarray(v.evaluator(xa, ya, ta))[0]).real
        du = np.real(u.evaluator(px, py, pt)) - ux
        dv = np.real(v.evaluator(px, py, pt)) - vx
        main = float(np.sum(du * dv * kernel))
        gxu, gyu, gtu = horizontal_derivatives(u, x, invariance="left")
        gxv, gyv, gtv = horizontal_derivatives(v, x, invariance="left")
        core = (gxu * gxv + gyu * gyv) / 2.0 * J1 + gtu * gtv * J2
        out[i] = main + core + ux * vx * tail_c
    return out


def ir_values(f: GridFunction, s: float, samples, quad: SingularQuadrature = None) -> np.ndarray:
    """The difference integral int (f(x) - f(w^-1 x)) |w|^{-Q-2s} dw, 0 < s < 1/2.

    Multiplied by b(n, s) this is the pointwise form of the conformal
    fractional power.  The first-order term of the core integrates to zero by
    symmetry; the second-order correction along the right-invariant flows is
    kept (the integrand only vanishes linearly, so the core power is lower
    than in D_s).
    """
    if not (0 < s < 0.5):
        raise ValueError("the pointwise representation requires s in (0, 1/2)")
    _require_evaluator(f, "frac_conf_pointwise")
    quad = quad or SingularQuadrature.build()
    gamma = 2.0 * s
    kernel = quad.w_haar * quad.gauge ** (-(4.0 + gamma))
    J1, J2 = _core_constants(gamma, quad.r_min)
    tail_c = SIGMA_GAUGE * quad.r_max ** (-gamma) / gamma
    out = np.empty(len(samples))
    for i, x in enumerate(samples):
        px, py, pt = _left_args(x, quad)
        fx = complex(np.asarray(f.evaluator(np.array([x.x[0]]), np.array([x.y[0]]),
                                            np.array([x.t])))[0]).real
        diff = fx - np.real(f.evaluator(px, py, pt))
        main = float(np.sum(diff * kernel))
        xx, yy, tt = _second_flow_derivatives(f, x)
        core = -0.5 * ((xx + yy) * J1 / 2.0 + tt * J2)
        out[i] = main + core + fx * tail_c
    return out
