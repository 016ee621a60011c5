"""Heisenberg group algebra, Koranyi geometry, grids and the test-function catalog.

Coordinates: a point of H^n is (x, y, t) with x, y in R^n and t in R, group law

    (x, y, t)(x', y', t') = (x+x', y+y', t+t' + (x.y' - x'.y)/2).

The homogeneous dimension is Q = 2n+2, the gauge |(z,t)| = (|z|^4 + 16 t^2)^{1/4},
and the anisotropic dilations are delta_r(z, t) = (r z, r^2 t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammainccinv, gammaln, kv, loggamma

__all__ = [
    "HeisenbergPoint",
    "GridSpec",
    "GridFunction",
    "TestFunctionId",
    "group_mul",
    "group_inv",
    "koranyi_norm",
    "dilate",
    "apply_vector_field",
    "sublaplacian_grid",
    "integrate",
    "make_test_function",
    "left_translate",
    "fd_weights",
]

BOUNDARY_DECAY_TOL = 1e-10


@dataclass(frozen=True)
class HeisenbergPoint:
    x: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "t", float(self.t))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be real vectors of the same length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y)) and math.isfinite(self.t)):
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def z_abs_sq(self) -> float:
        return float(np.dot(self.x, self.x) + np.dot(self.y, self.y))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, [self.t]])


def group_mul(a: HeisenbergPoint, b: HeisenbergPoint) -> HeisenbergPoint:
    """Group product a.b; the central coordinate picks up (x.y' - x'.y)/2."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    twist = 0.5 * (float(np.dot(a.x, b.y)) - float(np.dot(b.x, a.y)))
    return HeisenbergPoint(a.x + b.x, a.y + b.y, a.t + b.t + twist)


def _compose(ax, ay, at, bx, by, bt):
    """Coordinates of (ax, ay, at)(bx, by, bt) for n = 1, elementwise over arrays."""
    return ax + bx, ay + by, at + bt + 0.5 * (ax * by - bx * ay)


def group_inv(a: HeisenbergPoint) -> HeisenbergPoint:
    return HeisenbergPoint(-a.x, -a.y, -a.t)


def koranyi_norm(a: HeisenbergPoint) -> float:
    z2 = a.z_abs_sq
    return (z2 * z2 + 16.0 * a.t * a.t) ** 0.25


def dilate(r: float, a: HeisenbergPoint) -> HeisenbergPoint:
    if r <= 0:
        raise ValueError("dilation parameter must be positive")
    return HeisenbergPoint(r * a.x, r * a.y, r * r * a.t)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform box grid on R^{2n+1}.

    Axes use the endpoint-free layout -R, -R+h, ..., R-h (h = 2R/N) so the
    origin is a node and every interior node has its reflection -x on the grid.
    """

    n: int = 1
    R_z: float = 10.0
    R_t: float = 10.0
    N_z: int = 64
    N_t: int = 128

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.N_z % 2 or self.N_t % 2 or self.N_z < 8 or self.N_t < 8:
            raise ValueError("N_z and N_t must be even and at least 8")
        if self.R_z <= 0 or self.R_t <= 0:
            raise ValueError("half-widths must be positive")

    @property
    def h_z(self) -> float:
        return 2.0 * self.R_z / self.N_z

    @property
    def h_t(self) -> float:
        return 2.0 * self.R_t / self.N_t

    @property
    def z_axis(self) -> np.ndarray:
        return -self.R_z + self.h_z * np.arange(self.N_z)

    @property
    def t_axis(self) -> np.ndarray:
        return -self.R_t + self.h_t * np.arange(self.N_t)

    @property
    def shape(self) -> tuple:
        return (self.N_z,) * (2 * self.n) + (self.N_t,)

    @property
    def cell_volume(self) -> float:
        return self.h_z ** (2 * self.n) * self.h_t

    def meshgrid(self):
        axes = [self.z_axis] * (2 * self.n) + [self.t_axis]
        return np.meshgrid(*axes, indexing="ij")

    def z_radius_sq(self) -> np.ndarray:
        """|z|^2 over the z-grid, shape (N_z,)*2n."""
        axes = [self.z_axis] * (2 * self.n)
        mesh = np.meshgrid(*axes, indexing="ij")
        return sum(m * m for m in mesh)

    def require_interior(self, samples) -> None:
        """Raise ValueError unless there is a sample and every coordinate of every
        sample sits a quarter of its half-width inside the box: |x_j|, |y_j|
        <= 3 R_z/4, |t| <= 3 R_t/4."""
        if len(samples) == 0:
            raise ValueError("no samples")
        for p in samples:
            if (np.max(np.abs(np.concatenate([p.x, p.y]))) > self.R_z - self.R_z / 4.0
                    or abs(p.t) > self.R_t - self.R_t / 4.0):
                raise ValueError("samples must sit interior to the box by a margin of R/4")

    def interior_window(self) -> tuple:
        """Index of the interior block N//4 nodes, a quarter of the box, in from
        every face; the verification suites measure their errors there."""
        iz = slice(self.N_z // 4, self.N_z - self.N_z // 4)
        it = slice(self.N_t // 4, self.N_t - self.N_t // 4)
        return (iz,) * (2 * self.n) + (it,)


@dataclass
class GridFunction:
    """Real float64 samples on a GridSpec, with optional closed-form backing.

    Every function here is real, and its samples are checked once, when the
    GridFunction is built: a float64 or integer array is stored as float64,
    and a complex128 array only when its imaginary part is at most 1e-12 of
    its peak, as its real part.  Any other input raises ValueError: a larger
    imaginary part, or float32 and complex64 samples, which have already lost
    precision.

    ``evaluator(x, y, t)`` gives exact off-grid values when the function comes
    from the catalog (the singular quadrature and left translation read it),
    and ``radial_profile(u, t)`` (u = |z|^2) is the closed form it is built
    on; the spectral analysis reads neither.  It reads ``coeff_fn`` when
    present, else a ``heavy_tail`` function's ``central_profile(u, lam)`` =
    integral of f e^{i lam t} dt, else the grid samples; a central profile
    without heavy_tail or coeff_fn is refused.  Grid-only functions
    (products of computations) simply leave them None.  A heavy_tail central
    profile must also have ``on_lattice(lams, v)``: the (M, N_v) matrix of
    central_profile(v_j / lam_i, lam_i) on lattice nodes lam_i > 0, in one
    call.  The analysis fills its weights from that matrix and reads the
    point evaluation on one row only, as a check.  The catalog's conformal
    kernels evaluate it as an exponential sum, one matrix product; its
    gaussians have coeff_fn, and their central profile is what the tests'
    reference projection reads.
    """

    spec: GridSpec
    values: np.ndarray
    name: str = ""
    polyradial: bool = False
    evaluator: Optional[Callable] = None
    radial_profile: Optional[Callable] = None
    central_profile: Optional[Callable] = None
    coeff_fn: Optional[Callable] = None   # exact Laguerre coefficients c_k(lam), when known
    heavy_tail: bool = False   # power-law radial decay: the v-rule analysis, via on_lattice

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype == np.complex128:
            if np.max(np.abs(v.imag), initial=0.0) > 1e-12 * np.max(np.abs(v), initial=0.0):
                raise ValueError("grid samples with an imaginary part above 1e-12 of peak: "
                                 "grid functions are real")
            v = v.real.copy()
        elif v.dtype != np.float64 and v.dtype.kind not in "iu":
            raise ValueError(f"grid samples are float64, integers or complex128, not {v.dtype}")
        self.values = v.astype(np.float64, copy=False)
        if self.values.shape != self.spec.shape:
            raise ValueError(f"value shape {self.values.shape} does not match grid {self.spec.shape}")

    def copy_with(self, values: np.ndarray, name: str = None, polyradial: bool = None) -> "GridFunction":
        return GridFunction(
            spec=self.spec,
            values=values,
            name=self.name if name is None else name,
            polyradial=self.polyradial if polyradial is None else polyradial,
        )

    def boundary_max(self) -> float:
        v = np.abs(self.values)
        faces = []
        for ax in range(v.ndim):
            faces.append(np.max(np.take(v, 0, axis=ax)))
            faces.append(np.max(np.take(v, v.shape[ax] - 1, axis=ax)))
        return float(max(faces))

    def boundary_decay_ok(self) -> bool:
        """The largest boundary value is at most BOUNDARY_DECAY_TOL of peak."""
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return True
        return self.boundary_max() <= BOUNDARY_DECAY_TOL * peak


# ---------------------------------------------------------------------------
# Finite differences (Fornberg weights) and left-invariant vector fields
# ---------------------------------------------------------------------------

def fd_weights(offsets: Sequence[int], deriv: int) -> np.ndarray:
    """Finite-difference weights for the given derivative on integer offsets."""
    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    if deriv >= m:
        raise ValueError("need more stencil points than derivative order")
    # Solve the Vandermonde moment system; stencils here are small (<= 9 pts).
    A = np.vander(offsets, m, increasing=True).T
    b = np.zeros(m)
    b[deriv] = math.factorial(deriv)
    return np.linalg.solve(A, b)


def _stencil_half(order: int, deriv: int) -> int:
    """Half-width of _diff_axis's stencils: order + deriv points, made odd (the
    classical central widths for deriv 1 and 2), and as wide one-sided."""
    return (order + deriv) // 2


def _sublaplacian_halo(order: int) -> int:
    """Widest half-width of _sublaplacian_parts' stencils: d_xj d_t reaches a
    first-derivative half-width along x_j and along t.  Nodes this far from
    every face read no one-sided closure."""
    return max(_stencil_half(order, 1), _stencil_half(order, 2))


def _box_bounds(box: tuple, shape: tuple) -> list:
    """[(start, stop)] per axis of box, which takes one non-empty unit-step
    slice per grid axis, inside the grid; ValueError otherwise.  Slices are
    read through slice.indices, so open or negative bounds count like any
    other."""
    if len(box) != len(shape) or not all(isinstance(sl, slice) for sl in box):
        raise ValueError("a box takes one slice per grid axis")
    if any(v is not None and not -N <= v <= N
           for sl, N in zip(box, shape) for v in (sl.start, sl.stop)):
        raise ValueError("a box lies inside its grid")
    bounds = [sl.indices(N) for sl, N in zip(box, shape)]
    if any(step != 1 or start >= stop for start, stop, step in bounds):
        raise ValueError("a box takes non-empty unit-step slices")
    return [(start, stop) for start, stop, _ in bounds]


def _diff_axis(values: np.ndarray, axis: int, h: float, deriv: int, order: int) -> np.ndarray:
    """Derivative along one axis: central stencils inside, one-sided at the box edges.

    The interior is one C pass of scipy.ndimage.correlate1d; the zero padding
    it reads near the edges only touches the half-width rows that the
    one-sided closures then overwrite.
    """
    from scipy.ndimage import correlate1d

    half = _stencil_half(order, deriv)
    npts = 2 * half + 1
    N = values.shape[axis]
    if N < npts:
        raise ValueError("grid too coarse for the requested stencil")
    wc = fd_weights(np.arange(-half, half + 1), deriv)
    out = correlate1d(values, wc, axis=axis, mode="constant")
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    # one-sided edges, same formal order
    for i in range(half):
        w_lo = fd_weights(np.arange(npts) - i, deriv)
        o[i] = np.tensordot(w_lo, v[:npts], axes=(0, 0))
        w_hi = fd_weights(np.arange(-npts + 1, 1) + i, deriv)
        o[N - 1 - i] = np.tensordot(w_hi, v[N - npts:], axes=(0, 0))
    out /= h ** deriv
    return out


def apply_vector_field(field_id: str, u: GridFunction, order: int = 4) -> GridFunction:
    """Apply X_j, Y_j or T by finite differences.

    With the group law used here (central twist (x.y' - x'.y)/2) the
    left-invariant horizontal fields are

        X_j = d/dx_j - (y_j/2) d/dt,    Y_j = d/dy_j + (x_j/2) d/dt,

    which satisfy [X_j, Y_j] = T and commute with left translations.  field_id
    is "T", "Xj" or "Yj" with 1 <= j <= n.  Stencils are central of the given
    order with one-sided closures at the box edges (no periodic wrap).
    """
    spec = u.spec
    n = spec.n
    if field_id not in {"T"} | {f"{kind}{j}" for kind in "XY" for j in range(1, n + 1)}:
        raise ValueError(f"unknown vector field {field_id!r}")
    dt = _diff_axis(u.values, 2 * n, spec.h_t, 1, order)
    if field_id == "T":
        return u.copy_with(dt, polyradial=False)
    return u.copy_with(_horizontal_field(u, field_id, dt, order), polyradial=False)


def _horizontal_field(u: GridFunction, field_id: str, dt: np.ndarray, order: int) -> np.ndarray:
    """Values of X_j u or Y_j u (field_id "Xj" or "Yj") given dt, u's d/dt
    pass of the same order: callers that apply several fields share one."""
    spec = u.spec
    n = spec.n
    j = int(field_id[1:]) - 1
    # (axis differentiated, axis of the d/dt coefficient, its sign)
    axis, coord, sign = (j, n + j, -0.5) if field_id[0] == "X" else (n + j, j, 0.5)
    shape = [1] * (2 * n + 1)
    shape[coord] = spec.N_z
    coef = sign * spec.z_axis.reshape(shape)
    return _diff_axis(u.values, axis, spec.h_z, 1, order) + coef * dt


def sublaplacian_grid(u: GridFunction, order: int = 4) -> GridFunction:
    """L = -sum_j (X_j^2 + Y_j^2) assembled from pure and mixed second derivatives.

    Expanding the squares gives
    L = -[ sum_j (d_xj^2 + d_yj^2) - sum_j (y_j d_xj - x_j d_yj) d_t + |z|^2/4 d_t^2 ];
    the mixed term vanishes identically on polyradial data.
    """
    return u.copy_with(_sublaplacian_parts(u, order)[0], polyradial=u.polyradial)


def _sublaplacian_parts(u: GridFunction, order: int):
    """(values of sublaplacian_grid(u, order), the d_tt pass inside it) on u's grid.

    Callers that measure on a box of the grid crop both; values further than
    _sublaplacian_halo(order) from every face are central-stencil values."""
    spec = u.spec
    n = spec.n
    taxis = 2 * n
    vals = u.values
    dt = _diff_axis(vals, taxis, spec.h_t, 1, order)
    dtt = _diff_axis(vals, taxis, spec.h_t, 2, order)
    mesh = np.meshgrid(*[spec.z_axis] * taxis, indexing="ij")
    r2 = sum(m * m for m in mesh)
    acc = 0.25 * r2[..., None] * dtt
    for j in range(n):
        acc = acc + _diff_axis(vals, j, spec.h_z, 2, order)
        acc = acc + _diff_axis(vals, n + j, spec.h_z, 2, order)
        acc = acc - mesh[n + j][..., None] * _diff_axis(dt, j, spec.h_z, 1, order)
        acc = acc + mesh[j][..., None] * _diff_axis(dt, n + j, spec.h_z, 1, order)
    return -acc, dtt


def integrate(u: GridFunction) -> float:
    """Haar integral (Lebesgue dz dt) of the real samples: trapezoid rule =
    cell-volume sum on the endpoint-free layout.  Warns (UserWarning) when the
    boundary has not decayed."""
    if not u.boundary_decay_ok():
        warnings.warn(f"boundary decay {u.boundary_max():.3e} exceeds "
                      f"{BOUNDARY_DECAY_TOL:.0e} of peak", stacklevel=2)
    return float(np.sum(u.values) * u.spec.cell_volume)


# ---------------------------------------------------------------------------
# Test-function catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionId:
    """Closed-form Schwartz-class catalog entry.

    family 'gaussian' with params (a, b): exp(-a |z|^2 - b t^2).
    family 'conformal-kernel' with params (s0, rho0): the integrable kernel
    ((rho0^2+|z|^2)^2 + 16 t^2)^{-(n+1+s0)/2}.
    Optional modifiers: dilate by r > 0, left-translate by a point.  Both
    parameters and the dilation must be finite and positive (ValueError).
    """

    family: str
    params: tuple
    dilation: float = 1.0
    translation: Optional[tuple] = None   # flattened (x, y, t)

    __test__ = False  # not a pytest class

    def __post_init__(self):
        if self.family not in ("gaussian", "conformal-kernel"):
            raise ValueError(f"unknown test-function family {self.family!r}")
        if len(self.params) != 2:
            raise ValueError(f"family {self.family!r} takes two parameters, not {self.params!r}")
        if not all(math.isfinite(p) and p > 0 for p in self.params):
            raise ValueError("family parameters must be finite and strictly positive")
        if not (math.isfinite(self.dilation) and self.dilation > 0):
            raise ValueError("dilation must be finite and positive")

    def label(self) -> str:
        s = f"{self.family}{self.params}"
        if self.dilation != 1.0:
            s += f"∘δ_{self.dilation:g}"
        if self.translation is not None:
            s += "∘τ"
        return s

    def dilated(self, r: float) -> "TestFunctionId":
        return replace(self, dilation=self.dilation * r)

    def translated(self, a: HeisenbergPoint) -> "TestFunctionId":
        if self.translation is not None:
            raise ValueError("only a single translation modifier is supported")
        return replace(self, translation=tuple(a.as_array()))


def _gaussian_profiles(a: float, b: float):
    def radial(u, t):
        return np.exp(-a * u - b * t * t)

    def central(u, lam):
        # integral of exp(-b t^2) e^{i lam t} dt = sqrt(pi/b) exp(-lam^2/(4b))
        return np.exp(-a * u) * math.sqrt(math.pi / b) * np.exp(-lam * lam / (4.0 * b))

    return radial, central


def _gaussian_coeffs(a: float, b: float, n: int):
    """Exact Laguerre coefficients of exp(-a|z|^2 - b t^2) on H^n.

    c_k(lam) = pi^n sqrt(pi/b) e^{-lam^2/(4b)} (a - |lam|/4)^k / (a + |lam|/4)^{k+n},
    from the Laplace transform int_0^inf e^{-pu} L_k^{n-1}(qu) u^{n-1} du
    = Gamma(k+n)/k! (p-q)^k / p^{k+n} (DLMF 18.17), whose Gamma(k+n)/k! is
    Gamma(n) dim P_k; evaluated in logs so deep k stay finite.
    """

    def coeffs(k, lam):
        k = np.asarray(k)
        al = abs(lam)
        num = a - al / 4.0
        den = a + al / 4.0
        amp = math.pi ** n * math.sqrt(math.pi / b) * math.exp(-lam * lam / (4.0 * b))
        sign = np.where(num >= 0, 1.0, np.where(k % 2 == 0, 1.0, -1.0))
        mag = np.exp(k * math.log(abs(num)) - (k + n) * math.log(den)) if num != 0 else \
            np.where(k == 0, 1.0 / den ** n, 0.0)
        return amp * sign * mag

    return coeffs


@dataclass(frozen=True)
class _LatticeProfile:
    """A heavy-tail central profile: ``profile(u, lam)`` at points, and
    ``profile.on_lattice(lams, v)``, the (M, N_v) matrix of
    profile(v_j / lam_i, lam_i) over nodes lam_i > 0, in one evaluation."""

    point: Callable
    lattice: Callable

    def __call__(self, u, lam):
        return self.point(u, lam)

    def on_lattice(self, lams, v) -> np.ndarray:
        lams = np.asarray(lams, dtype=float)
        if np.any(lams <= 0):
            raise ValueError("on_lattice takes lattice nodes lam > 0")
        return self.lattice(lams, np.asarray(v, dtype=float))


SCHLAFLI_TOL = 1e-15       # relative error of each part of the Schlafli rule


def _schlafli_rule(nu: float, w_lo: float, w_hi: float):
    """Nodes s_q = t_q - 1 and weights omega_q with
    int_1^inf e^{-w t} (t^2 - 1)^{nu - 1/2} dt = e^{-w} sum_q omega_q e^{-w s_q}
    to SCHLAFLI_TOL relative for every w in [w_lo, w_hi] (nu >= 1/2).

    The rule is the trapezoid rule in sigma = ln(t - 1), which converges
    exponentially in the step (Trefethen-Weideman, SIAM Rev. 56 (2014)): the
    integrand decays like e^{(nu+1/2) sigma} as sigma -> -inf and
    double-exponentially past w e^sigma ~ 2 nu.  Each part keeps its error
    below SCHLAFLI_TOL:
    - the step h is the largest of 1/4, 3/16, 1/8, 1/16 whose aliasing term
      2 |Gamma(2nu + 2 pi i/h)| / Gamma(2nu) is below it; that is the term of
      the small-w limit, the larger of the two limits;
    - sigma_lo cuts a head below (w_hi e^sigma)^{nu+1/2} / Gamma(nu+3/2);
    - sigma_hi cuts a tail below Q(2nu, w_lo e^sigma), the regularized
      upper incomplete gamma function.
    The nodes are integer multiples of the dyadic h, so every spacing is
    exactly h: numpy.arange with a non-dyadic step takes it from its first
    two values and biases the rule by about 1e-14.
    """
    a = 2.0 * nu
    h = next(h for h in (0.25, 0.1875, 0.125, 0.0625)
             if 2.0 * math.exp(loggamma(a + 2j * math.pi / h).real - gammaln(a)) <= SCHLAFLI_TOL)
    lo = (math.log(SCHLAFLI_TOL) + gammaln(nu + 1.5)) / (nu + 0.5) - math.log(w_hi)
    hi = math.log(gammainccinv(a, SCHLAFLI_TOL) / w_lo)
    s = np.exp(h * np.arange(math.floor(lo / h), math.ceil(hi / h) + 1))
    return s, h * s * (s * (2.0 + s)) ** (nu - 0.5)


def _conformal_kernel_profiles(s0: float, rho0: float, n: int, amp: float):
    """(radial, central) of amp times the kernel ((rho0^2+|z|^2)^2 + 16 t^2)^{-beta},
    beta = (n+1+s0)/2; the amplitude carries a dilation, which maps the
    family into itself: phi_{s0,rho0} o delta_r = r^{-4 beta} phi_{s0,rho0/r}."""
    beta = 0.5 * (n + 1 + s0)
    nu = beta - 0.5
    cbeta = amp * 2.0 * math.sqrt(math.pi) / math.exp(gammaln(beta))

    def radial(u, t):
        A = rho0 * rho0 + u
        return amp * (A * A + 16.0 * t * t) ** (-beta)

    def central(u, lam):
        # integral of (A^2+16t^2)^{-beta} e^{i lam t} dt via the Macdonald function
        A = rho0 * rho0 + np.asarray(u, dtype=float)
        al = np.abs(lam)
        if al == 0.0:
            c0 = amp * math.sqrt(math.pi) * math.exp(gammaln(beta - 0.5) - gammaln(beta)) / 4.0
            return c0 * A ** (1.0 - 2.0 * beta)
        w = al * A / 4.0
        return A ** (1.0 - 2.0 * beta) / 4.0 * cbeta * (w / 2.0) ** nu * kv(nu, w)

    def lattice(lams, v):
        # Schlafli's integral for K_nu (DLMF 10.32.8) makes central(v/lam, lam)
        #   = pi/(2 Gamma(nu+1/2)^2) (lam/8)^{2 nu}
        #     int_1^inf e^{-(lam rho0^2 + v) t/4} (t^2 - 1)^{nu-1/2} dt,
        # and on the rule's nodes e^{-w t} splits into a lam factor and a v
        # factor: the matrix is one product E_lam E_v of rank the node count.
        # e^{-w t} is taken as e^{-w} e^{-w s}, s = t - 1, so that no exponent
        # rounds s away against 1
        a = lams * (rho0 * rho0) / 4.0
        b = v / 4.0
        s, om = _schlafli_rule(nu, a.min() + b.min(), a.max() + b.max())
        c = amp * math.pi / 2.0 * math.exp(-2.0 * gammaln(beta))
        row = c * (lams / 8.0) ** (2.0 * nu) * np.exp(-a)
        E_lam = row[:, None] * om * np.exp(-np.outer(a, s))
        E_v = np.exp(-np.outer(s, b)) * np.exp(-b)
        return E_lam @ E_v

    return radial, _LatticeProfile(central, lattice)


def make_test_function(fid: TestFunctionId, spec: GridSpec) -> GridFunction:
    """Sample a catalog function on the grid, attaching its closed forms.

    A dilation maps each family into itself, so a dilated member is the
    undilated one at other parameters: gaussian(a, b) o delta_r =
    gaussian(a r^2, b r^4), and conformal-kernel(s0, rho0) o delta_r =
    r^{-2(n+1+s0)} conformal-kernel(s0, rho0/r).
    """
    n = spec.n
    if fid.translation is not None and n != 1:
        raise NotImplementedError("translated catalog members implemented for n=1")
    r = fid.dilation
    if fid.family == "gaussian":
        a, b = fid.params
        a, b = a * r * r, b * r ** 4
        radial, central = _gaussian_profiles(a, b)
        coeffs = _gaussian_coeffs(a, b, n)
        heavy = False
    else:
        s0, rho0 = fid.params
        radial, central = _conformal_kernel_profiles(s0, rho0 / r, n, r ** (-2.0 * (n + 1 + s0)))
        coeffs = None
        heavy = True

    def evaluator(x, y, t):
        return radial(x * x + y * y, t)

    vals = radial(spec.z_radius_sq()[..., None], spec.t_axis)
    base = GridFunction(spec=spec, values=vals, name=replace(fid, translation=None).label(),
                        polyradial=True, evaluator=evaluator, radial_profile=radial,
                        central_profile=central, coeff_fn=coeffs, heavy_tail=heavy)
    if fid.translation is None:
        return base
    # translated member: (tau_a f)(p) = f(a p); not z-radial any more
    ax, ay, at = fid.translation
    return left_translate(base, HeisenbergPoint([ax], [ay], at))


# ---------------------------------------------------------------------------
# Left translation
# ---------------------------------------------------------------------------

def left_translate(u: GridFunction, a: HeisenbergPoint) -> GridFunction:
    """(tau_a u)(p) = u(a p), sampled on u's grid from u's closed form.

    The result keeps the composed evaluator for the singular quadrature.  An
    input without an evaluator raises ValueError: resampling grid-only data
    would lose accuracy.  The translation amount should stay below R/4 to
    keep the boundary loss small.
    """
    spec = u.spec
    if spec.n != 1:
        raise NotImplementedError("left_translate implemented for n=1")
    if u.evaluator is None:
        raise ValueError("left_translate samples a closed form: the input needs an evaluator")
    if koranyi_norm(a) > spec.R_z / 4.0:
        warnings.warn("translation exceeds R/4; boundary loss may be significant", stacklevel=2)
    f = u.evaluator

    def evaluator(x, y, t):
        return f(*_compose(a.x[0], a.y[0], a.t, x, y, t))

    return GridFunction(spec=spec, values=evaluator(*spec.meshgrid()), name=u.name + "∘τ",
                        polyradial=False, evaluator=evaluator)
