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
from scipy.special import gammaln, kv

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

    @staticmethod
    def origin(n: int = 1) -> "HeisenbergPoint":
        return HeisenbergPoint(np.zeros(n), np.zeros(n), 0.0)


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
    origin is a node and every interior node has its mirror image on the grid.
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
        """Raise ValueError unless every coordinate of every sample sits a quarter
        of its half-width inside the box: |x_j|, |y_j| <= 3 R_z/4, |t| <= 3 R_t/4."""
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

    def full_window(self) -> tuple:
        """Index of the whole grid, in the form of interior_window()."""
        return (slice(None),) * (2 * self.n + 1)


@dataclass
class GridFunction:
    """Complex samples on a GridSpec, with optional closed-form backing.

    ``evaluator(x, y, t)`` gives exact off-grid values when the function comes
    from the catalog (the singular quadrature and left translation read it),
    and ``radial_profile(u, t)`` (u = |z|^2) is the closed form it is built
    on; the spectral analysis reads neither.  It reads ``coeff_fn`` when
    present, else ``central_profile(u, lam)`` = integral of f e^{i lam t} dt,
    else the grid samples.  Grid-only functions (products of computations)
    simply leave them None.
    """

    spec: GridSpec
    values: np.ndarray
    name: str = ""
    polyradial: bool = False
    evaluator: Optional[Callable] = None
    radial_profile: Optional[Callable] = None
    central_profile: Optional[Callable] = None
    coeff_fn: Optional[Callable] = None   # exact Laguerre coefficients c_k(lam), when known
    # power-law radial decay: use extended-domain analysis, which needs
    # central_profile(u, lam) to depend on lam only through |lam|
    heavy_tail: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values)
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

    def check_polyradial(self) -> bool:
        """Dihedral-symmetry test: values at grid nodes with equal |z| must agree.

        Checks the full reflection/swap orbit of the z-coordinates, which is
        what the node set realizes exactly, to 1e-12 of peak.
        """
        if self.spec.n != 1:
            raise NotImplementedError("polyradial validation implemented for n=1")
        v = self.values
        scale = float(np.max(np.abs(v))) or 1.0
        # interior block excluding the -R face, which has no mirror node
        w = v[1:, 1:, :]
        for cand in (w[::-1, :, :], w[:, ::-1, :], np.swapaxes(w, 0, 1)):
            if np.max(np.abs(w - cand)) > 1e-12 * scale:
                return False
        return True


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


def _widen(box: tuple, shape: tuple, halo: int) -> tuple:
    """(wide, crop): box grown by halo nodes per side, and the index of box in it.

    A box that comes within halo of a grid face gets the whole grid: the
    one-sided closures there are matrix products whose rounding can depend on
    the extent of the other axes, so only the whole grid reproduces them bit
    for bit.  Slices are read through slice.indices, so open or negative
    bounds widen like any other."""
    if len(box) != len(shape):
        raise ValueError("a box takes one slice per grid axis")
    bounds = [sl.indices(N) for sl, N in zip(box, shape)]
    if any(step != 1 or start >= stop for start, stop, step in bounds):
        raise ValueError("a box takes non-empty unit-step slices")
    whole = any(start < halo or stop > N - halo for (start, stop, _), N in zip(bounds, shape))
    lo = [0 if whole else start - halo for start, _, _ in bounds]
    wide = tuple(slice(a, N if whole else stop + halo)
                 for a, (_, stop, _), N in zip(lo, bounds, shape))
    crop = tuple(slice(start - a, stop - a) for a, (start, stop, _) in zip(lo, bounds))
    return wide, crop


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
    if values.dtype == np.complex128:
        # correlate1d would split complex input into a real and an imaginary
        # pass over strided lines; the float64 view, read as (..., 2), is one
        pairs = np.ascontiguousarray(values).view(np.float64).reshape(values.shape + (2,))
        out = correlate1d(pairs, wc, axis=axis, mode="constant").view(complex).reshape(values.shape)
    else:
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
    if field_id == "T":
        return u.copy_with(_diff_axis(u.values, 2 * n, spec.h_t, 1, order), polyradial=False)
    if field_id not in {f"{kind}{j}" for kind in "XY" for j in range(1, n + 1)}:
        raise ValueError(f"unknown vector field {field_id!r}")
    j = int(field_id[1:]) - 1
    # (axis differentiated, axis of the d/dt coefficient, its sign)
    axis, coord, sign = (j, n + j, -0.5) if field_id[0] == "X" else (n + j, j, 0.5)
    dt = _diff_axis(u.values, 2 * n, spec.h_t, 1, order)
    shape = [1] * (2 * n + 1)
    shape[coord] = spec.N_z
    coef = sign * spec.z_axis.reshape(shape)
    return u.copy_with(_diff_axis(u.values, axis, spec.h_z, 1, order) + coef * dt, polyradial=False)


def sublaplacian_grid(u: GridFunction, order: int = 4) -> GridFunction:
    """L = -sum_j (X_j^2 + Y_j^2) assembled from pure and mixed second derivatives.

    Expanding the squares gives
    L = -[ sum_j (d_xj^2 + d_yj^2) - sum_j (y_j d_xj - x_j d_yj) d_t + |z|^2/4 d_t^2 ];
    the mixed term vanishes identically on polyradial data.
    """
    return u.copy_with(_sublaplacian_parts(u, order, u.spec.full_window())[0],
                       polyradial=u.polyradial)


def _sublaplacian_parts(u: GridFunction, order: int, box: tuple):
    """(sublaplacian_grid(u, order) values, the d_tt pass inside it) on box.

    box is an index of u's grid, one unit-step slice per axis (interior_window()
    or full_window()).  Every stencil pass runs on box widened by the widest
    half-width (_widen: the whole grid when that reaches past a face), and
    the result is cropped to box.  Central stencils there read the same
    neighbours in the same order as on the whole grid, so every value is the
    whole-grid value bit for bit.
    """
    spec = u.spec
    n = spec.n
    taxis = 2 * n
    # d_xj d_t reaches a first-derivative half-width along x_j and along t
    halo = max(_stencil_half(order, 1), _stencil_half(order, 2))
    wide, crop = _widen(box, spec.shape, halo)
    vals = np.ascontiguousarray(u.values[wide])
    dt = _diff_axis(vals, taxis, spec.h_t, 1, order)
    dtt = _diff_axis(vals, taxis, spec.h_t, 2, order)
    mesh = np.meshgrid(*(spec.z_axis[sl] for sl in wide[:taxis]), indexing="ij")
    r2 = sum(m * m for m in mesh)
    acc = 0.25 * r2[..., None] * dtt
    for j in range(n):
        acc = acc + _diff_axis(vals, j, spec.h_z, 2, order)
        acc = acc + _diff_axis(vals, n + j, spec.h_z, 2, order)
        acc = acc - mesh[n + j][..., None] * _diff_axis(dt, j, spec.h_z, 1, order)
        acc = acc + mesh[j][..., None] * _diff_axis(dt, n + j, spec.h_z, 1, order)
    return -acc[crop], dtt[crop]


def integrate(u: GridFunction) -> complex:
    """Haar integral (Lebesgue dz dt): trapezoid rule = cell-volume sum on the
    endpoint-free layout.  Warns (UserWarning) when the boundary has not decayed."""
    if not u.boundary_decay_ok():
        warnings.warn(f"boundary decay {u.boundary_max():.3e} exceeds "
                      f"{BOUNDARY_DECAY_TOL:.0e} of peak", stacklevel=2)
    return complex(np.sum(u.values) * u.spec.cell_volume)


# ---------------------------------------------------------------------------
# Test-function catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionId:
    """Closed-form Schwartz-class catalog entry.

    family 'gaussian' with params (a, b): exp(-a |z|^2 - b t^2).
    family 'conformal-kernel' with params (s0, rho0): the integrable kernel
    ((rho0^2+|z|^2)^2 + 16 t^2)^{-(n+1+s0)/2}.
    Optional modifiers: dilate by r > 0, left-translate by a point.
    """

    family: str
    params: tuple
    dilation: float = 1.0
    translation: Optional[tuple] = None   # flattened (x, y, t)

    __test__ = False  # not a pytest class

    def __post_init__(self):
        if self.family not in ("gaussian", "conformal-kernel"):
            raise ValueError(f"unknown test-function family {self.family!r}")
        if any(p <= 0 for p in self.params):
            raise ValueError("family parameters must be strictly positive")
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")

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


def _gaussian_coeffs(a: float, b: float):
    """Exact Laguerre coefficients of exp(-a|z|^2 - b t^2) for n = 1.

    c_k(lam) = pi sqrt(pi/b) e^{-lam^2/(4b)} (a - |lam|/4)^k / (a + |lam|/4)^{k+1},
    from the elementary integral of e^{-pu} L_k(qu); evaluated in logs so deep
    k stay finite.
    """

    def coeffs(k, lam):
        k = np.asarray(k)
        al = abs(lam)
        num = a - al / 4.0
        den = a + al / 4.0
        amp = math.pi * math.sqrt(math.pi / b) * math.exp(-lam * lam / (4.0 * b))
        sign = np.where(num >= 0, 1.0, np.where(k % 2 == 0, 1.0, -1.0))
        mag = np.exp(k * math.log(abs(num)) - (k + 1) * math.log(den)) if num != 0 else \
            np.where(k == 0, 1.0 / den, 0.0)
        return amp * sign * mag

    return coeffs


def _conformal_kernel_profiles(s0: float, rho0: float, n: int):
    beta = 0.5 * (n + 1 + s0)
    nu = beta - 0.5
    cbeta = 2.0 * math.sqrt(math.pi) / math.exp(gammaln(beta))

    def radial(u, t):
        A = rho0 * rho0 + u
        return (A * A + 16.0 * t * t) ** (-beta)

    def central(u, lam):
        # integral of (A^2+16t^2)^{-beta} e^{i lam t} dt via the Macdonald function
        A = rho0 * rho0 + np.asarray(u, dtype=float)
        al = np.abs(lam)
        if al == 0.0:
            c0 = math.sqrt(math.pi) * math.exp(gammaln(beta - 0.5) - gammaln(beta)) / 4.0
            return c0 * A ** (1.0 - 2.0 * beta)
        w = al * A / 4.0
        return A ** (1.0 - 2.0 * beta) / 4.0 * cbeta * (w / 2.0) ** nu * kv(nu, w)

    return radial, central


def make_test_function(fid: TestFunctionId, spec: GridSpec) -> GridFunction:
    """Sample a catalog function on the grid, attaching its closed forms."""
    n = spec.n
    if fid.translation is not None and n != 1:
        raise NotImplementedError("translated catalog members implemented for n=1")
    coeffs = None
    if fid.family == "gaussian":
        a, b = fid.params
        radial, central = _gaussian_profiles(a, b)
        if n == 1:
            coeffs = _gaussian_coeffs(a, b)
        heavy = False
    else:
        s0, rho0 = fid.params
        radial, central = _conformal_kernel_profiles(s0, rho0, n)
        heavy = True

    r = fid.dilation
    if r != 1.0:
        base_radial, base_central, base_coeffs = radial, central, coeffs

        def radial(u, t, _f=base_radial, _r=r):
            return _f(_r * _r * u, _r * _r * t)

        def central(u, lam, _f=base_central, _r=r):
            # f(delta_r .)^lam (u) = r^{-2} f^{lam/r^2}(r^2 u)
            return _f(_r * _r * u, lam / (_r * _r)) / (_r * _r)

        if base_coeffs is not None:
            Q = 2 * n + 2

            def coeffs(k, lam, _c=base_coeffs, _r=r, _Q=Q):
                # c_k(f o delta_r)(lam) = r^{-Q} c_k(f)(lam / r^2)
                return _c(k, lam / (_r * _r)) * _r ** (-_Q)
        else:
            coeffs = None

    def evaluator(x, y, t):
        return radial(x * x + y * y, t)

    vals = radial(spec.z_radius_sq()[..., None], spec.t_axis)
    base = GridFunction(spec=spec, values=np.asarray(vals, dtype=np.complex128),
                        name=replace(fid, translation=None).label(), polyradial=True,
                        evaluator=evaluator, radial_profile=radial, central_profile=central,
                        coeff_fn=coeffs, heavy_tail=heavy)
    if fid.translation is None:
        return base
    # translated member: (tau_a f)(p) = f(a p); not z-radial any more
    ax, ay, at = fid.translation
    return left_translate(base, HeisenbergPoint([ax], [ay], at))


# ---------------------------------------------------------------------------
# Left translation of grid data (tricubic resampling)
# ---------------------------------------------------------------------------

def _cubic_kernel_1d(frac: np.ndarray) -> np.ndarray:
    """Lagrange cubic weights for samples at offsets (-1, 0, 1, 2)."""
    f = frac
    w0 = -f * (f - 1.0) * (f - 2.0) / 6.0
    w1 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
    w2 = -(f + 1.0) * f * (f - 2.0) / 2.0
    w3 = (f + 1.0) * f * (f - 1.0) / 6.0
    return np.stack([w0, w1, w2, w3])


def _gather_axis(values: np.ndarray, axis: int, idx: np.ndarray) -> np.ndarray:
    """Take along an axis with zero padding outside the valid index range."""
    N = values.shape[axis]
    ok = (idx >= 0) & (idx < N)
    safe = np.clip(idx, 0, N - 1)
    out = np.take(values, safe, axis=axis)
    if not np.all(ok):
        shape = [1] * out.ndim
        shape[axis] = out.shape[axis]
        out = out * ok.reshape(shape)
    return out


def left_translate(u: GridFunction, a: HeisenbergPoint) -> GridFunction:
    """(tau_a u)(p) = u(a p), resampled on u's grid.

    Catalog members are re-evaluated exactly, and the result keeps the composed
    evaluator for the singular quadrature; grid-only data uses separable
    cubic (tricubic) interpolation with zero extension outside the box.  The
    translation amount should stay below R/4 to keep the boundary loss small.
    """
    spec = u.spec
    if spec.n != 1:
        raise NotImplementedError("left_translate implemented for n=1")
    if koranyi_norm(a) > spec.R_z / 4.0:
        warnings.warn("translation exceeds R/4; boundary loss may be significant", stacklevel=2)
    if u.evaluator is not None:
        f = u.evaluator

        def evaluator(x, y, t):
            return f(*_compose(a.x[0], a.y[0], a.t, x, y, t))

        vals = evaluator(*spec.meshgrid())
        return GridFunction(spec=spec, values=np.asarray(vals, dtype=np.complex128),
                            name=u.name + "∘τ", polyradial=False, evaluator=evaluator)

    xs, ts = spec.z_axis, spec.t_axis
    # the target x and y coordinates a.x + x, a.y + y are uniform shifts:
    # interpolate axis by axis
    vals = u.values
    for axis, shift in ((0, a.x[0]), (1, a.y[0])):
        fz = (shift + xs - xs[0]) / spec.h_z
        iz = np.floor(fz).astype(int)
        wz = _cubic_kernel_1d(fz - iz)
        shape = [1, 1, 1]
        shape[axis] = spec.N_z
        acc = np.zeros_like(vals)
        for m in range(4):
            acc += wz[m].reshape(shape) * _gather_axis(vals, axis, iz + (m - 1))
        vals = acc
    # t axis: shift depends on (x, y) through the group twist
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    shift = _compose(a.x[0], a.y[0], a.t, X, Y, 0.0)[2]     # value added to t
    ft = (shift[..., None] + ts[None, None, :] - ts[0]) / spec.h_t
    it = np.floor(ft).astype(int)
    frac = ft - it
    wt = _cubic_kernel_1d(frac)
    out = np.zeros_like(vals)
    flat = vals.reshape(-1, spec.N_t)
    it_flat = it.reshape(-1, spec.N_t)
    for m in range(4):
        idx = it_flat + (m - 1)
        ok = (idx >= 0) & (idx < spec.N_t)
        safe = np.clip(idx, 0, spec.N_t - 1)
        gathered = np.take_along_axis(flat, safe, axis=1) * ok
        out += (wt[m].reshape(-1, spec.N_t) * gathered).reshape(vals.shape)
    return GridFunction(spec=spec, values=out, name=u.name + "∘τ", polyradial=False)
