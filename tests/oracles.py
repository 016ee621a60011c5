"""Independent references the tests compare the package against.

Nothing in `hfrac` imports this module: each oracle is a brute-force or
textbook route to a quantity the package computes another way.

- `unfold`: the whole symmetric lambda lattice from the positive half the
  package stores, so the references below sum plainly over lam and -lam
  instead of folding the pair as the package does.
- `laguerre_phi_table`: the plain full-table Laguerre recurrence, against
  the chunked in-place sweep behind analysis and synthesis.
- `central_transform`, `inverse_central_transform`, `twisted_convolve` and
  `group_convolve`: the t-transform of a whole grid function into central
  slices, one per z-node, and the lambda-inversion of a slice array (the
  package transforms only the radial profile of polyradial samples); the
  direct lambda-twisted convolution of central slices (Thangavelu, Lectures
  on Hermite and Laguerre Expansions, 1993); and group convolution through
  them, against the Laguerre coefficient product.
- `extension_gradient_sq_at`: exact off-grid |nabla U|^2 of the Poisson
  extension, against the g* spline tables and the grid stencils.
- `gradient_sq`: |nabla U|^2 of an extension field by grid stencils and
  the rho-companions.
- `check_polyradial`: the dihedral symmetry of a sampled catalog member.
- `RowLatticeProfile`: a central profile whose lattice evaluation is its
  point evaluation row by row, for profiles that have no closed lattice
  form (skewed or shifted ones the analysis must refuse).
- `u_rule` and `profile_coeffs`: the Laguerre coefficients of a central
  profile on the u-rule, u = |z|^2 in (0, R_z^2], the quadrature route the
  package's closed-form coefficients replaced, against those closed forms.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from hfrac.group import GridFunction, GridSpec
from hfrac.kernels import ExtensionField
from hfrac.lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    _project,
    _require_conjugate,
    analyze_polyradial,
    proj_dim,
    slices_at_radii_batch,
    synthesize,
)
from hfrac.operators import SpectralMultiplier
from hfrac.squarefn import _gradient_sq, _horizontal_sq


# ---------------------------------------------------------------------------
# the whole lambda lattice
# ---------------------------------------------------------------------------

def unfold(grid: LambdaGrid, rows):
    """(nodes, weights, rows) of the symmetric lattice whose positive half grid is.

    The nodes are -lam_i and lam_i, ascending; the weights are the plain d-lam
    weights, half the grid's folded ones; the row at -lam is the conjugate of
    the row at lam, as for a real function.  rows holds one entry per node
    lam > 0: coefficient rows or central slices.
    """
    nodes = np.concatenate([-grid.nodes[::-1], grid.nodes])
    weights = 0.5 * np.concatenate([grid.weights[::-1], grid.weights])
    return nodes, weights, [np.conj(r) for r in rows[::-1]] + list(rows)


# ---------------------------------------------------------------------------
# Laguerre recurrence
# ---------------------------------------------------------------------------

def laguerre_phi_table(K: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Table of l_k(x) = L_k^alpha(x) e^{-x/2} for k = 0..K; shape (K+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((K + 1,) + x.shape)
    w = np.exp(-0.5 * x)
    out[0] = w
    if K >= 1:
        out[1] = (1.0 + alpha - x) * w
    for k in range(1, K):
        out[k + 1] = ((2 * k + alpha + 1 - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1)
    return out


# ---------------------------------------------------------------------------
# twisted and group convolution
# ---------------------------------------------------------------------------

def central_transform(u: GridFunction, grid: LambdaGrid) -> np.ndarray:
    """f^lam(z) = integral of f(z, t) e^{i lam t} dt by trapezoid over the t-grid,
    as an (M,) + z-grid shape array, one slice per lambda node lam > 0; for a
    real f the slice at -lam is the conjugate."""
    spec = u.spec
    ph = np.exp(1j * np.outer(grid.nodes, spec.t_axis)) * spec.h_t
    sl = u.values.reshape(-1, spec.N_t) @ ph.T                         # (Nz^2n, M)
    return np.moveaxis(sl, -1, 0).reshape((grid.M,) + spec.shape[:-1])


def inverse_central_transform(slices: np.ndarray, grid: LambdaGrid, spec: GridSpec) -> GridFunction:
    """f(z,t) = (2 pi)^{-1} integral of e^{-i lam t} f^lam(z) d lam on the node set.

    slices is the (M,) + z-grid shape array of central_transform at the nodes
    lam > 0; the sum runs over the whole lattice, lam and -lam, that unfold
    rebuilds.  The sum is complex: GridFunction refuses it unless its
    imaginary part is at most 1e-12 of peak, as a real function's is.  Warns
    (UserWarning) when the slices at lam_max still carry 1e-8 of peak."""
    edge = np.max(np.abs(slices[-1]))
    peak = np.max(np.abs(slices)) or 1.0
    if edge > 1e-8 * peak:
        warnings.warn(f"slices at |lam|max carry {edge/peak:.2e} of peak; "
                      "lambda window may truncate", stacklevel=2)
    nodes, weights, full = unfold(grid, slices)
    phases = np.exp(-1j * np.outer(nodes, spec.t_axis)) * weights[:, None] / (2 * math.pi)
    vals = np.stack(full).reshape(nodes.size, -1).T @ phases
    return GridFunction(spec=spec, values=vals.reshape(spec.shape), name="icentral",
                        polyradial=False)


def twisted_convolve(F: np.ndarray, G: np.ndarray, lam: float, spec: GridSpec) -> np.ndarray:
    """Direct lambda-twisted convolution of two z-slices (n=1), O(N^4).

    (F *_lam G)(z) = integral F(z - z') G(z') exp(i lam/2 Im(z conj(z'))) dz'.
    The brute-force oracle; the package convolves polyradial data through
    Laguerre coefficients, where *_lam is diagonal.
    """
    if spec.n != 1:
        raise NotImplementedError("direct twisted convolution implemented for n=1")
    N = spec.N_z
    if F.shape != (N, N) or G.shape != (N, N):
        raise ValueError("slices must live on the z-grid")
    xs = spec.z_axis
    half = N // 2
    Fp = np.zeros((2 * N, 2 * N), dtype=complex)
    Fp[half:half + N, half:half + N] = F        # Fp[i - j + N/2 + N/2 ...] see below
    # F(z_i - z_j) = F[(i-j) + N/2]; with padding offset, index (i - j + N/2) + N/2
    A = np.exp(0.5j * lam * np.outer(xs, xs))    # A[iy, jx] = e^{i lam y_i x_j / 2}
    B = np.conj(A)                               # B[ix, jy] = e^{-i lam x_i y_j / 2}
    idx = np.arange(N)
    out = np.zeros((N, N), dtype=complex)
    for jx in range(N):
        rows = idx - jx + half + half            # position of (ix - jx) in Fp's first axis
        slab = Fp[rows]                          # (N, 2N): slab[ix, m] = F[ix-jx, m-N/2-N/2...]
        cols = idx[:, None] - idx[None, :] + half + half   # (iy, jy)
        FF = slab[:, cols]                       # (ix, iy, jy)
        D = B * G[jx][None, :]                   # (ix, jy)
        M1 = np.einsum("xab,xb->xa", FF, D)
        out += M1 * A[:, jx][None, :]
    return out * spec.h_z ** 2


def group_convolve(f: GridFunction, g: GridFunction, grid: Optional[LambdaGrid] = None,
                   quad: Optional[AnalysisQuadrature] = None) -> GridFunction:
    """Group convolution f * g.

    Polyradial inputs go through the Laguerre route, where the per-lambda
    twisted convolution is exactly diagonal (coefficient product).  General
    inputs fall back to the direct per-lambda twisted convolution, which is
    O(N^4) per slice and only sensible on coarse grids.
    """
    if f.spec.shape != g.spec.shape:
        raise ValueError("operands must share a grid")
    if f.polyradial and g.polyradial:
        grid = grid or LambdaGrid.build()
        S = analyze_polyradial(f, grid, quad).convolve(analyze_polyradial(g, grid, quad))
        out = synthesize(S, f.spec)
        out.name = f"{f.name}*{g.name}"
        return out
    if grid is None:
        lim = math.pi / (2.0 * f.spec.h_t)
        grid = LambdaGrid.build(lam_max=min(40.0, 0.95 * lim))
    Ff = central_transform(f, grid)
    Fg = central_transform(g, grid)
    conv = np.empty_like(Ff)
    for i, lam in enumerate(grid.nodes):
        conv[i] = twisted_convolve(Ff[i], Fg[i], lam, f.spec)
    out = inverse_central_transform(conv, grid, f.spec)
    out.name = f"{f.name}*{g.name}"
    return out


# ---------------------------------------------------------------------------
# gradients of extension fields
# ---------------------------------------------------------------------------

def extension_gradient_sq_at(Su: PolyradialSpectrum, rho: float,
                             u_vals: np.ndarray, t_vals: np.ndarray) -> np.ndarray:
    """|nabla U|^2 at scattered (|z|^2, t) for the Poisson extension of Su.

    One batched expansion delivers the Poisson slice, its radial derivative and
    the rho-derivative slice together; the t-derivative reuses the same slices
    with the modulated inversion.  Each inversion is the plain complex sum over
    the whole lattice, lam and -lam, that unfold rebuilds.
    """
    u_vals = np.atleast_1d(np.asarray(u_vals, dtype=float))
    t_vals = np.atleast_1d(np.asarray(t_vals, dtype=float))
    mults = [SpectralMultiplier("poisson_nonconf", rho, n=Su.n),
             SpectralMultiplier("poisson_nonconf_drho", rho, n=Su.n)]
    sl, dsl = slices_at_radii_batch(Su, u_vals.ravel(), mults, want_du=True)
    nodes, weights, _ = unfold(Su.grid, sl[0])
    ph = np.exp(-1j * np.outer(nodes, t_vals.ravel())) * weights[:, None] / (2 * math.pi)
    U, dU, dR = (np.stack(unfold(Su.grid, s)[2]) for s in (sl[0], dsl[0], sl[1]))
    du = np.real(np.sum(dU * ph, axis=0))
    dt = np.real(np.sum(U * ph * (-1j * nodes[:, None]), axis=0))
    dr = np.real(np.sum(dR * ph, axis=0))
    return _gradient_sq(u_vals.ravel(), du, dt, dr).reshape(u_vals.shape)


def gradient_sq(fld: ExtensionField) -> list:
    """|nabla U|^2 per level: horizontal stencils, d_rho from the companions.

    Each is on the fields' whole grid, which for the builders' fields is the
    measured window plus the residual's stencil halo, not the whole box."""
    out = []
    for j, rho in enumerate(fld.rho_levels):
        u = fld.levels[j]
        d1 = fld.rho_derivative(j)
        vals = _horizontal_sq(u) + np.abs(d1) ** 2
        out.append(u.copy_with(vals, name=f"|grad U|^2@rho={rho:g}"))
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def check_polyradial(f: GridFunction) -> bool:
    """Dihedral-symmetry test: values at grid nodes with equal |z| must agree.

    Checks the full reflection/swap orbit of the z-coordinates, which is
    what the node set realizes exactly, to 1e-12 of peak.
    """
    if f.spec.n != 1:
        raise NotImplementedError("polyradial validation implemented for n=1")
    v = f.values
    scale = float(np.max(np.abs(v))) or 1.0
    # interior block excluding the -R face, which has no mirror node
    w = v[1:, 1:, :]
    for cand in (w[::-1, :, :], w[:, ::-1, :], np.swapaxes(w, 0, 1)):
        if np.max(np.abs(w - cand)) > 1e-12 * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# central profiles on the heavy-tail lattice
# ---------------------------------------------------------------------------

class RowLatticeProfile:
    """profile(u, lam) with on_lattice(lams, v) built from it one row per
    node: the (M, N_v) matrix of profile(v / lam_i, lam_i)."""

    def __init__(self, point):
        self.point = point

    def __call__(self, u, lam):
        return self.point(u, lam)

    def on_lattice(self, lams, v):
        return np.stack([self.point(v / lam, lam) for lam in lams])


# ---------------------------------------------------------------------------
# the u-rule projection of a central profile
# ---------------------------------------------------------------------------

def u_rule(quad: AnalysisQuadrature):
    """(nodes, weights) of quad's u-rule: Gauss-Legendre in xi = sqrt(u/U) on
    u = |z|^2 in (0, U], U = quad.u_span, with quad.n_radial nodes."""
    return AnalysisQuadrature._sqrt_rule(quad.u_span, quad.n_radial)


def profile_coeffs(f: GridFunction, grid: LambdaGrid, quad: AnalysisQuadrature,
                   nodes=None, kmax: Optional[int] = None) -> list:
    """c_k(lam) = <f^lam, phi_k^lam> / dim P_k from f's central profile on quad's
    u-rule, one complex row per lattice node in nodes (default: every node),
    k below the node's cap and below kmax.

    The slice f^lam(u) on the rule, times the angular constant pi^n/Gamma(n),
    the rule's weights and u^{n-1}, is projected through the Laguerre
    recurrence as a real and an imaginary weight row.  A profile that breaks
    f^{-lam} = conj f^lam on the largest slice raises ValueError."""
    n = f.spec.n
    u, w = u_rule(quad)
    w = math.pi ** n / math.gamma(n) * w * u ** (n - 1)
    nodes = range(grid.M) if nodes is None else nodes
    lams = grid.nodes[list(nodes)]
    caps = [int(grid.k_caps[i]) if kmax is None else min(int(grid.k_caps[i]), kmax) for i in nodes]
    slices = [f.central_profile(u, lam) for lam in lams]
    _require_conjugate(f.central_profile, [u] * len(lams), lams, slices, "central profile")
    out = []
    for lam, cap, sl in zip(lams, caps, slices):
        W = w * np.asarray(sl, dtype=complex)
        re, im = _project(0.5 * lam * u, np.stack([W.real, W.imag]), [cap, cap], n - 1)
        out.append((re + 1j * im) / proj_dim(np.arange(cap), n))
    return out
