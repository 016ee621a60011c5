"""Central-variable transform, Laguerre analysis/synthesis and twisted convolution.

For polyradial f the central slice f^lam expands in scaled Laguerre functions

    phi_k^lam(z) = L_k^{n-1}(|lam| |z|^2 / 2) exp(-|lam| |z|^2 / 4),

with f^lam = (2 pi)^{-n} |lam|^n sum_k c_k(lam) phi_k^lam.  In this
normalization twisted convolution is the plain product of coefficients and
every operator in the package acts diagonally on the (k, lam) lattice with
eigenvalue parameter mu = (2k+n)|lam|.

The k-truncation is adaptive: a slice at small |lam| needs k up to O(1/|lam|)
to resolve unit-scale profiles (the basis widens like |lam|^{-1/2}), so each
node carries its own cap  k_cap = max(K+1, min(K_CAP_MAX, ceil(k_energy_cap/|lam|))).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, roots_legendre

from .group import GridFunction, GridSpec, integrate
from .report import VerificationReport

__all__ = [
    "LambdaGrid",
    "AnalysisQuadrature",
    "CentralSliceField",
    "PolyradialSpectrum",
    "laguerre_phi_table",
    "central_transform",
    "inverse_central_transform",
    "twisted_convolve",
    "analyze_polyradial",
    "synthesize",
    "synthesize_batch",
    "synthesize_at",
    "slices_at_radii_batch",
    "group_convolve",
    "plancherel_check",
    "parseval_pair",
]


def hs_constant(n: int) -> float:
    """Plancherel constant for the Hilbert-Schmidt side, (2 pi)^{-(n+1)}.

    This is the value consistent with the Schroedinger representation and the
    Weyl-transform normalization W(phi_k) = (2 pi)^n |lam|^{-n} P_k used
    throughout.
    """
    return (2.0 * math.pi) ** (-(n + 1))


def proj_dim(k: np.ndarray, n: int) -> np.ndarray:
    """dim P_k = C(k+n-1, n-1), the Hermite eigenspace multiplicity."""
    k = np.asarray(k)
    return np.exp(gammaln(k + n) - gammaln(k + 1) - gammaln(n)).round()


# ---------------------------------------------------------------------------
# Lambda grid
# ---------------------------------------------------------------------------

# Panel layout tuned so each Gauss-Legendre panel resolves e^{i lam t} for
# |t| up to ~12: a panel of width W needs roughly 0.6 W t_max / pi + O(5)
# nodes, which makes ~150 per sign the floor for lam_max = 40.
DEFAULT_PANELS = (1e-3, 0.1, 0.5, 2.5, 10.0, 25.0, 40.0)
DEFAULT_COUNTS = (10, 12, 14, 34, 40, 40)
K_CAP_MAX = 12000          # deepest Laguerre truncation of any lambda node


@dataclass(frozen=True)
class LambdaGrid:
    """Symmetric composite Gauss-Legendre grid on [-L, -l0] U [l0, L], 0 excluded."""

    nodes: np.ndarray      # strictly ascending, symmetric under lam -> -lam
    weights: np.ndarray    # plain d-lam weights
    k_caps: np.ndarray     # per-node Laguerre truncation, equal at lam and -lam
    K: int = 64

    def __post_init__(self):
        if np.any(self.nodes == 0.0):
            raise ValueError("lambda grid must exclude 0")
        if np.any(self.weights <= 0.0):
            raise ValueError("lambda weights must be positive")
        # mirror_index pairs node i with M-1-i, which is -lam_i only on an
        # ascending grid; synthesis and analysis rely on that pairing
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("lambda nodes must be strictly ascending")
        if not np.array_equal(self.nodes, -self.nodes[::-1]):
            raise ValueError("lambda grid must be symmetric under lam -> -lam")
        if not np.array_equal(self.k_caps, self.k_caps[::-1]):
            raise ValueError("k_caps must agree at lam and -lam")

    @classmethod
    def build(cls, lam_min: float = 1e-3, lam_max: float = 40.0,
              nodes_per_sign: int = 150, K: int = 64,
              k_energy_cap: float = 36.0, panels=None) -> "LambdaGrid":
        if panels is None:
            edges = [e for e in DEFAULT_PANELS if lam_min < e < lam_max]
            edges = [lam_min] + edges + [lam_max]
            base = np.array(DEFAULT_COUNTS, dtype=float)
            counts = np.maximum(2, np.round(base[: len(edges) - 1]
                                            * nodes_per_sign / base[: len(edges) - 1].sum()).astype(int))
        else:
            edges, counts = panels
            edges = list(edges)
        nodes, weights = [], []
        for a, b, m in zip(edges[:-1], edges[1:], counts):
            x, w = roots_legendre(int(m))
            nodes.append((x + 1) * (b - a) / 2 + a)
            weights.append(w * (b - a) / 2)
        pos = np.concatenate(nodes)
        wts = np.concatenate(weights)
        order = np.argsort(pos)
        pos, wts = pos[order], wts[order]
        # caps count coefficients: k runs over 0..cap-1, so the base block is K+1 deep
        caps = np.maximum(K + 1, np.minimum(K_CAP_MAX, np.ceil(k_energy_cap / pos))).astype(int)
        return cls.mirrored(pos, wts, caps, K)

    @classmethod
    def mirrored(cls, pos: np.ndarray, wts: np.ndarray, caps: np.ndarray, K: int) -> "LambdaGrid":
        """The symmetric grid whose positive half is the ascending nodes pos,
        with their weights and caps."""
        return cls(nodes=np.concatenate([-pos[::-1], pos]), weights=np.concatenate([wts[::-1], wts]),
                   k_caps=np.concatenate([caps[::-1], caps]), K=K)

    @property
    def M(self) -> int:
        return self.nodes.size

    def mirror_index(self) -> np.ndarray:
        """Index of -lam for each node."""
        return np.arange(self.M)[::-1]

    def mirror_pairs(self):
        """(i, j, lam) for every node lam = nodes[i] > 0 and its mirror nodes[j] = -lam."""
        mirror = self.mirror_index()
        return [(i, int(mirror[i]), self.nodes[i]) for i in range(self.M // 2, self.M)]

    def refine(self) -> "LambdaGrid":
        """1.25 times the nodes per sign and the base depth K, on the default template.

        Raises ValueError unless the grid is build()'s layout on the default
        panels over [1e-3, 40] (any count per panel, any K) with the
        k_energy_cap = 36 caps: rebuilding another grid would change its
        window or its caps.
        """
        counts = np.histogram(self.nodes[self.M // 2:], DEFAULT_PANELS)[0]
        # an empty panel gets a node, which the template has and this grid lacks
        template = LambdaGrid.build(K=self.K, panels=(DEFAULT_PANELS, np.maximum(counts, 1)))
        if not all(np.array_equal(getattr(template, a), getattr(self, a))
                   for a in ("nodes", "weights", "k_caps")):
            raise ValueError("refine rebuilds the default lambda template: the grid must be "
                             "LambdaGrid.build()'s layout on [1e-3, 40] with its k-caps")
        factor = 1.25
        per_sign = int(round((self.M // 2) * factor))
        return LambdaGrid.build(nodes_per_sign=per_sign, K=int(round(self.K * factor)))


# ---------------------------------------------------------------------------
# Weighted Laguerre recurrence
#
# _laguerre_blocks is the one run of the recurrence that analysis (_project)
# and synthesis (_expand_multi) share: both contract its k-chunks against
# their weights or coefficients in real arithmetic, real and imaginary parts
# as separate rows, so no table block is ever promoted to complex.
# laguerre_phi_table stays a plain full-table recurrence, the independent
# reference the tests compare against.
# ---------------------------------------------------------------------------

PROJECT_CHUNK = 256        # k-rows per table block of the analysis contraction
EXPAND_CHUNK = 384         # k-rows per table block of the synthesis contraction


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


def _laguerre_blocks(x: np.ndarray, alpha: int, kmax: int, chunk: int):
    """Yield (k0, block) with block[j] = l_{k0+j}(x) for k0 + j < kmax, k0 = 0, chunk, ...

    The one run of the weighted recurrence behind analysis and synthesis; the
    block buffer is reused, so a consumer copies what it keeps past the next step.
    """
    w = np.exp(-0.5 * x)
    prev, cur = w, (1.0 + alpha - x) * w
    block = np.empty((min(chunk, kmax), x.size))
    for k0 in range(0, kmax, chunk):
        klen = min(chunk, kmax - k0)
        for j in range(klen):
            k = k0 + j
            if k == 0:
                block[j] = prev
            elif k == 1:
                block[j] = cur
            else:
                prev, cur = cur, ((2 * (k - 1) + alpha + 1 - x) * cur
                                  - (k - 1 + alpha) * prev) / k
                block[j] = cur
        yield k0, block[:klen]


def _project(x: np.ndarray, Wmat: np.ndarray, kcaps, alpha: int) -> list:
    """c_i[k] = sum_j Wmat[i, j] l_k(x_j) for k < kcaps[i], every row in one recurrence.

    The real and imaginary parts of each row are interleaved into one real
    matrix, so each table block is contracted in real arithmetic and the
    product's (re, im) column pairs read back as complex; rows drop out of the
    product as k passes their cap.  Returns per-row arrays of length kcaps[i].
    """
    caps = np.asarray(kcaps, dtype=int)
    order = np.argsort(caps)[::-1]
    caps = caps[order]
    W = np.empty((2 * caps.size, x.size))
    W[0::2], W[1::2] = Wmat[order].real, Wmat[order].imag
    cols = [np.empty(int(c), dtype=complex) for c in caps]
    for k0, block in _laguerre_blocks(x, alpha, int(caps[0]), PROJECT_CHUNK):
        active = int(np.count_nonzero(caps > k0))
        vals = (block @ W[:2 * active].T).view(complex)      # (klen, active)
        for i in range(active):
            hi = min(int(caps[i]), k0 + len(block))
            cols[i][k0:hi] = vals[:hi - k0, i]
    out = [None] * caps.size
    for i, oi in enumerate(order):
        out[oi] = cols[i]
    return out


def _expand_multi(x: np.ndarray, C: np.ndarray, alpha: int, want_deriv: bool = False):
    """sum_k C[r, k] l_k(x) for every real row r at once, k-chunked.

    Returns (R, len(x)) [and the x-derivative when asked]: each table block is
    contracted against all rows in real arithmetic.  d/dx l_k^a =
    -l_{k-1}^{a+1} - l_k^a / 2, so the derivative reads a second table of type
    alpha+1, one row behind.
    """
    R, kcap = C.shape
    acc = np.zeros((R, x.size))
    if want_deriv:
        dacc = np.zeros_like(acc)
        blocks1 = _laguerre_blocks(x, alpha + 1, kcap, EXPAND_CHUNK)
        last1 = np.zeros(x.size)                 # l_{k0-1}^{a+1}; l_{-1} = 0
    for k0, block in _laguerre_blocks(x, alpha, kcap, EXPAND_CHUNK):
        Ck = C[:, k0:k0 + len(block)]
        acc += Ck @ block
        if want_deriv:
            _, block1 = next(blocks1)
            dblock = -0.5 * block
            dblock[0] -= last1
            dblock[1:] -= block1[:-1]
            last1 = block1[-1].copy()
            dacc += Ck @ dblock
    return (acc, dacc) if want_deriv else acc


# ---------------------------------------------------------------------------
# Central-variable transform
#
# _t_transform is the one forward t-transform, the grid trapezoid of
# central_transform, which analyze_polyradial's grid route reads;
# _lambda_phases is the one lambda-inversion, contracted against the slices of
# every synthesis, grid or point, of inverse_central_transform and of the
# squarefn gradients.  The lattice omits the band |lam| < lam_min; a
# correction for it belongs in these two functions and nowhere else.
# ---------------------------------------------------------------------------

@dataclass
class CentralSliceField:
    """Per-lambda z-slices f^lam(z) over the grid's z-nodes."""

    grid: LambdaGrid
    spec: GridSpec
    slices: np.ndarray        # (M,) + z-grid shape

    def conj_symmetry_error(self) -> float:
        mirror = self.grid.mirror_index()
        err = np.abs(self.slices - np.conj(self.slices[mirror]))
        scale = np.max(np.abs(self.slices)) or 1.0
        return float(np.max(err) / scale)


def _t_transform(F: np.ndarray, grid: LambdaGrid, t: np.ndarray, w) -> np.ndarray:
    """int F(..., t) e^{i lam t} dt on the rule (t, w) at every lambda node: (..., M)."""
    return F @ (np.exp(1j * np.outer(grid.nodes, t)) * w).T


def _lambda_phases(grid: LambdaGrid, t: np.ndarray, dt: bool = False) -> np.ndarray:
    """(M, Nt) matrix (2 pi)^{-1} w_lam e^{-i lam t} of f = (2 pi)^{-1} int f^lam e^{-i lam t} dlam;
    with dt, times -i lam (the t-derivative)."""
    ph = np.exp(-1j * np.outer(grid.nodes, t)) * (grid.weights / (2.0 * math.pi))[:, None]
    return ph * (-1j * grid.nodes[:, None]) if dt else ph


def _alias_guard(grid: LambdaGrid, spec: GridSpec):
    lim = math.pi / (2.0 * spec.h_t)
    bad = np.abs(grid.nodes) > lim
    if np.any(bad):
        raise ValueError(
            f"lambda nodes up to {np.max(np.abs(grid.nodes)):g} exceed the grid's "
            f"resolvable limit pi/(2 h_t) = {lim:g}; refine the t-grid or shrink the grid")


def central_transform(u: GridFunction, grid: LambdaGrid) -> CentralSliceField:
    """f^lam(z) = integral of f(z, t) e^{i lam t} dt by trapezoid over the t-grid.

    Warns (UserWarning) when the input has not decayed at the box boundary."""
    spec = u.spec
    _alias_guard(grid, spec)
    if not u.boundary_decay_ok():
        warnings.warn("input does not decay at the box boundary", stacklevel=2)
    sl = _t_transform(u.values.reshape(-1, spec.N_t), grid, spec.t_axis, spec.h_t)  # (Nz^2, M)
    return CentralSliceField(grid=grid, spec=spec,
                             slices=np.moveaxis(sl, -1, 0).reshape((grid.M,) + spec.shape[:-1]))


def inverse_central_transform(F: CentralSliceField) -> GridFunction:
    """f(z,t) = (2 pi)^{-1} integral of e^{-i lam t} f^lam(z) d lam on the node set.

    Warns (UserWarning) when the slices at |lam|max still carry 1e-8 of peak."""
    grid, spec = F.grid, F.spec
    edge = np.max(np.abs(F.slices[[0, -1]]))
    peak = np.max(np.abs(F.slices)) or 1.0
    if edge > 1e-8 * peak:
        warnings.warn(f"slices at |lam|max carry {edge/peak:.2e} of peak; "
                      "lambda window may truncate", stacklevel=2)
    vals = F.slices.reshape(grid.M, -1).T @ _lambda_phases(grid, spec.t_axis)
    return GridFunction(spec=spec, values=vals.reshape(spec.shape), name="icentral",
                        polyradial=False)


def twisted_convolve(F: np.ndarray, G: np.ndarray, lam: float, spec: GridSpec) -> np.ndarray:
    """Direct lambda-twisted convolution of two z-slices (n=1), O(N^4).

    (F *_lam G)(z) = integral F(z - z') G(z') exp(i lam/2 Im(z conj(z'))) dz'.
    Kept as the brute-force oracle; production convolution of polyradial data
    goes through Laguerre coefficients where *_lam is diagonal.
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


# ---------------------------------------------------------------------------
# Polyradial spectra
# ---------------------------------------------------------------------------

@dataclass
class PolyradialSpectrum:
    """Ragged coefficient table c_k(lam) on the (k, lam) lattice.

    coeffs[i] has length grid.k_caps[i].
    """

    grid: LambdaGrid
    n: int
    coeffs: list
    name: str = ""

    def _require_same_lattice(self, other: "PolyradialSpectrum") -> None:
        """Raise ValueError unless other has this dimension n and these lambda nodes."""
        if other.n != self.n:
            raise ValueError(f"spectra of dimensions n = {self.n} and n = {other.n} do not combine")
        if other.grid is not self.grid and not np.array_equal(other.grid.nodes, self.grid.nodes):
            raise ValueError("spectra live on different lambda grids")

    def binary_op(self, other: "PolyradialSpectrum", op) -> "PolyradialSpectrum":
        """Row-wise op(a, b) on the coefficient rows; op handles unequal lengths."""
        self._require_same_lattice(other)
        new = [op(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        return PolyradialSpectrum(grid=self.grid, n=self.n, coeffs=new, name=self.name)

    def __add__(self, other):
        def add(a, b):
            # a row cut short (the grid-sample route band-limits k) is zero beyond its end
            out = np.zeros(max(len(a), len(b)), dtype=np.result_type(a, b))
            out[:len(a)] += a
            out[:len(b)] += b
            return out
        return self.binary_op(other, add)

    def __mul__(self, scalar):
        return PolyradialSpectrum(grid=self.grid, n=self.n,
                                  coeffs=[c * scalar for c in self.coeffs], name=self.name)

    def convolve(self, other: "PolyradialSpectrum") -> "PolyradialSpectrum":
        """Group convolution: plain coefficient product in this normalization."""
        out = self.binary_op(other, lambda a, b: a[:len(b)] * b[:len(a)])
        out.name = f"{self.name}*{other.name}"
        return out

    def conj_symmetry_error(self) -> float:
        mirror = self.grid.mirror_index()
        worst, scale = 0.0, 0.0
        for i in range(self.grid.M):
            a, b = self.coeffs[i], self.coeffs[mirror[i]]
            m = min(len(a), len(b))
            worst = max(worst, float(np.max(np.abs(a[:m] - np.conj(b[:m])), initial=0.0)))
            scale = max(scale, float(np.max(np.abs(a), initial=0.0)))
        return worst / (scale or 1.0)

    def _plancherel_terms(self, other: "PolyradialSpectrum"):
        """Per node: (w_lam |lam|^n, c_k conj(d_k) dim P_k) over the shared k-range."""
        self._require_same_lattice(other)
        for i, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            m = min(len(a), len(b))
            yield (self.grid.weights[i] * abs(self.grid.nodes[i]) ** self.n,
                   a[:m] * np.conj(b[:m]) * proj_dim(np.arange(m), self.n))

    def l2_norm_sq(self) -> float:
        """Plancherel energy (2 pi)^{-(n+1)} int sum_k |c_k|^2 dim(P_k) |lam|^n dlam."""
        return self.pair(self).real

    def pair(self, other: "PolyradialSpectrum") -> complex:
        """Parseval pairing <u, v> = c int tr(u^ v^*) |lam|^n dlam."""
        return hs_constant(self.n) * sum(w * complex(np.sum(e))
                                         for w, e in self._plancherel_terms(other))

    def tail_fraction(self) -> float:
        """Energy share of the top four resolved modes; large values flag truncation."""
        top, tot = 0.0, 0.0
        for w, e in self._plancherel_terms(self):
            tot += w * float(np.sum(e.real))
            top += w * float(np.sum(e.real[-4:]))
        return top / tot if tot > 0 else 0.0


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

V_SPAN = 400.0             # v = |lam| u range of the heavy-tail radial rule


@dataclass(frozen=True)
class AnalysisQuadrature:
    """Dedicated radial quadrature nodes for the analysis integrals.

    The radial rules are Gauss-Legendre in xi = sqrt(u/U) (so nodes cluster
    quadratically at the origin): Laguerre modes oscillate like cos(2 sqrt(kx))
    and the xi variable makes that oscillation uniform, which keeps the rule
    adequate for the deep-k modes carried at small lambda.  v-nodes are the
    lambda-scaled variant (v = |lam| u) used for kernels with power-law radial
    tails, where the weight e^{-v/4} sets a lambda-free domain.
    """

    u_nodes: np.ndarray
    u_weights: np.ndarray
    v_nodes: np.ndarray
    v_weights: np.ndarray

    @staticmethod
    def _sqrt_rule(span: float, m: int):
        x, w = roots_legendre(m)
        xi = (x + 1) / 2            # (0, 1]
        nodes = span * xi ** 2
        weights = span * xi * w     # du = 2 span xi dxi, dxi = w/2
        return nodes, weights

    @classmethod
    def build(cls, spec: GridSpec, n_radial: int = 1536,
              n_radial_v: int = 3072) -> "AnalysisQuadrature":
        u_nodes, u_weights = cls._sqrt_rule(spec.R_z ** 2, n_radial)
        v_nodes, v_weights = cls._sqrt_rule(V_SPAN, n_radial_v)
        return cls(u_nodes, u_weights, v_nodes, v_weights)

    def refine(self) -> "AnalysisQuadrature":
        """1.25 times the nodes of both rules, on the same spans."""
        factor = 1.25
        # each rule integrates 1 exactly, so its weights sum to its span
        u_rule, v_rule = (self._sqrt_rule(float(np.sum(w)), int(round(x.size * factor)))
                          for x, w in ((self.u_nodes, self.u_weights),
                                       (self.v_nodes, self.v_weights)))
        return AnalysisQuadrature(*u_rule, *v_rule)


def _angular_const(n: int) -> float:
    # integral over C^n of a radial g(|z|^2): (pi^n / Gamma(n)) * int g(u) u^{n-1} du
    return math.pi ** n / math.gamma(n)


def analyze_polyradial(u: GridFunction, grid: LambdaGrid,
                       quad: Optional[AnalysisQuadrature] = None) -> PolyradialSpectrum:
    """Project a polyradial function onto the (k, lam) lattice.

    c_k(lam) = <f^lam, phi_k^lam> / dim(P_k); the normalization makes
    f^lam = (2 pi)^{-n} |lam|^n sum_k c_k phi_k^lam hold, with c_k also equal
    to the twisted-convolution projection eigenvalue f^lam *_lam phi_k = c_k phi_k.

    Input routes, best available first: closed-form coefficients, central
    profile (the heavy-tail one on the v-rule, the other on the u-rule), raw
    grid samples (grid-t trapezoid, aliasing-guarded).  The heavy-tail route
    projects the lattice in one batch; the others build radii, radial weights
    and (M, Nr) slices, and one loop projects each lam, -lam pair through one
    shared recurrence.  The grid route warns (UserWarning) when the grid
    band-limits the Laguerre order below the lattice caps and when the
    spectrum's tail energy exceeds 1e-6.

    A heavy-tail central profile must depend on lam only through |lam|, the
    way synthesis needs symbols to (see the operators docstring): it is
    evaluated and projected once per pair and both rows get its coefficients.
    The profile at -lam is compared with the one at +lam on the outermost
    pair, and a difference above 1e-12 of scale raises ValueError.
    """
    if not u.polyradial:
        raise ValueError("analyze_polyradial requires a polyradial input")
    spec = u.spec
    n = spec.n
    alpha = n - 1
    quad = quad or AnalysisQuadrature.build(spec)
    ang = _angular_const(n)

    if u.coeff_fn is not None:
        coeffs = [np.asarray(u.coeff_fn(np.arange(int(c)), lam), dtype=complex)
                  for c, lam in zip(grid.k_caps, grid.nodes)]
        return PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)

    if u.central_profile is not None and u.heavy_tail:
        # v = |lam| u covers the power-law radial tail uniformly in lam and
        # makes the x-nodes shared across lambda, so the whole lattice
        # projects through one batched recurrence; the profile depends on
        # |lam| only, so each lam, -lam pair is evaluated and projected once
        pairs = grid.mirror_pairs()
        lams = np.array([lam for _, _, lam in pairs])
        uu = quad.v_nodes[None, :] / lams[:, None]
        prof = np.array([u.central_profile(x, lam) for x, lam in zip(uu, lams)])
        odd = u.central_profile(uu[-1], -lams[-1]) - prof[-1]
        if np.max(np.abs(odd)) > 1e-12 * np.max(np.abs(prof[-1])):
            raise ValueError("a heavy-tail central profile must depend on |lambda| only: "
                             f"it differs between lambda = +-{lams[-1]:g}")
        Wmat = ang * (quad.v_weights / lams[:, None]) * prof * uu ** alpha
        raw = _project(0.5 * quad.v_nodes, Wmat, [grid.k_caps[i] for i, _, _ in pairs], alpha)
        coeffs = [None] * grid.M
        for (i, j, _), c in zip(pairs, raw):
            coeffs[i] = c / proj_dim(np.arange(len(c)), n)
            coeffs[j] = coeffs[i].copy()
        return PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)

    caps = grid.k_caps
    if u.central_profile is not None:
        radii = quad.u_nodes
        weights = ang * quad.u_weights * radii ** alpha
        # each sign keeps its own profile: the input need not be even in lam
        slices = np.stack([u.central_profile(radii, lam) for lam in grid.nodes])
    else:
        # grid samples, aggregated over equal-radius nodes; the z-grid resolves
        # the Laguerre oscillation (frequency sqrt(2 k lam) in r) only up to
        # k ~ pi^2/(4 lam h^2), so deeper modes are cut
        field_ = central_transform(u, grid)
        radii, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
        weights = spec.h_z ** (2 * n)
        slices = np.empty((grid.M, radii.size), dtype=complex)
        for i, sl in enumerate(field_.slices.reshape(grid.M, -1)):
            slices[i].real = np.bincount(inv, weights=sl.real, minlength=radii.size)
            slices[i].imag = np.bincount(inv, weights=sl.imag, minlength=radii.size)
        k_lim = (math.pi ** 2 / (4.0 * np.abs(grid.nodes) * spec.h_z ** 2)).astype(int)
        caps = np.minimum(grid.k_caps, np.maximum(16, k_lim))

    coeffs = [None] * grid.M
    for i, j, lam in grid.mirror_pairs():
        kcap = int(caps[i])
        dims = proj_dim(np.arange(kcap), n)
        cp, cn = _project(0.5 * lam * radii, weights * slices[[i, j]], [kcap, kcap], alpha)
        coeffs[i], coeffs[j] = cp / dims, cn / dims
    out = PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)
    if u.central_profile is not None:
        return out
    if np.any(caps < grid.k_caps):
        warnings.warn("grid sampling band-limits the Laguerre order below the requested cap",
                      stacklevel=2)
    tail = out.tail_fraction()
    if tail > 1e-6:
        warnings.warn(f"spectral tail energy {tail:.2e} above 1e-6", stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# Synthesis
#
# slices_at_radii_batch is the one Laguerre expansion: every synthesis, grid or
# point, single or batched, runs the shared recurrence once per |lambda| and
# contracts it in real arithmetic against all the symbols it was given, at
# lambda and at -lambda together.  A single synthesis is a batch of one.  The
# pairing needs every symbol to depend on lambda only through |lambda|, which
# is why symbols must be SpectralMultipliers (see the operators docstring).
# ---------------------------------------------------------------------------

def slices_at_radii_batch(S: PolyradialSpectrum, u_vals: np.ndarray, mults,
                          want_du: bool = False):
    """Per-level slices (L, M, Nu) for a family of diagonal symbols.

    mults is a sequence of SpectralMultiplier or None (the identity); any
    other callable raises TypeError.  The Laguerre table at the radii
    u = |z|^2 is built once per |lambda| and contracted in real arithmetic
    against the real and imaginary parts of every level's coefficients at
    lambda and at -lambda, each symbol evaluated once per pair; this is what
    makes rho-ladders cheap.  With want_du the d/du slices come back as well.
    A symbol of another dimension n than the spectrum's raises ValueError.
    """
    from .operators import SpectralMultiplier       # operators imports this module
    for m in mults:
        if m is not None and not isinstance(m, SpectralMultiplier):
            raise TypeError(f"symbols must be SpectralMultiplier or None, not {type(m).__name__}: "
                            "synthesis evaluates each symbol once for lambda and -lambda")
        if m is not None and m.n != S.n:
            raise ValueError("multiplier and spectrum dimensions disagree")
    grid, n = S.grid, S.n
    alpha = n - 1
    L, M = len(mults), grid.M
    out = np.empty((L, M, u_vals.size), dtype=complex)
    dout = np.empty_like(out) if want_du else None

    def store(dst, acc, i, j):
        # rows: re and im at lambda_i, then re and im at its mirror lambda_j
        for col, rows in ((i, acc[:2 * L]), (j, acc[2 * L:])):
            dst.real[:, col], dst.imag[:, col] = rows[:L], rows[L:]

    for i, j, lam in grid.mirror_pairs():
        pref = (2 * math.pi) ** (-n) * lam ** n
        pair = (S.coeffs[i], S.coeffs[j])
        k = np.arange(max(len(c) for c in pair))
        C = np.zeros((4 * L, k.size))                 # a shorter row pads with zeros
        for l, m in enumerate(mults):
            sym = None if m is None else m(k, lam)
            for r, c in zip((l, 2 * L + l), pair):
                cl = c if sym is None else c * sym[:len(c)]
                C[r, :len(c)], C[L + r, :len(c)] = cl.real, cl.imag
        x = 0.5 * lam * u_vals
        if want_du:
            acc, dacc = _expand_multi(x, C, alpha, want_deriv=True)
            dacc *= pref * (0.5 * lam)                # d/du = (|lam|/2) d/dx
            store(dout, dacc, i, j)
        else:
            acc = _expand_multi(x, C, alpha)
        acc *= pref
        store(out, acc, i, j)
    return (out, dout) if want_du else out


def _synthesized_values(S: PolyradialSpectrum, spec: GridSpec, mults):
    """Grid values per symbol: lambda-quadrature of e^{-i lam t} f^lam(z)."""
    if spec.n != S.n:
        raise ValueError(f"a spectrum of dimension n = {S.n} cannot fill a grid of n = {spec.n}")
    uniq, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    sl = slices_at_radii_batch(S, uniq, mults)                  # (L, M, Nu)
    ph = _lambda_phases(S.grid, spec.t_axis)
    for l in range(len(mults)):
        yield (sl[l].T @ ph)[inv].reshape(spec.shape)           # (Nu, Nt) -> grid


def synthesize_batch(S: PolyradialSpectrum, spec: GridSpec, mults) -> list:
    """Synthesize one grid function per diagonal symbol, sharing the tables."""
    return [GridFunction(spec=spec, values=vals, name=f"synth[{S.name};{l}]", polyradial=True)
            for l, vals in enumerate(_synthesized_values(S, spec, mults))]


def synthesize(S: PolyradialSpectrum, spec: GridSpec) -> GridFunction:
    """Rebuild a grid function: the batch of one with the identity symbol."""
    vals, = _synthesized_values(S, spec, [None])
    return GridFunction(spec=spec, values=vals, name=f"synth[{S.name}]", polyradial=True)


def synthesize_at(S: PolyradialSpectrum, u_vals: np.ndarray, t_vals: np.ndarray,
                  deriv: Optional[str] = None) -> np.ndarray:
    """Point values at scattered (|z|^2, t) pairs.

    deriv: None for the function, 'du' for d/d(|z|^2), 'dt' for d/dt.  Used by
    `kernels.frac_conf_pointwise`, which needs exact off-grid values of the
    spectral L_s.
    """
    if deriv not in (None, "du", "dt"):
        raise ValueError(f"deriv must be None, 'du' or 'dt', not {deriv!r}")
    u_vals = np.atleast_1d(np.asarray(u_vals, dtype=float))
    t_vals = np.atleast_1d(np.asarray(t_vals, dtype=float))
    if u_vals.shape != t_vals.shape:
        raise ValueError("u and t sample arrays must have the same shape")
    sl = slices_at_radii_batch(S, u_vals.ravel(), [None], want_du=deriv == "du")
    if deriv == "du":
        sl = sl[1]
    ph = _lambda_phases(S.grid, t_vals.ravel(), dt=deriv == "dt")
    return np.sum(sl[0] * ph, axis=0).reshape(u_vals.shape)


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
    conv = np.empty_like(Ff.slices)
    for i, lam in enumerate(grid.nodes):
        conv[i] = twisted_convolve(Ff.slices[i], Fg.slices[i], lam, f.spec)
    out = inverse_central_transform(CentralSliceField(grid=grid, spec=f.spec, slices=conv))
    out.name = f"{f.name}*{g.name}"
    return out


# ---------------------------------------------------------------------------
# Plancherel / Parseval
# ---------------------------------------------------------------------------

def plancherel_check(u: GridFunction, grid: Optional[LambdaGrid] = None,
                     quad: Optional[AnalysisQuadrature] = None) -> VerificationReport:
    """Both sides of the Plancherel identity, computed independently.

    LHS: grid integral of |u|^2.  RHS: the Hilbert-Schmidt integral
    const * int sum_k |c_k|^2 dim(P_k) |lam|^n dlam with const = (2 pi)^{-(n+1)},
    using u^(lam) = sum_k c_k P_k for polyradial u.
    """
    rep = VerificationReport(suite="plancherel", inputs={"u": u.name})
    if not u.polyradial:
        raise ValueError("plancherel_check requires a polyradial input")
    grid = grid or LambdaGrid.build()
    S = analyze_polyradial(u, grid, quad)
    lhs = integrate(u.copy_with(np.abs(u.values) ** 2, name="|u|^2")).real
    rhs = S.l2_norm_sq()
    rep.add("lhs_l2", lhs, route="grid")
    rep.add("rhs_hs", rhs, route="spectral")
    ratio = lhs / rhs if rhs else (0.0 if lhs == 0 else math.inf)
    rep.add("ratio", ratio, route="spectral/grid")
    rep.add("hs_constant_used", hs_constant(u.spec.n), route="exact")
    rep.quadrature = {"lambda_nodes": grid.M, "K": grid.K}
    m = rep.add("ratio_error", abs(ratio - 1.0), tolerance=0.02)
    rep.note("hs constant (2pi)^{-(n+1)}; the 2^{n-1}/pi^{n+1} form differs by 2^{2n}")
    return rep.finish()


def parseval_pair(u: GridFunction, v: GridFunction, grid: Optional[LambdaGrid] = None,
                  quad: Optional[AnalysisQuadrature] = None) -> tuple:
    """(grid-side, spectral-side) of the Parseval pairing <u, v>."""
    grid = grid or LambdaGrid.build()
    Su = analyze_polyradial(u, grid, quad)
    Sv = analyze_polyradial(v, grid, quad)
    lhs = integrate(u.copy_with(u.values * np.conj(v.values), name="u conj(v)"))
    rhs = Su.pair(Sv)
    return lhs, rhs
