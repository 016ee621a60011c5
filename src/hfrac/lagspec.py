"""Central-variable transform and Laguerre analysis/synthesis on the (k, lam) lattice.

For polyradial f the central slice f^lam expands in scaled Laguerre functions

    phi_k^lam(z) = L_k^{n-1}(|lam| |z|^2 / 2) exp(-|lam| |z|^2 / 4),

with f^lam = (2 pi)^{-n} |lam|^n sum_k c_k(lam) phi_k^lam.  In this
normalization twisted convolution is the plain product of coefficients and
every operator in the package acts diagonally on the (k, lam) lattice with
eigenvalue parameter mu = (2k+n)|lam|.  The direct lambda-twisted
convolution of two slices, the brute-force reference for that product, is
in the tests' oracles (tests/oracles.py), not here.

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
    "PolyradialSpectrum",
    "central_transform",
    "analyze_polyradial",
    "synthesize",
    "synthesize_batch",
    "synthesize_at",
    "slices_at_radii_batch",
    "plancherel_check",
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
        # mirror_pairs pairs node i with M-1-i, which is -lam_i only on an
        # ascending grid; synthesis and analysis rely on that pairing
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("lambda nodes must be strictly ascending")
        if not np.array_equal(self.nodes, -self.nodes[::-1]):
            raise ValueError("lambda grid must be symmetric under lam -> -lam")
        if not np.array_equal(self.k_caps, self.k_caps[::-1]):
            raise ValueError("k_caps must agree at lam and -lam")
        # synthesis folds each +-lam pair with the weight at +lam
        if not np.array_equal(self.weights, self.weights[::-1]):
            raise ValueError("lambda weights must agree at lam and -lam")

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

    def mirror_pairs(self):
        """(i, j, lam) for every node lam = nodes[i] > 0 and its mirror nodes[j] = -lam,
        which is j = M-1-i on the ascending symmetric grid."""
        return [(i, self.M - 1 - i, self.nodes[i]) for i in range(self.M // 2, self.M)]

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
# _laguerre_sweep is the one run of the recurrence l_k = L_k^alpha e^{-x/2}
# behind analysis (_project) and synthesis (slices_at_radii_batch).  It steps
# k over one row of x-values made of equal segments, each with its own cap:
# one segment per +-lambda pair of a synthesis group, one in an analysis.
# Segments come sorted by cap, descending, so the active ones are a prefix of
# the row and each step runs on that prefix only: a group steps the
# recurrence as often as its deepest cap, not once per (pair, k).  Each new
# row is written in place into a table block by out= ufuncs, with no
# temporary; the block's two leading rows carry l_{k-2} and l_{k-1} over from
# the block before, the one copy a block makes.  The consumer contracts each
# block in real arithmetic (real and imaginary parts as separate rows, so no
# block is ever promoted to complex) before the next is written.  The plain
# full-table recurrence the tests compare it against is laguerre_phi_table
# in tests/oracles.py.
# ---------------------------------------------------------------------------

PROJECT_CHUNK = 256        # k-rows per table block of the analysis contraction
EXPAND_CHUNK = 64          # k-rows per table block of the synthesis contraction


def _laguerre_sweep(x: np.ndarray, caps, alpha: int, rows: int, want_deriv: bool = False):
    """Yield (k0, block[, dblock]) for k0 = 0, rows, 2 rows, ... below caps[0].

    x is (P, Nx): segment p is the x-points of one sweep member, caps[p] its
    number of k-rows, caps nonincreasing.  With a the number of segments whose
    cap exceeds k0, block[j] = l_{k0+j}(x) on the first a segments, flattened:
    shape (klen, a Nx); a segment whose cap falls inside a block is stepped to
    the block's end.  With want_deriv, dblock[j] = d/dx l_{k0+j}
    = -l_{k0+j}/2 - l_{k0+j-1}^{alpha+1} (l_{-1} = 0), from a second table of
    type alpha+1 stepped alongside.  The buffers are reused: a consumer reads
    a block before asking for the next.
    """
    caps = np.asarray(caps, dtype=int)
    nx = x.shape[1]
    x = x.reshape(-1)
    kmax = int(caps[0]) if caps.size else 0
    # rows 0 and 1 of a table carry l_{k0-2} and l_{k0-1} into the next block
    tables = [(alpha, np.empty((rows + 2, x.size)))]
    if want_deriv:
        tables.append((alpha + 1, np.zeros((rows + 2, x.size))))    # l_{-1} = 0
        dbuf = np.empty((rows, x.size))
    tmp = np.empty(x.size)
    for k0 in range(0, kmax, rows):
        klen = min(rows, kmax - k0)
        w = nx * int(np.count_nonzero(caps > k0))
        xa, t = x[:w], tmp[:w]
        for a, tab in tables:
            rv = list(tab[:klen + 2, :w])           # rv[j + 2] is l_{k0+j}
            for j in range(klen):
                k, row = k0 + j, rv[j + 2]
                if k >= 2:
                    np.subtract(2.0 * k - 1.0 + a, xa, row)
                    row *= rv[j + 1]
                    np.multiply(rv[j], k - 1.0 + a, t)
                    row -= t
                    row /= k
                elif k == 1:
                    np.subtract(1.0 + a, xa, row)
                    row *= rv[j + 1]
                else:
                    np.multiply(xa, -0.5, row)
                    np.exp(row, row)
        block = tables[0][1][2:klen + 2, :w]
        if want_deriv:
            dblock = dbuf[:klen, :w]
            np.multiply(block, -0.5, dblock)
            dblock -= tables[1][1][1:klen + 1, :w]
            yield k0, block, dblock
        else:
            yield k0, block
        for _, tab in tables:
            tab[:2, :w] = tab[klen:klen + 2, :w]


def _project(x: np.ndarray, Wmat: np.ndarray, kcaps, alpha: int) -> list:
    """c_i[k] = sum_j Wmat[i, j] l_k(x_j) for k < kcaps[i], every row in one sweep.

    The real and imaginary parts of each row are interleaved into one real
    matrix, so each table block is contracted in real arithmetic and the
    product's (re, im) column pairs read back as complex; rows drop out of the
    product as k passes their cap.  The sweep runs on x as one segment.
    Returns per-row arrays of length kcaps[i].
    """
    caps = np.asarray(kcaps, dtype=int)
    order = np.argsort(caps)[::-1]
    caps = caps[order]
    W = np.empty((2 * caps.size, x.size))
    W[0::2], W[1::2] = Wmat[order].real, Wmat[order].imag
    cols = [np.empty(int(c), dtype=complex) for c in caps]
    for k0, block in _laguerre_sweep(x[None, :], caps[:1], alpha, PROJECT_CHUNK):
        active = int(np.count_nonzero(caps > k0))
        vals = (block @ W[:2 * active].T).view(complex)      # (klen, active)
        for i in range(active):
            hi = min(int(caps[i]), k0 + len(block))
            cols[i][k0:hi] = vals[:hi - k0, i]
    out = [None] * caps.size
    for i, oi in enumerate(order):
        out[oi] = cols[i]
    return out


# ---------------------------------------------------------------------------
# Central-variable transform
#
# _t_transform is the one forward t-transform, the grid trapezoid of
# central_transform, which analyze_polyradial's grid route reads;
# _lambda_phases is the one lambda-inversion, contracted against the slices of
# every synthesis, grid or point, and, folded onto the lam > 0 nodes by
# _folded_phases and _folded_inversion, of the g* gradient table.  The inverse
# of central_transform on a slice array, inverse_central_transform, is a test
# oracle in tests/oracles.py.  The lattice omits the band |lam| < lam_min; a
# correction for it belongs in these functions and nowhere else.
# ---------------------------------------------------------------------------

def _t_transform(F: np.ndarray, grid: LambdaGrid, t: np.ndarray, w) -> np.ndarray:
    """int F(..., t) e^{i lam t} dt on the rule (t, w) at every lambda node: (..., M)."""
    return F @ (np.exp(1j * np.outer(grid.nodes, t)) * w).T


def _lambda_phases(grid: LambdaGrid, t: np.ndarray, dt: bool = False) -> np.ndarray:
    """(M, Nt) matrix (2 pi)^{-1} w_lam e^{-i lam t} of f = (2 pi)^{-1} int f^lam e^{-i lam t} dlam;
    with dt, times -i lam (the t-derivative)."""
    ph = np.exp(-1j * np.outer(grid.nodes, t)) * (grid.weights / (2.0 * math.pi))[:, None]
    return ph * (-1j * grid.nodes[:, None]) if dt else ph


def _folded_phases(grid: LambdaGrid, t: np.ndarray, dt: bool = False) -> np.ndarray:
    """[Re ph; Im ph] of the _lambda_phases ph at the nodes lam > 0: (M, Nt) real."""
    ph = _lambda_phases(grid, t, dt=dt)[grid.M // 2:]
    return np.concatenate([ph.real, ph.imag])


def _folded_inversion(slices: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Re sum_lam s_lam ph_lam over every node, (Nu, Nt), from (M, Nu) slices and
    the _folded_phases of ph.

    The phases at -lam are the conjugates of those at lam, so the sum is
    Re sum_{lam>0} (s_lam + conj s_{-lam}) ph_lam, and Re(s^T ph) =
    [Re s; -Im s]^T [Re ph; Im ph]: one real product over the positive nodes.
    """
    half = len(slices) // 2
    pos, neg = slices[half:], slices[half - 1::-1]       # lam > 0 and its mirror
    return np.concatenate([pos.real + neg.real, neg.imag - pos.imag]).T @ phases


def _alias_guard(grid: LambdaGrid, spec: GridSpec):
    lim = math.pi / (2.0 * spec.h_t)
    bad = np.abs(grid.nodes) > lim
    if np.any(bad):
        raise ValueError(
            f"lambda nodes up to {np.max(np.abs(grid.nodes)):g} exceed the grid's "
            f"resolvable limit pi/(2 h_t) = {lim:g}; refine the t-grid or shrink the grid")


def central_transform(u: GridFunction, grid: LambdaGrid) -> np.ndarray:
    """f^lam(z) = integral of f(z, t) e^{i lam t} dt by trapezoid over the t-grid,
    as an (M,) + z-grid shape array, one slice per lambda node.

    Warns (UserWarning) when the input has not decayed at the box boundary."""
    spec = u.spec
    _alias_guard(grid, spec)
    if not u.boundary_decay_ok():
        warnings.warn("input does not decay at the box boundary", stacklevel=2)
    sl = _t_transform(u.values.reshape(-1, spec.N_t), grid, spec.t_axis, spec.h_t)  # (Nz^2, M)
    return np.moveaxis(sl, -1, 0).reshape((grid.M,) + spec.shape[:-1])


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
        central = central_transform(u, grid)
        radii, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
        weights = spec.h_z ** (2 * n)
        slices = np.empty((grid.M, radii.size), dtype=complex)
        for i, sl in enumerate(central.reshape(grid.M, -1)):
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
# point, single or batched, is a batch of symbols, and a single synthesis is a
# batch of one.  The +-lambda pairs are taken deepest first, in groups that fit
# SWEEP_BUDGET, and each group runs one _laguerre_sweep over the radii of all
# its pairs (x = |lambda| u / 2 per pair).  Each table block is contracted in
# real arithmetic against the coefficients of every symbol at lambda and at
# -lambda together, one batched matrix product over the pairs still active.
# Blocks are EXPAND_CHUNK rows whatever the group, so a radius' value does not
# depend on the other radii or pairs it is synthesized with.  The pairing
# needs every symbol to depend on lambda only through |lambda|, which is why
# symbols must have SpectralMultiplier.on_pairs, the one method that applies a
# symbol to both rows of a pair (see the operators docstring).
# ---------------------------------------------------------------------------

SWEEP_BUDGET = 2 ** 18     # doubles (2 MiB) of one synthesis group's accumulators and tables


def slices_at_radii_batch(S: PolyradialSpectrum, u_vals: np.ndarray, mults,
                          want_du: bool = False):
    """Per-level slices (L, M, Nu) for a family of diagonal symbols.

    mults is a sequence of SpectralMultiplier or None (the identity); a symbol
    without SpectralMultiplier.on_pairs, such as a plain callable, raises
    TypeError.  With want_du the d/du slices come back as well.  A symbol of
    another dimension n than the spectrum's, or a negative u = |z|^2, raises
    ValueError.

    The +-lambda pairs are sorted by depth (the longer of their two rows),
    deepest first, and each symbol's on_pairs runs once, on the (k, |lambda|)
    points of every pair in that order; it applies the symbol to both rows of
    a pair.  The pairs are then cut into groups of as many pairs as keep the
    group's working set within SWEEP_BUDGET doubles, at least one pair, and
    each group takes its slice of the symbol values.  Per pair and radius that
    set is the accumulators and the product they add (4 L real rows each: re
    and im at lambda and at -lambda; the accumulators twice with want_du) and
    the table block of EXPAND_CHUNK + 2 rows (three tables with want_du:
    alpha, alpha+1 and the derivative rows).  On the default lattice a batch of
    one at 198 radii then takes 17 pairs per group and steps the recurrence
    12,552 times, at 360 radii 9 pairs and 13,362 steps, against the 33,436 of
    one sweep per pair; a batch of dozens of levels falls back to one pair per
    group.  One sweep of the recurrence runs over the radii of all a group's
    pairs.
    """
    for m in mults:
        if m is not None and not hasattr(m, "on_pairs"):
            raise TypeError(f"symbols must be SpectralMultiplier or None, not {type(m).__name__}: "
                            "synthesis applies each symbol to lambda and -lambda through on_pairs")
        if m is not None and m.n != S.n:
            raise ValueError("multiplier and spectrum dimensions disagree")
    if np.any(u_vals < 0):
        raise ValueError("radii u = |z|^2 must be >= 0")
    L, nu = len(mults), u_vals.size
    out = np.empty((L, S.grid.M, nu), dtype=complex)
    dout = np.empty_like(out) if want_du else None
    pairs = S.grid.mirror_pairs()
    depth = np.array([max(len(S.coeffs[i]), len(S.coeffs[j])) for i, j, _ in pairs])
    order = np.argsort(depth, kind="stable")[::-1]
    pairs, depth = [pairs[p] for p in order], depth[order]
    lam = np.array([lam for _, _, lam in pairs])
    syms = [None if m is None else m.on_pairs(lam, depth) for m in mults]
    ends = np.cumsum(depth)
    nblk, ntab = (2, 3) if want_du else (1, 1)
    per_pair = nu * ((nblk + 1) * 4 * L + ntab * (EXPAND_CHUNK + 2))     # doubles
    size = max(1, SWEEP_BUDGET // max(per_pair, 1))
    for g in range(0, len(pairs), size):
        h = slice(g, g + size)
        span = slice(ends[g] - depth[g], ends[h][-1])
        _sweep_group(S, pairs[h], lam[h], depth[h], [v if v is None else v[span] for v in syms],
                     u_vals, out, dout)
    return (out, dout) if want_du else out


def _sweep_group(S: PolyradialSpectrum, pairs, lam, depth, syms, u_vals: np.ndarray,
                 out, dout) -> None:
    """Fill the columns of one group of +-lambda pairs in out (and dout): the
    group's share of slices_at_radii_batch.

    The pairs come deepest first with their lambda > 0 and depths, and syms
    holds each symbol's SpectralMultiplier.on_pairs values on the group's
    points, or None for the identity; no symbol is evaluated here.
    """
    L, nu = len(syms), u_vals.size
    n = S.n
    offset = np.concatenate([[0], np.cumsum(depth)])
    # the pairs' coefficient rows one after another, then a zero column that
    # the blocks read past a pair's end: re and im at lambda_i, then at its mirror
    V = np.zeros((4 * L, offset[-1] + 1))
    for r0, side in ((0, 0), (2 * L, 1)):
        c = np.zeros(offset[-1], dtype=complex)
        for p, pair in enumerate(pairs):
            row = S.coeffs[pair[side]]
            c[offset[p]:offset[p] + len(row)] = row
        for l, sym in enumerate(syms):
            cl = c if sym is None else c * sym
            V[r0 + l, :-1], V[r0 + L + l, :-1] = cl.real, cl.imag
    x = (0.5 * lam)[:, None] * u_vals[None, :]
    nblk = 1 if dout is None else 2
    acc = np.zeros((nblk, len(pairs), 4 * L, nu))
    prod = np.empty(acc.shape[1:])
    for k0, *blocks in _laguerre_sweep(x, depth, n - 1, EXPAND_CHUNK, want_deriv=dout is not None):
        klen, a = len(blocks[0]), int(np.count_nonzero(depth > k0))
        kk = k0 + np.arange(klen)
        at = np.where(kk < depth[:a, None], offset[:a, None] + kk, offset[-1])
        Ck = V[:, at].transpose(1, 0, 2)                       # (a, 4L, klen)
        for b, block in enumerate(blocks):
            np.matmul(Ck, block.reshape(klen, a, nu).transpose(1, 0, 2), out=prod[:a])
            acc[b, :a] += prod[:a]
    pref = (2 * math.pi) ** (-n) * lam ** n
    acc[0] *= pref[:, None, None]
    if dout is not None:
        acc[1] *= (pref * (0.5 * lam))[:, None, None]          # d/du = (|lam|/2) d/dx
    I, J = ([pair[side] for pair in pairs] for side in (0, 1))
    for dst, a in zip((out, dout), acc):
        for cols, r0 in ((I, 0), (J, 2 * L)):
            dst.real[:, cols] = a[:, r0:r0 + L].transpose(1, 0, 2)
            dst.imag[:, cols] = a[:, r0 + L:r0 + 2 * L].transpose(1, 0, 2)


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
