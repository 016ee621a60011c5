"""Central-variable transform and Laguerre analysis/synthesis on the (k, lam) lattice.

For polyradial f the central slice f^lam expands in scaled Laguerre functions

    phi_k^lam(z) = L_k^{n-1}(|lam| |z|^2 / 2) exp(-|lam| |z|^2 / 4),

with f^lam = (2 pi)^{-n} |lam|^n sum_k c_k(lam) phi_k^lam.  In this
normalization twisted convolution is the plain product of coefficients and
every operator in the package acts diagonally on the (k, lam) lattice with
eigenvalue parameter mu = (2k+n)|lam|.  The direct lambda-twisted
convolution of two slices, the brute-force reference for that product, is
in the tests' oracles (tests/oracles.py), not here.

Every function here is real, so f^{-lam} = conj f^lam and c_k(-lam) =
conj c_k(lam): the lattice is the positive half lam > 0, one coefficient row
per node, with the folded weights 2 w_lam (see LambdaGrid).  Analysis rejects
an input that breaks the symmetry, and every synthesis is real.

The k-truncation is adaptive: a slice at small |lam| needs k up to O(1/|lam|)
to resolve unit-scale profiles (the basis widens like |lam|^{-1/2}), so each
node carries its own cap  k_cap = max(K+1, min(K_CAP_MAX, ceil(k_energy_cap/|lam|))).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import gammaln, roots_legendre

from .group import GridFunction, GridSpec, integrate
from .report import VerificationReport

__all__ = [
    "LambdaGrid",
    "AnalysisQuadrature",
    "PolyradialSpectrum",
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
    """Positive half of a symmetric composite Gauss-Legendre grid on
    [-L, -l0] U [l0, L], 0 excluded.

    Every function analyzed here is real, so its central slices obey
    f^{-lam} = conj f^lam and, the Laguerre functions being real, its
    coefficients c_k(-lam) = conj c_k(lam).  The grid therefore holds only the
    nodes lam > 0, and each stands for the pair +-lam: its weight is the folded
    weight 2 w_lam, so that

        int_R F(lam) dlam = sum_i weights_i Re F(nodes_i)   whenever F(-lam) = conj F(lam).
    """

    nodes: np.ndarray      # strictly ascending, > 0
    weights: np.ndarray    # folded weights 2 w_lam of the plain d-lam weights w_lam
    k_caps: np.ndarray     # per-node Laguerre truncation, >= 1
    K: int = 64

    def __post_init__(self):
        for name in ("nodes", "weights", "k_caps"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        size = self.nodes.size
        if size == 0 or any(a.shape != (size,) for a in (self.nodes, self.weights, self.k_caps)):
            raise ValueError("nodes, weights and k_caps must be non-empty 1-D arrays of one length")
        if np.any(self.nodes <= 0.0):
            raise ValueError("lambda nodes must be > 0: the grid is the positive half")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("lambda nodes must be strictly ascending")
        if np.any(self.weights <= 0.0):
            raise ValueError("lambda weights must be positive")
        if np.any(self.k_caps < 1):
            raise ValueError("k_caps must be >= 1")
        if not (isinstance(self.K, numbers.Integral) and self.K >= 0):
            raise ValueError(f"the base depth K must be an integer >= 0, not {self.K!r}")

    @classmethod
    def build(cls, lam_min: float = 1e-3, lam_max: float = 40.0,
              nodes_per_sign: int = 150, K: int = 64,
              k_energy_cap: float = 36.0, panels=None) -> "LambdaGrid":
        if not 0.0 < lam_min < lam_max:
            raise ValueError(f"need 0 < lam_min < lam_max, not {lam_min, lam_max}")
        for name, v in (("nodes_per_sign", nodes_per_sign), ("k_energy_cap", k_energy_cap)):
            if not v > 0:
                raise ValueError(f"{name} must be > 0, not {v}")
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
        return cls(nodes=pos, weights=2.0 * wts, k_caps=caps, K=K)

    @property
    def M(self) -> int:
        return self.nodes.size

    def refine(self) -> "LambdaGrid":
        """1.25 times the nodes and the base depth K, on the default template.

        Raises ValueError unless the grid is build()'s layout on the default
        panels over [1e-3, 40] (any count per panel, any K) with the
        k_energy_cap = 36 caps: rebuilding another grid would change its
        window or its caps.
        """
        counts = np.histogram(self.nodes, DEFAULT_PANELS)[0]
        # an empty panel gets a node, which the template has and this grid lacks
        template = LambdaGrid.build(K=self.K, panels=(DEFAULT_PANELS, np.maximum(counts, 1)))
        if not all(np.array_equal(getattr(template, a), getattr(self, a))
                   for a in ("nodes", "weights", "k_caps")):
            raise ValueError("refine rebuilds the default lambda template: the grid must be "
                             "LambdaGrid.build()'s layout on [1e-3, 40] with its k-caps")
        factor = 1.25
        return LambdaGrid.build(nodes_per_sign=int(round(self.M * factor)),
                                K=int(round(self.K * factor)))


# ---------------------------------------------------------------------------
# Weighted Laguerre recurrence
#
# _laguerre_sweep steps the one recurrence l_k = L_k^alpha e^{-x/2}, alpha =
# n - 1, behind analysis (_project) and every synthesis (slices_at_radii_batch),
# d/du slices included: _sweep_group differentiates those in coefficient
# space, into rows on the same table.  It steps k over one row of x-values
# made of equal segments, each with its own cap: one segment per lambda node
# of a synthesis group, one in an analysis.  Segments come sorted by cap,
# descending, so the active ones are a prefix of the row and each step runs
# on that prefix only: a group steps the recurrence as often as its deepest
# cap, not once per (node, k).  Each new row is written in place into a
# table block by out= ufuncs; the block's two leading rows carry l_{k-2} and
# l_{k-1} over from the block before, the one copy a block makes.  The
# consumer contracts each block in real arithmetic before the next is
# written, against real weight rows (an analysis, its rows deepest first,
# read in place) or the real and imaginary rows of its coefficients (a
# synthesis), so no block is promoted to complex.  The plain full-table
# recurrence the tests compare it against is laguerre_phi_table in
# tests/oracles.py.
# ---------------------------------------------------------------------------

PROJECT_CHUNK = 256        # k-rows per table block of the analysis contraction
EXPAND_CHUNK = 64          # k-rows per table block of the synthesis contraction


def _laguerre_sweep(x: np.ndarray, caps, alpha: int, rows: int):
    """Yield (k0, block) for k0 = 0, rows, 2 rows, ... below caps[0].

    x is (P, Nx): segment p is the x-points of one sweep member, caps[p] its
    number of k-rows, caps nonincreasing.  With a the number of segments whose
    cap exceeds k0, block[j] = l_{k0+j}(x) on the first a segments, flattened:
    shape (klen, a Nx); a segment whose cap falls inside a block is stepped to
    the block's end.  The buffer is reused: a consumer reads a block before
    asking for the next.
    """
    caps = np.asarray(caps, dtype=int)
    nx, x = x.shape[1], x.reshape(-1)
    kmax = int(caps[0]) if caps.size else 0
    # rows 0 and 1 carry l_{k0-2} and l_{k0-1} into the next block
    tab = np.empty((rows + 2, x.size))
    tmp = np.empty(x.size)
    for k0 in range(0, kmax, rows):
        klen = min(rows, kmax - k0)
        w = nx * int(np.count_nonzero(caps > k0))
        xa, t = x[:w], tmp[:w]
        rv = list(tab[:klen + 2, :w])               # rv[j + 2] is l_{k0+j}
        for j in range(klen):
            k, row = k0 + j, rv[j + 2]
            if k >= 2:
                np.subtract(2.0 * k - 1.0 + alpha, xa, row)
                row *= rv[j + 1]
                np.multiply(rv[j], k - 1.0 + alpha, t)
                row -= t
                row /= k
            elif k == 1:
                np.subtract(1.0 + alpha, xa, row)
                row *= rv[j + 1]
            else:
                np.multiply(xa, -0.5, row)
                np.exp(row, row)
        yield k0, tab[2:klen + 2, :w]
        tab[:2, :w] = tab[klen:klen + 2, :w]


def _project(x: np.ndarray, W: np.ndarray, kcaps, alpha: int) -> list:
    """c_i[k] = sum_j W[i, j] l_k(x_j) for k < kcaps[i], every row in one sweep.

    The weights are real (ValueError otherwise): a caller with complex
    weights passes their real and imaginary parts as two rows.  The rows come
    deepest first, kcaps nonincreasing (ValueError otherwise), and drop out
    of the product as k passes their cap.  The sweep runs on x as one
    segment.  Returns per-row real arrays of length kcaps[i].
    """
    if np.iscomplexobj(W):
        raise ValueError("_project takes real weights: pass the real and imaginary parts as rows")
    caps = np.asarray(kcaps, dtype=int)
    if np.any(np.diff(caps) > 0):
        raise ValueError("_project takes its rows deepest first: kcaps must be nonincreasing")
    cols = [np.empty(int(c)) for c in caps]
    for k0, block in _laguerre_sweep(x[None, :], caps[:1], alpha, PROJECT_CHUNK):
        active = int(np.count_nonzero(caps > k0))
        vals = block @ W[:active].T                           # (klen, active)
        for i in range(active):
            hi = min(int(caps[i]), k0 + len(block))
            cols[i][k0:hi] = vals[:hi - k0, i]
    return cols


# ---------------------------------------------------------------------------
# Central-variable transform
#
# _t_transform is the one forward t-transform: analyze_polyradial's grid route
# applies its grid trapezoid to the radial profile of the samples.
# _lambda_phases and _lambda_inversion are the one lambda-inversion of every
# synthesis, grid or point; _half_mesh_inversion is its form on a t-mesh
# symmetric about 0, which the g* gradient table takes.  The transform of a
# whole grid function and its inverse on a slice array, central_transform and
# inverse_central_transform, are test oracles in tests/oracles.py.  The
# lattice omits the band |lam| < lam_min; a correction for it belongs in these
# functions and nowhere else.
# ---------------------------------------------------------------------------

def _t_transform(F: np.ndarray, grid: LambdaGrid, t: np.ndarray, w) -> np.ndarray:
    """int F(..., t) e^{i lam t} dt on the rule (t, w) at every lambda node: (..., M)."""
    return F @ (np.exp(1j * np.outer(grid.nodes, t)) * w).T


def _lambda_phases(grid: LambdaGrid, t: np.ndarray, dt: bool = False) -> np.ndarray:
    """[Re ph; Im ph], (2M, Nt) real, of ph = (2 pi)^{-1} weights e^{-i lam t} at the
    nodes lam > 0, the phases of f = (2 pi)^{-1} int f^lam e^{-i lam t} dlam;
    with dt, ph times -i lam (the t-derivative)."""
    ph = np.exp(-1j * np.outer(grid.nodes, t)) * (grid.weights / (2.0 * math.pi))[:, None]
    if dt:
        ph *= -1j * grid.nodes[:, None]
    return np.concatenate([ph.real, ph.imag])


def _lambda_inversion(slices: np.ndarray, phases: np.ndarray, pointwise: bool = False):
    """Re sum_lam s_lam ph_lam over the nodes, from (M, N) slices s and the
    _lambda_phases of ph: the (N, Nt) real product, or with pointwise the (N,)
    sum over the nodes of slice column j against phase column j.

    A real function's integrand is conjugate-symmetric in lam, so with the
    folded weights the integral over both signs is Re sum_{lam>0} s ph, and
    Re(s ph) = [Re s; -Im s] . [Re ph; Im ph]: one real product over the nodes.
    """
    rows = np.concatenate([slices.real, -slices.imag])
    return np.einsum("mj,mj->j", rows, phases) if pointwise else rows.T @ phases


def _half_mesh_inversion(slices: np.ndarray, phases: np.ndarray, parity: float,
                        out: np.ndarray) -> np.ndarray:
    """_lambda_inversion of (M, N) slices on a t-mesh symmetric about 0, from
    the _lambda_phases of ph on its t >= 0 half, into the (N, N_t) out: half
    the products of the full mesh.

    With phases at -t equal to parity times the conjugates of those at t
    (parity 1 for ph, -1 for its t-derivative), a = Re(s)^T Re ph(t) and
    b = Im(s)^T Im ph(t) give F(t) = a - b and F(-t) = parity (a + b), for
    any slices: one real product over the nodes per half.  A mesh of odd
    size holds t = 0 once, as the first column of the half.
    """
    m, h = slices.shape[0], phases.shape[1]
    neg = out.shape[1] - h                       # columns t < 0
    pos = out[:, neg:]
    # contiguous copies of the parts multiply in BLAS
    np.matmul(slices.real.copy().T, phases[:m], out=pos)             # a
    b = slices.imag.copy().T @ phases[m:]
    np.add(pos[:, h - neg:][:, ::-1], b[:, h - neg:][:, ::-1], out=out[:, :neg])
    if parity < 0:
        np.negative(out[:, :neg], out=out[:, :neg])
    pos -= b
    return out


def _alias_guard(grid: LambdaGrid, spec: GridSpec):
    lim = math.pi / (2.0 * spec.h_t)
    if grid.nodes[-1] > lim:
        raise ValueError(
            f"lambda nodes up to {grid.nodes[-1]:g} exceed the grid's "
            f"resolvable limit pi/(2 h_t) = {lim:g}; refine the t-grid or shrink the grid")


# ---------------------------------------------------------------------------
# Polyradial spectra
# ---------------------------------------------------------------------------

@dataclass
class PolyradialSpectrum:
    """Ragged coefficient table c_k(lam) of a real function on the (k, lam) lattice.

    coeffs[i] holds the row at lam = grid.nodes[i] > 0, of length at most
    grid.k_caps[i]; the row at -lam is its conjugate.
    """

    grid: LambdaGrid
    n: int
    coeffs: list
    name: str = ""

    def _require_same_lattice(self, other: "PolyradialSpectrum") -> None:
        """Raise ValueError unless other has this dimension n and these lambda
        nodes and weights; the rows are ragged, so the caps may differ."""
        if other.n != self.n:
            raise ValueError(f"spectra of dimensions n = {self.n} and n = {other.n} do not combine")
        if other.grid is not self.grid and not all(
                np.array_equal(getattr(other.grid, a), getattr(self.grid, a))
                for a in ("nodes", "weights")):
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
        if not isinstance(scalar, numbers.Real):
            raise TypeError(f"a spectrum scales by a real number, not {scalar!r}: "
                            "any other product is not a real function")
        return PolyradialSpectrum(grid=self.grid, n=self.n,
                                  coeffs=[c * scalar for c in self.coeffs], name=self.name)

    def convolve(self, other: "PolyradialSpectrum") -> "PolyradialSpectrum":
        """Group convolution: plain coefficient product in this normalization."""
        out = self.binary_op(other, lambda a, b: a[:len(b)] * b[:len(a)])
        out.name = f"{self.name}*{other.name}"
        return out

    def _plancherel_terms(self, other: "PolyradialSpectrum"):
        """Per node: (weight |lam|^n, Re(c_k conj(d_k)) dim P_k) over the shared
        k-range; the folded weight counts -lam, whose term is the conjugate."""
        self._require_same_lattice(other)
        for i, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            m = min(len(a), len(b))
            yield (self.grid.weights[i] * self.grid.nodes[i] ** self.n,
                   (a[:m] * np.conj(b[:m])).real * proj_dim(np.arange(m), self.n))

    def l2_norm_sq(self) -> float:
        """Plancherel energy (2 pi)^{-(n+1)} int sum_k |c_k|^2 dim(P_k) |lam|^n dlam."""
        return self.pair(self)

    def pair(self, other: "PolyradialSpectrum") -> float:
        """Parseval pairing <u, v> = c int tr(u^ v^*) |lam|^n dlam, real for real u, v."""
        return hs_constant(self.n) * sum(w * float(np.sum(e))
                                         for w, e in self._plancherel_terms(other))

    def tail_fraction(self) -> float:
        """Energy share of the top four resolved modes; large values flag truncation."""
        top, tot = 0.0, 0.0
        for w, e in self._plancherel_terms(self):
            tot += w * float(np.sum(e))
            top += w * float(np.sum(e[-4:]))
        return top / tot if tot > 0 else 0.0


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

V_SPAN = 400.0             # v = |lam| u range of the heavy-tail radial rule


@dataclass(frozen=True)
class AnalysisQuadrature:
    """The radial quadrature of the heavy-tail analysis.

    The v-rule is Gauss-Legendre in xi = sqrt(v/V_SPAN) (so nodes cluster
    quadratically at the origin): Laguerre modes oscillate like
    cos(2 sqrt(kx)) and the xi variable makes that oscillation uniform, which
    keeps the rule adequate for the deep-k modes carried at small lambda.
    On v = |lam| u the weight e^{-v/4} sets the lambda-free domain
    (0, V_SPAN] for kernels with power-law radial tails.  The rule is built
    on its first read, so an analysis that reads no rule (closed-form
    coefficients, grid samples) never computes its Gauss-Legendre roots.

    No analysis reads the u-rule, the same rule on u = |z|^2 in (0, u_span]:
    every catalog member with a light tail has closed-form coefficients, and
    the u-rule route is the reference in tests/oracles.py.  u_span, n_radial
    and u_nodes stay because the benchmark's step counter
    (perfbench/spans.py) reads u_nodes; they go when it stops (ROADMAP
    item 11).
    """

    u_span: float          # U = R_z^2: the u-rule covers u = |z|^2 in (0, U]
    n_radial: int
    n_radial_v: int

    @staticmethod
    def _sqrt_rule(span: float, m: int):
        x, w = roots_legendre(m)
        xi = (x + 1) / 2            # (0, 1]
        nodes = span * xi ** 2
        weights = span * xi * w     # du = 2 span xi dxi, dxi = w/2
        return nodes, weights

    @cached_property
    def _u_rule(self):
        return self._sqrt_rule(self.u_span, self.n_radial)

    @cached_property
    def _v_rule(self):
        return self._sqrt_rule(V_SPAN, self.n_radial_v)

    @property
    def u_nodes(self) -> np.ndarray:
        return self._u_rule[0]

    @property
    def v_nodes(self) -> np.ndarray:
        return self._v_rule[0]

    @property
    def v_weights(self) -> np.ndarray:
        return self._v_rule[1]

    @classmethod
    def build(cls, spec: GridSpec, n_radial: int = 1536,
              n_radial_v: int = 3072) -> "AnalysisQuadrature":
        return cls(float(spec.R_z) ** 2, n_radial, n_radial_v)

    def refine(self) -> "AnalysisQuadrature":
        """1.25 times the nodes of both rules, on the same spans."""
        factor = 1.25
        return AnalysisQuadrature(self.u_span, int(round(self.n_radial * factor)),
                                  int(round(self.n_radial_v * factor)))


def _angular_const(n: int) -> float:
    # integral over C^n of a radial g(|z|^2): (pi^n / Gamma(n)) * int g(u) u^{n-1} du
    return math.pi ** n / math.gamma(n)


def _require_conjugate(fn, xs, lams, rows, what: str) -> None:
    """Raise ValueError unless fn(x, -lam) = conj fn(x, lam) to 1e-12 of scale,
    rows[i] being fn(xs[i], lams[i]), or another evaluation of it that the
    check then also compares with fn: a real input's slices and coefficients
    obey it.  It is checked on the node whose row is largest, where a
    violation cannot hide in an underflowed row."""
    i = int(np.argmax([np.max(np.abs(r), initial=0.0) for r in rows]))
    gap = np.max(np.abs(fn(xs[i], -lams[i]) - np.conj(rows[i])))
    if gap > 1e-12 * np.max(np.abs(rows[i])):
        raise ValueError(f"the {what} breaks c(-lambda) = conj c(lambda) at lambda = {lams[i]:g}: "
                         "the lattice holds real functions only")


def _heavy_tail_weights(profile, lams: np.ndarray, quad: AnalysisQuadrature, ang: float,
                        alpha: int):
    """The real weights W[i] = ang (v_weights/lam_i) profile(x_i, lam_i) x_i^alpha
    on x_i = v_nodes/lam_i, one row per node of lams, from one
    profile.on_lattice call scaled in place; a complex row (a profile not even
    in t) raises ValueError.

    Returns W and (lam, x, on_lattice row) of the node whose row is largest in
    modulus, the first on a tie, for the check against the point evaluation.
    """
    v = quad.v_nodes
    W = profile.on_lattice(lams, v)
    if np.iscomplexobj(W):
        bad = np.flatnonzero(np.any(W.imag != 0, axis=1))
        if bad.size:
            raise ValueError(f"heavy-tail profile not even in t (complex at lambda = {lams[bad[0]]:g})")
        W = np.ascontiguousarray(W.real)
    # row maxima of |W| without a (M, N_v) temporary
    i = int(np.argmax(np.maximum(W.max(axis=1), -W.min(axis=1))))
    prof = W[i].copy()
    W *= ang * quad.v_weights * v ** alpha
    W /= (lams ** (1 + alpha))[:, None]
    return W, (lams[i], v / lams[i], prof)


def analyze_polyradial(u: GridFunction, grid: LambdaGrid,
                       quad: Optional[AnalysisQuadrature] = None) -> PolyradialSpectrum:
    """Project a real polyradial function onto the (k, lam) lattice, one row per
    node lam > 0.

    c_k(lam) = <f^lam, phi_k^lam> / dim(P_k); the normalization makes
    f^lam = (2 pi)^{-n} |lam|^n sum_k c_k phi_k^lam hold, with c_k also equal
    to the twisted-convolution projection eigenvalue f^lam *_lam phi_k = c_k phi_k.

    Three input routes, read in this order:
    - closed-form coefficients (coeff_fn), which every catalog member but the
      conformal kernels has;
    - a heavy_tail central profile on the v-rule, which takes a profile even
      in t and projects the lattice in one batch: one real (M, N_v) weight
      matrix, its rows deepest first, from one call of the profile's
      on_lattice (for the catalog kernels an exponential sum, one matrix
      product) scaled in place (_heavy_tail_weights), then one sweep of the
      recurrence over the shared v-nodes.  A heavy-tail profile without
      on_lattice raises TypeError before any work, and a complex profile row
      ValueError;
    - raw grid samples (grid-t trapezoid, aliasing-guarded), one projection
      per node of its complex slice as a real and an imaginary weight row.
      It warns (UserWarning) when the input has not decayed at the box
      boundary, when the grid band-limits the Laguerre order below the
      lattice caps and when the spectrum's tail energy exceeds 1e-6.
    A central profile that is not heavy_tail, without coeff_fn, raises
    ValueError: its u-rule projection is the reference in tests/oracles.py,
    not a route.  One table of dim P_k at the deepest cap serves every row.

    The lattice holds real functions, whose rows obey c(-lam) = conj c(lam).
    A closed-form coefficient function that breaks it, compared at +-lam on
    the node where its row is largest to 1e-12 of scale, raises ValueError;
    grid samples are real by construction (GridFunction).  On the heavy-tail
    route the comparison sets the point evaluation at -lam against the
    on_lattice row at lam, so it also checks the two against each other.
    """
    if not u.polyradial:
        raise ValueError("analyze_polyradial requires a polyradial input")
    spec = u.spec
    n = spec.n
    alpha = n - 1
    lams = grid.nodes

    if u.coeff_fn is not None:
        ks = [np.arange(int(c)) for c in grid.k_caps]
        coeffs = [np.asarray(u.coeff_fn(k, lam), dtype=complex) for k, lam in zip(ks, lams)]
        _require_conjugate(u.coeff_fn, ks, lams, coeffs, "closed-form coefficient function")
        return PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)
    if u.central_profile is not None and not u.heavy_tail:
        raise ValueError("a central profile alone is analysed only when heavy_tail (the v-rule "
                         "route); give closed-form coefficients (coeff_fn) or grid samples")

    dims = proj_dim(np.arange(int(grid.k_caps.max())), n)
    if u.central_profile is not None:
        # v = |lam| u covers the power-law radial tail uniformly in lam and
        # makes the x-nodes shared across lambda, so the profile is one
        # (M, N_v) on_lattice matrix and the whole lattice projects through
        # one batched recurrence, its weight rows deepest first
        if not hasattr(u.central_profile, "on_lattice"):
            raise TypeError("a heavy-tail central profile needs on_lattice(lams, v): "
                            "the analysis evaluates it on the whole lattice at once")
        quad = quad or AnalysisQuadrature.build(spec)
        order = np.argsort(-grid.k_caps, kind="stable")
        W, (lam, x, prof) = _heavy_tail_weights(u.central_profile, lams[order], quad,
                                                _angular_const(n), alpha)
        _require_conjugate(u.central_profile, [x], [lam], [prof],
                           "central profile (point value at -lambda against on_lattice)")
        raw = _project(0.5 * quad.v_nodes, W, grid.k_caps[order], alpha)
        coeffs = [None] * grid.M
        for i, c in zip(order, raw):
            c /= dims[:len(c)]
            coeffs[i] = c
        return PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)

    _alias_guard(grid, spec)
    if not u.boundary_decay_ok():
        warnings.warn("input does not decay at the box boundary", stacklevel=2)
    # the central slice of a polyradial function depends on |z| alone: the
    # samples summed over equal-radius nodes form one (Nr, Nt) profile,
    # transformed once.  The z-grid resolves the Laguerre oscillation
    # (frequency sqrt(2 k lam) in r) only up to k ~ pi^2/(4 lam h^2), so
    # deeper modes are cut
    radii, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    prof = np.zeros((radii.size, spec.N_t))
    np.add.at(prof, inv, u.values.reshape(-1, spec.N_t))
    slices = _t_transform(prof, grid, spec.t_axis, spec.h_t).T * spec.h_z ** (2 * n)  # (M, Nr)
    k_lim = (math.pi ** 2 / (4.0 * lams * spec.h_z ** 2)).astype(int)
    caps = np.minimum(grid.k_caps, np.maximum(16, k_lim))
    coeffs = []
    for lam, kcap, sl in zip(lams, caps, slices):
        re, im = _project(0.5 * lam * radii, np.stack([sl.real, sl.imag]), [kcap, kcap], alpha)
        coeffs.append((re + 1j * im) / dims[:kcap])
    out = PolyradialSpectrum(grid=grid, n=n, coeffs=coeffs, name=u.name)
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
# batch of one.  The lambda nodes are taken deepest first, in groups that fit
# SWEEP_BUDGET, and each group runs one _laguerre_sweep over the radii of all
# its nodes (x = lambda u / 2 per node).  Each table block is contracted in
# real arithmetic against the coefficients of every symbol, and of their d/du
# rows when asked, one batched matrix product over the nodes still active.
# Blocks are EXPAND_CHUNK rows whatever the group, so a radius' value does
# not depend on the other radii or nodes it is synthesized with.  A node
# stands for the pair +-lambda, so a symbol may depend on lambda only through
# |lambda|: symbols need SpectralMultiplier.on_pairs (see the operators module).
# ---------------------------------------------------------------------------

SWEEP_BUDGET = 2 ** 18     # doubles (2 MiB) of one synthesis group's accumulators and tables


def slices_at_radii_batch(S: PolyradialSpectrum, u_vals: np.ndarray, mults,
                          want_du=False):
    """Per-level slices (L, M, Nu) at the nodes lambda > 0 for a family of
    diagonal symbols, and with want_du their d/du slices as well.

    mults is a sequence of SpectralMultiplier or None (the identity); a symbol
    without SpectralMultiplier.on_pairs, such as a plain callable, raises
    TypeError.  A symbol of another dimension n than the spectrum's, or a
    negative u = |z|^2, raises ValueError.  want_du is a bool, True for the
    d/du slices of every symbol, or a list or tuple of one bool per symbol;
    with a list or tuple the d/du slices are those of the flagged symbols,
    in order, (D, M, Nu) for D flags, and (slices, d/du slices) is returned
    whatever the flags.

    Each symbol's on_pairs runs once, on the (k, lambda) points of every node,
    deepest node (longest row) first.  A group holds as many nodes as keep its
    working set within SWEEP_BUDGET doubles, at least one: per node and
    radius, the accumulators and the product they add (2 R real rows each,
    R = L plus one row per d/du slice) and the table block of
    EXPAND_CHUNK + 2 rows.  On the default lattice a batch of one at 198
    radii takes 18 nodes per group (17 with want_du) and steps the
    recurrence 12,542 times, at 360 radii 10 nodes (9) and 13,203 steps,
    against the 33,436 of one sweep per node.  A batch of dozens of levels
    falls back to one node per group, as do the g* tables' merged batches:
    58 symbols with 29 d/du rows at 512 radii, 86 with 43 at 640.
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
    if isinstance(want_du, (list, tuple)):
        if len(want_du) != L:
            raise ValueError(f"want_du has {len(want_du)} flags for {L} symbols")
        du = [l for l, flag in enumerate(want_du) if flag]
    else:
        du = list(range(L)) if want_du else []
    out = np.empty((L, S.grid.M, nu), dtype=complex)
    dout = np.empty((len(du), S.grid.M, nu), dtype=complex)
    depth = np.array([len(c) for c in S.coeffs])
    order = np.argsort(depth, kind="stable")[::-1]
    depth = depth[order]
    lam = S.grid.nodes[order]
    ends = np.cumsum(depth)
    # every symbol's values, (points, L), in one array freed as one when the
    # call ends, then a row the last group's blocks read past its end; the
    # identity's column is 1
    syms = np.zeros((ends[-1] + 1, L))
    for l, m in enumerate(mults):
        syms[:-1, l] = 1.0 if m is None else m.on_pairs(lam, depth)
    R = L + len(du)
    per_node = nu * (4 * R + EXPAND_CHUNK + 2)                  # doubles
    size = max(1, SWEEP_BUDGET // max(per_node, 1))
    for g in range(0, len(order), size):
        h = slice(g, g + size)
        span = slice(ends[g] - depth[g], ends[h][-1] + 1)      # and one point past it
        _sweep_group(S, order[h], lam[h], depth[h], syms[span], du, u_vals, out, dout)
    return (out, dout) if isinstance(want_du, (list, tuple)) or want_du else out


def _sweep_group(S: PolyradialSpectrum, rows, lam, depth, syms, du, u_vals: np.ndarray,
                 out, dout) -> None:
    """Fill the columns of one group of lambda nodes in out and dout: the
    group's share of slices_at_radii_batch.

    rows indexes the group's nodes, deepest first, with their lambda and
    depths, and syms (points + 1, L) holds each symbol's
    SpectralMultiplier.on_pairs values on the group's points, node after
    node, and one finite row past them; no symbol is evaluated here.  du
    lists the symbols whose d/du slices fill dout, in order.  The d/du rows'
    suffix sums need whole rows, so they are formed up front (_du_rows); a
    value row is the coefficients times the symbol, formed block by block.
    """
    L, nu, n = syms.shape[1], u_vals.size, S.n
    D = len(du)
    R = L + D
    offset = np.concatenate([[0], np.cumsum(depth)])
    end = offset[-1]
    # the nodes' coefficient rows one after another, then a zero that the
    # blocks read past a row's end; the d/du rows alike
    c = np.concatenate([S.coeffs[i] for i in rows] + [np.zeros(1)])
    dV = _du_rows(c[:-1], syms[:-1, du], offset, lam)
    x = (0.5 * lam)[:, None] * u_vals[None, :]
    acc = np.zeros((len(rows), 2 * R, nu))
    prod = np.empty_like(acc)
    for k0, block in _laguerre_sweep(x, depth, n - 1, EXPAND_CHUNK):
        klen, a = len(block), int(np.count_nonzero(depth > k0))
        kk = k0 + np.arange(klen)
        at = np.where(kk < depth[:a, None], offset[:a, None] + kk, end)
        # the block's rows, (a, klen, 2R) in memory: re and im of every
        # symbol's coefficients, then of the d/du rows.  matmul picks its
        # kernel, and so its roundoff, by the operands' strides; this layout
        # keeps the bits of every synthesis without d/du rows
        Ck = np.empty((a, klen, R), dtype=complex)
        np.multiply(np.take(c, at)[..., None], np.take(syms, at, axis=0), out=Ck[..., :L])
        if D:
            Ck[..., L:] = np.take(dV, at, axis=0)
        np.matmul(Ck.view(float).transpose(0, 2, 1), block.reshape(klen, a, nu).transpose(1, 0, 2),
                  out=prod[:a])
        acc[:a] += prod[:a]
    acc *= ((2 * math.pi) ** (-n) * lam ** n)[:, None, None]
    for dst, part in ((out, acc[:, :2 * L]), (dout, acc[:, 2 * L:])):
        dst.real[:, rows] = part[:, 0::2].transpose(1, 0, 2)
        dst.imag[:, rows] = part[:, 1::2].transpose(1, 0, 2)


def _du_rows(c: np.ndarray, syms: np.ndarray, offset, lam) -> np.ndarray:
    """(points + 1, D) complex d/du rows of the coefficients c times the D
    symbol columns syms, node after node (offset), then a zero row.

    A d/du row is a series on the same table: d/dx sum_{k<d} a_k l_k =
    sum_{k<d} b_k l_k with b_k = -(a_k/2 + sum_{k<j<d} a_j), exactly, since
    d/dx L_k^alpha = -L_{k-1}^{alpha+1} = -sum_{j<k} L_j^alpha (DLMF 18.9,
    18.18); d/du = (lam/2) d/dx.  A node's rows are formed for as many
    symbols at once as keep each temporary within SWEEP_BUDGET doubles.
    """
    D = syms.shape[1]
    out = np.zeros((offset[-1] + 1, D), dtype=complex)
    for i, (lo, hi) in enumerate(zip(offset[:-1], offset[1:])):
        step = max(1, SWEEP_BUDGET // (2 * (hi - lo)))
        for d0 in range(0, D, step):
            d = slice(d0, min(d0 + step, D))
            a = c[lo:hi] * syms[lo:hi, d].T
            b = -0.5 * a
            b[:, :-1] -= np.cumsum(a[:, :0:-1], axis=1)[:, ::-1]   # sum_{j>k} a_j, this row only
            b *= 0.5 * lam[i]
            out[lo:hi, d] = b.T
    return out


def _synthesized_values(S: PolyradialSpectrum, spec: GridSpec, mults):
    """Real grid values per symbol: lambda-quadrature of e^{-i lam t} f^lam(z)."""
    if spec.n != S.n:
        raise ValueError(f"a spectrum of dimension n = {S.n} cannot fill a grid of n = {spec.n}")
    uniq, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    sl = slices_at_radii_batch(S, uniq, mults)                  # (L, M, Nu)
    ph = _lambda_phases(S.grid, spec.t_axis)
    for l in range(len(mults)):
        yield _lambda_inversion(sl[l], ph)[inv].reshape(spec.shape)     # (Nu, Nt) -> grid


def synthesize_batch(S: PolyradialSpectrum, spec: GridSpec, mults) -> list:
    """Synthesize one real grid function per diagonal symbol, sharing the tables."""
    return [GridFunction(spec=spec, values=vals, name=f"synth[{S.name};{l}]", polyradial=True)
            for l, vals in enumerate(_synthesized_values(S, spec, mults))]


def synthesize(S: PolyradialSpectrum, spec: GridSpec) -> GridFunction:
    """Rebuild a real grid function: the batch of one with the identity symbol."""
    vals, = _synthesized_values(S, spec, [None])
    return GridFunction(spec=spec, values=vals, name=f"synth[{S.name}]", polyradial=True)


def synthesize_at(S: PolyradialSpectrum, u_vals: np.ndarray, t_vals: np.ndarray,
                  deriv: Optional[str] = None) -> np.ndarray:
    """Real point values at scattered (|z|^2, t) pairs.

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
    sl = sl[1] if deriv == "du" else sl
    ph = _lambda_phases(S.grid, t_vals.ravel(), dt=deriv == "dt")
    return _lambda_inversion(sl[0], ph, pointwise=True).reshape(u_vals.shape)


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
    lhs = integrate(u.copy_with(u.values ** 2, name="u^2"))
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
