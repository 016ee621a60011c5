"""Spectral multipliers on the (k, lambda) lattice.

Every operator here acts diagonally through its scalar symbol m(k, lam) with
mu = (2k+n)|lam| the sublaplacian eigenvalue:

    sublaplacian             mu
    frac_nonconf(s)          mu^s                              (s > 0)
    frac_conf(s)             (2|lam|)^s G(w + (1+s)/2) / G(w + (1-s)/2),  w = (2k+n)/2
                                                               (0 <= s < n+1)
    heat(w)                  exp(-w mu)                        (w >= 0)
    poisson_nonconf(r)       exp(-r sqrt(mu))                  (r > 0)
    poisson_nonconf_drho(r)  -sqrt(mu) exp(-r sqrt(mu)), the r-derivative
                                                               (r > 0)
    poisson_subordination(r) exp(-r sqrt(mu)) as the subordination integral
                             r (4 pi)^{-1/2} int w^{-3/2} e^{-r^2/4w} e^{-w mu} dw
                             on a 96-node log-Gauss rule centred at the saddle
                             w = r/(2 sqrt(mu)): a route through heat symbols
                                                               (r > 0)
    macdonald((s, r))        (2^{1-s}/G(s)) (r sqrt(mu))^s K_s(r sqrt(mu)), the
                             non-conformal extension at height r
                                                               (0 < s < 1, r > 0)
    riesz_nonconf(s)         mu^{-s/2}                         (0 < s < n+1)
    equivalence(s)           (2k+n)^{-s} G((2k+n+1+s)/2) / G((2k+n+1-s)/2)

Every kind is a real function of (k, |lam|) alone, never of the sign of lam,
so it maps a real function to a real one, and its value at a lattice node
lam > 0 serves the pair +-lam the node stands for (lagspec.LambdaGrid).
SpectralMultiplier.on_pairs is the one method that applies a symbol to the
lattice: it evaluates the symbol on the (k, lam) points of a set of nodes
lam > 0 in one call, and apply_operator and the synthesis engine
(lagspec.slices_at_radii_batch) each call it once per symbol.  The engine
accepts only symbols with that method, so that no symbol outside this table
reaches a half lattice that assumes it.

Gamma ratios always go through log-gamma differences; direct quotients
overflow past k of a few dozen.  The Macdonald symbol is set to 0 where
r sqrt(mu) > 700; it is below 1e-300 there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln, kv, roots_legendre

from .lagspec import PolyradialSpectrum
from .report import VerificationReport

__all__ = [
    "SpectralMultiplier",
    "OperatorResult",
    "evaluate_multiplier",
    "apply_operator",
    "equivalence_symbol_check",
    "gamma_ratio_asymptotic_check",
    "gamma_ratio",
]

_KINDS = ("sublaplacian", "frac_nonconf", "frac_conf", "heat", "poisson_nonconf",
          "poisson_nonconf_drho", "poisson_subordination", "macdonald", "riesz_nonconf",
          "equivalence")


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) through log-gamma, elementwise."""
    return np.exp(gammaln(a) - gammaln(b))


@dataclass(frozen=True)
class SpectralMultiplier:
    kind: str
    param: Union[None, float, tuple] = None    # a tuple (s, rho) for macdonald
    n: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        p = self.param
        if self.kind == "sublaplacian":
            if p is not None:
                raise ValueError("sublaplacian takes no parameter")
            return
        if p is None:
            raise ValueError(f"{self.kind} requires a parameter")
        if self.kind == "macdonald" and not (isinstance(p, tuple) and len(p) == 2):
            raise ValueError("macdonald requires (s, rho) with 0 < s < 1 and rho > 0")
        # a bool, a string or an array would pass or fail the range checks by
        # accident, and an array would make the multiplier unhashable
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in (p if self.kind == "macdonald" else (p,))):
            raise TypeError(f"{self.kind} takes real scalar parameters, not {p!r}")
        if self.kind == "frac_nonconf" and not p > 0:
            raise ValueError("frac_nonconf requires s > 0")
        elif self.kind == "frac_conf" and not (0 <= p < self.n + 1):
            raise ValueError("frac_conf requires 0 <= s < n+1")
        elif self.kind == "heat" and not p >= 0:
            raise ValueError("heat requires w >= 0")
        elif self.kind.startswith("poisson") and not p > 0:
            raise ValueError(f"{self.kind} requires rho > 0")
        elif self.kind == "macdonald" and not (0 < p[0] < 1 and p[1] > 0):
            raise ValueError("macdonald requires (s, rho) with 0 < s < 1 and rho > 0")
        elif self.kind == "riesz_nonconf" and not (0 < p < self.n + 1):
            raise ValueError("riesz_nonconf requires 0 < s < n+1")
        elif self.kind == "equivalence" and not (0 < p < 1):
            raise ValueError("equivalence requires s in (0, 1)")

    def label(self) -> str:
        if self.param is None:
            return self.kind
        p = self.param if isinstance(self.param, tuple) else (self.param,)
        return f"{self.kind}({', '.join(f'{v:g}' for v in p)})"

    def on_pairs(self, lam, depth) -> np.ndarray:
        """The symbol at (k, lam[p]) for k < depth[p], node after node, in one
        evaluate_multiplier call.

        lam[p] > 0 is a lattice node, which stands for the pair +-lam[p], and
        depth[p] its row's length: every kind depends on |lam| only, so the
        values hold at lam[p] and -lam[p] alike.
        """
        depth = np.asarray(depth)
        start = np.cumsum(depth) - depth
        return evaluate_multiplier(self, np.arange(depth.sum()) - np.repeat(start, depth),
                                   np.repeat(lam, depth))


def evaluate_multiplier(m: SpectralMultiplier, k, lam):
    """Scalar symbol at lattice points; k integer array-like, lam scalar or array."""
    k = np.asarray(k, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if (lam == 0.0).any():
        raise ValueError("multipliers are not defined at lambda = 0")
    n = m.n
    mu = (2.0 * k + n) * np.abs(lam)
    s = m.param
    if m.kind == "sublaplacian":
        return mu
    if m.kind == "frac_nonconf":
        return mu ** s
    if m.kind == "frac_conf":
        w = (2.0 * k + n) / 2.0
        return (2.0 * np.abs(lam)) ** s * gamma_ratio(w + (1 + s) / 2.0, w + (1 - s) / 2.0)
    if m.kind == "heat":
        return np.exp(-s * mu)
    if m.kind == "poisson_nonconf":
        return np.exp(-s * np.sqrt(mu))
    if m.kind == "poisson_nonconf_drho":
        return -np.sqrt(mu) * np.exp(-s * np.sqrt(mu))
    if m.kind == "poisson_subordination":
        xg, wg = roots_legendre(96)
        v, wv = xg * 9.0, wg * 9.0        # log-offsets around the saddle
        w = (s / (2.0 * np.sqrt(mu)))[..., None] * np.exp(v)
        integrand = s / math.sqrt(4 * math.pi) * w ** -1.5 \
            * np.exp(-s * s / (4 * w) - w * mu[..., None])
        vals = np.sum(integrand * (w * wv), axis=-1)    # dw = w dv on the log scale
        if not np.all(np.isfinite(vals)):
            raise ValueError("subordination quadrature failed to converge")
        return vals
    if m.kind == "macdonald":
        s, rho = m.param
        pref = 2.0 ** (1.0 - s) / math.exp(gammaln(s))
        x = rho * np.sqrt(mu)
        return pref * np.where(x > 700.0, 0.0, x ** s * kv(s, np.minimum(x, 700.0)))
    if m.kind == "riesz_nonconf":
        return mu ** (-s / 2.0)
    if m.kind == "equivalence":
        kk = 2.0 * k + n
        return kk ** (-s) * gamma_ratio((kk + 1 + s) / 2.0, (kk + 1 - s) / 2.0)
    raise AssertionError(m.kind)


@dataclass
class OperatorResult:
    spectrum: PolyradialSpectrum


def apply_operator(S: PolyradialSpectrum, m: SpectralMultiplier) -> OperatorResult:
    """c_k(lam) <- m(k, lam) c_k(lam) on the lattice.

    One m.on_pairs call evaluates the symbol on every node's row.
    """
    if m.n != S.n:
        raise ValueError("multiplier and spectrum dimensions disagree")
    depth = [len(c) for c in S.coeffs]
    sym = m.on_pairs(S.grid.nodes, depth)
    coeffs = [c * row for c, row in zip(S.coeffs, np.split(sym, np.cumsum(depth)[:-1]))]
    out = PolyradialSpectrum(grid=S.grid, n=S.n, coeffs=coeffs, name=f"{m.label()}[{S.name}]")
    return OperatorResult(spectrum=out)


def equivalence_symbol_check(s: float, K: int = 1024, n: int = 1) -> VerificationReport:
    """Boundedness and discrete-derivative decay of the L^{-s} L_s multiplier.

    M(k) = (2k+n)^{-s} G((2k+n+1+s)/2)/G((2k+n+1-s)/2) tends to 2^{-s}; the
    forward differences must satisfy sup_k k^j |D^j M(k)| < inf for j up to
    n+1, the discrete rendering of the multiplier-theorem
    hypothesis.
    """
    if K < 64:
        raise ValueError("K >= 64 required for a meaningful tail")
    order = n + 1
    rep = VerificationReport(suite="equivalence-symbol", inputs={"s": s, "K": K, "n": n})
    m = SpectralMultiplier("equivalence", s, n=n)
    k = np.arange(K + order + 1)
    M = evaluate_multiplier(m, k, 1.0)
    limit = 2.0 ** (-s)
    rep.add("sup_M", float(np.max(M)), route="spectral")
    rep.add("limit_2^-s", limit, route="exact")
    rep.add("tail_gap", abs(M[K] - limit), route="spectral", tolerance=0.01)
    diff = M.copy()
    for j in range(order + 1):
        kk = np.arange(1, K + 1 - j)
        cj = float(np.max(np.abs(diff[1:K + 1 - j]) * kk.astype(float) ** j))
        rep.add(f"C_{j}", cj, route="spectral")
        rep.require(f"C_{j}_finite", math.isfinite(cj))
        diff = np.diff(diff)
    return rep.finish()


def gamma_ratio_asymptotic_check(a: float, b: float) -> VerificationReport:
    """G(z+a)/G(z+b) z^{b-a} -> 1 along z = 10, 10^2, 10^3, 10^4.

    The admitted deviation is the first-order bound 2|a-b||a+b-1|/z; the
    approach must also be monotone along the ladder.
    """
    if not (0 < a < 10 and 0 < b < 10):
        raise ValueError("a, b must lie in (0, 10)")
    rep = VerificationReport(suite="gamma-ratio", inputs={"a": a, "b": b})
    zs = np.array([10.0, 100.0, 1000.0, 10000.0])
    vals = np.exp(gammaln(zs + a) - gammaln(zs + b)) * zs ** (b - a)
    devs = np.abs(vals - 1.0)
    for z, v, d in zip(zs, vals, devs):
        bound = 2.0 * abs(a - b) * abs(a + b - 1.0) / z
        rep.add(f"dev_z={z:g}", d, route="quadrature",
                tolerance=bound if bound > 0 else 1e-14)
    monotone = bool(np.all(np.diff(devs) <= 1e-15)) or a == b
    rep.require("monotone_approach", monotone)
    return rep.finish()
