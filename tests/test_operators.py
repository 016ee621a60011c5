import math

import numpy as np
import pytest
from scipy.integrate import quad as spquad

from hfrac.group import GridSpec, TestFunctionId, integrate, make_test_function
from hfrac.lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    analyze_polyradial,
    synthesize,
    synthesize_batch,
)
from hfrac.operators import (
    _KINDS,
    SpectralMultiplier,
    apply_operator,
    equivalence_symbol_check,
    evaluate_multiplier,
    gamma_ratio_asymptotic_check,
)


EVERY_KIND = [SpectralMultiplier("sublaplacian"), SpectralMultiplier("frac_nonconf", 0.3),
              SpectralMultiplier("frac_conf", 0.3), SpectralMultiplier("heat", 0.2),
              SpectralMultiplier("poisson_nonconf", 0.5),
              SpectralMultiplier("poisson_nonconf_drho", 0.5),
              SpectralMultiplier("poisson_subordination", 0.5),
              SpectralMultiplier("macdonald", (0.3, 0.7)), SpectralMultiplier("riesz_nonconf", 0.4),
              SpectralMultiplier("equivalence", 0.3)]


def _positive_lattice(grid):
    """(k, lam) over every lattice point, all at lam > 0, flattened."""
    return np.concatenate([np.arange(c) for c in grid.k_caps]), np.repeat(grid.nodes, grid.k_caps)


@pytest.fixture(scope="module")
def setup():
    spec = GridSpec()
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    return spec, grid, quad


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_conformal_at_s1_is_sublaplacian_lattice():
    # L_1 = L: exact match over the full (k <= 64, lambda) lattice
    grid = LambdaGrid.build()
    k = np.arange(65)
    mc = SpectralMultiplier("frac_conf", 1.0)
    ms = SpectralMultiplier("sublaplacian")
    for lam in grid.nodes:
        a = evaluate_multiplier(mc, k, lam)
        b = evaluate_multiplier(ms, k, lam)
        assert np.max(np.abs(a - b) / b) <= 1e-12


def test_frac_nonconf_value():
    m = SpectralMultiplier("frac_nonconf", 0.5)
    assert evaluate_multiplier(m, np.array([1]), 1.0)[0] == pytest.approx(math.sqrt(3), rel=1e-14)


def test_heat_zero_is_identity():
    m = SpectralMultiplier("heat", 0.0)
    assert np.all(evaluate_multiplier(m, np.arange(10), 2.5) == 1.0)


def test_lambda_zero_rejected():
    m = SpectralMultiplier("sublaplacian")
    with pytest.raises(ValueError):
        evaluate_multiplier(m, np.array([0]), 0.0)


def test_parameter_ranges_rejected():
    with pytest.raises(ValueError):
        SpectralMultiplier("frac_conf", 2.5)     # needs s < n+1
    with pytest.raises(ValueError):
        SpectralMultiplier("frac_nonconf", -0.1)
    with pytest.raises(ValueError):
        SpectralMultiplier("poisson_nonconf", 0.0)
    with pytest.raises(ValueError):
        SpectralMultiplier("riesz_nonconf", 2.0)
    with pytest.raises(ValueError):
        SpectralMultiplier("wave", 1.0)
    with pytest.raises(ValueError):
        SpectralMultiplier("poisson_nonconf_drho", 0.0)
    with pytest.raises(ValueError):
        SpectralMultiplier("heat", float("nan"))      # would make every symbol value NaN
    for rho in (0.0, -0.5):
        with pytest.raises(ValueError, match="rho > 0"):
            SpectralMultiplier("poisson_subordination", rho)
    for bad in ((1.0, 1.0), (0.0, 1.0), (0.5, 0.0), (0.5, -1.0), 0.5, (0.5,), (0.5, 1.0, 2.0)):
        with pytest.raises(ValueError):
            SpectralMultiplier("macdonald", bad)    # needs (s, rho), 0 < s < 1, rho > 0
    # a parameter that is not a real scalar fails by type, before any range
    # check could accept it or fail on it by accident
    for kind, bad in (("poisson_nonconf", np.array([1.0])), ("heat", (0.5, 1.0)),
                      ("frac_nonconf", "0.3"), ("heat", True), ("frac_conf", np.array(0.3)),
                      ("macdonald", ("0.5", 1.0)), ("macdonald", (0.5, np.array([1.0]))),
                      ("macdonald", (True, 1.0))):
        with pytest.raises(TypeError, match="real scalar"):
            SpectralMultiplier(kind, bad)
    # numpy scalars are real scalars: the ladders pass np.float64 radii
    for kind, ok in (("poisson_nonconf", np.float64(0.5)), ("heat", np.int64(2)),
                     ("macdonald", (np.float64(0.3), np.float32(1.0)))):
        assert SpectralMultiplier(kind, ok).label()


def test_every_kind_is_even_in_lambda():
    # synthesis and apply_operator evaluate each symbol once per +-lam pair
    assert {m.kind for m in EVERY_KIND} == set(_KINDS)
    k, lam = _positive_lattice(LambdaGrid.build())
    for m in EVERY_KIND:
        assert np.array_equal(evaluate_multiplier(m, k, lam), evaluate_multiplier(m, k, -lam)), m.kind


def test_subordination_symbol_matches_poisson_on_lattice():
    # the 96-node log-Gauss subordination integral against exp(-rho sqrt(mu))
    k, lam = _positive_lattice(LambdaGrid.build())
    for rho in (0.1, 0.5, 1.0, 2.0, 8.0):
        sub = evaluate_multiplier(SpectralMultiplier("poisson_subordination", rho), k, lam)
        ref = evaluate_multiplier(SpectralMultiplier("poisson_nonconf", rho), k, lam)
        assert np.max(np.abs(sub - ref)) <= 1e-9, rho


def test_macdonald_half_is_poisson():
    # theta_{1/2}(rho, mu) = e^{-rho sqrt(mu)}: K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    grid = LambdaGrid.build()
    k = np.arange(200)
    for rho in (0.25, 1.0, 4.0):
        m = SpectralMultiplier("macdonald", (0.5, rho))
        p = SpectralMultiplier("poisson_nonconf", rho)
        for lam in (grid.nodes[0], -0.3, 1.0, 10.0, grid.nodes[-1]):
            a = evaluate_multiplier(m, k, lam)
            b = evaluate_multiplier(p, k, lam)
            keep = b > 1e-300
            assert keep[0]
            assert np.max(np.abs(a[keep] - b[keep]) / b[keep]) <= 1e-12, (rho, lam)
    assert SpectralMultiplier("macdonald", (0.3, 2.0)).label() == "macdonald(0.3, 2)"


def test_poisson_drho_is_rho_derivative():
    k = np.arange(40)
    h = 1e-5
    for rho in (0.3, 1.0, 2.5):
        d = evaluate_multiplier(SpectralMultiplier("poisson_nonconf_drho", rho), k, 0.7)
        up = evaluate_multiplier(SpectralMultiplier("poisson_nonconf", rho + h), k, 0.7)
        dn = evaluate_multiplier(SpectralMultiplier("poisson_nonconf", rho - h), k, 0.7)
        assert np.all(d < 0)
        assert np.max(np.abs((up - dn) / (2 * h) - d) / np.abs(d)) <= 1e-8, rho


def test_poisson_square_vs_subordination_integral():
    # e^{-rho sqrt(mu)} = rho Int (4 pi)^{-1/2} w^{-3/2} e^{-rho^2/4w} e^{-w mu} dw;
    # checked against adaptive quadrature (the w^{-3/2} power is what the closed
    # Laplace transform Int w^{-3/2} e^{-A/w - Bw} dw = sqrt(pi/A) e^{-2 sqrt(AB)} forces)
    rho = 1.0
    m = SpectralMultiplier("poisson_nonconf", rho)
    for mu in (1.0, 3.0, 10.0):
        # lattice point with that eigenvalue: k=0, lam=mu (n=1 gives mu=|lam|)
        direct = evaluate_multiplier(m, np.array([0]), mu)[0]
        val, _ = spquad(lambda w: rho / math.sqrt(4 * math.pi) * w ** -1.5
                        * math.exp(-rho * rho / (4 * w)) * math.exp(-w * mu),
                        0, np.inf, limit=200)
        assert abs(direct - val) <= 1e-8 * direct


def test_symbols_positive_and_monotone():
    grid = LambdaGrid.build()
    k = np.arange(65)
    for kind, p in (("sublaplacian", None), ("frac_nonconf", 0.3), ("frac_conf", 0.3),
                    ("heat", 0.7), ("poisson_nonconf", 1.2), ("riesz_nonconf", 0.4),
                    ("equivalence", 0.3)):
        m = SpectralMultiplier(kind, p)
        for lam in (grid.nodes[0], 0.5, 7.0):
            v = evaluate_multiplier(m, k, lam)
            assert np.all(v >= 0) and np.all(np.isfinite(v))
        # strictly positive wherever the exponentials stay above the underflow floor
        assert np.all(evaluate_multiplier(m, np.arange(17), 1.0) > 0)
    for kind, p in (("heat", 0.7), ("poisson_nonconf", 1.2)):
        m = SpectralMultiplier(kind, p)
        v1 = evaluate_multiplier(m, k, 0.8)
        v2 = evaluate_multiplier(m, k, 1.6)
        assert np.all(v1 <= 1.0) and np.all(np.diff(v1) < 0)
        assert np.all(v2 < v1)


# ---------------------------------------------------------------------------
# lattice application
# ---------------------------------------------------------------------------

def test_apply_identity(setup):
    spec, grid, quad = setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    out = apply_operator(S, SpectralMultiplier("heat", 0.0)).spectrum
    for a, b in zip(S.coeffs, out.coeffs):
        assert np.array_equal(a, b)


def _shifted_uneven(spec, grid, quad):
    """The t-shifted gaussian (rows times e^{0.7 i lam}, complex), every other row
    cut to half its cap, so rows differ from the caps and from each other."""
    Sf = analyze_polyradial(make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec),
                            grid, quad)
    coeffs = [(c[:len(c) // 2 + 1] if i % 2 else c) * np.exp(0.7j * lam)
              for i, (c, lam) in enumerate(zip(Sf.coeffs, grid.nodes))]
    return PolyradialSpectrum(grid=grid, n=1, coeffs=coeffs)


def test_apply_operator_matches_row_by_row_evaluation(setup):
    # one evaluation over every node on its row's k scales each row bit for
    # bit as a per-row evaluation does, with lam an array over the row as
    # on_pairs passes it (a scalar lam rounds (2|lam|)^s of frac_conf
    # differently, by up to 1 ulp)
    spec, grid, quad = setup
    S = _shifted_uneven(spec, grid, quad)
    for m in EVERY_KIND:
        out = apply_operator(S, m).spectrum
        for c, got, lam in zip(S.coeffs, out.coeffs, grid.nodes):
            ref = c * evaluate_multiplier(m, np.arange(len(c)), np.full(len(c), lam))
            assert np.array_equal(got, ref), m.kind


def test_applied_spectrum_synthesizes_as_the_symbol(setup):
    # apply_operator and the synthesis engine apply a symbol through the one
    # method on_pairs, so synthesizing m applied to S is synthesizing S with m,
    # bit for bit, on complex rows of unequal length
    _, grid, quad = setup
    spec = GridSpec(N_z=16, N_t=32)
    S = _shifted_uneven(spec, grid, quad)
    for m in EVERY_KIND:
        got = synthesize(apply_operator(S, m).spectrum, spec).values
        ref, = synthesize_batch(S, spec, [m])
        assert np.array_equal(got, ref.values), m.kind


def test_heat_semigroup_exact_on_symbols(setup):
    spec, grid, quad = setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    one = apply_operator(apply_operator(S, SpectralMultiplier("heat", 0.3)).spectrum,
                         SpectralMultiplier("heat", 0.45)).spectrum
    two = apply_operator(S, SpectralMultiplier("heat", 0.75)).spectrum
    for a, b in zip(one.coeffs, two.coeffs):
        scale = np.max(np.abs(b), initial=1e-300)
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * scale


def test_riesz_inverts_frac(setup):
    spec, grid, quad = setup
    s = 0.35
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    Ls = apply_operator(S, SpectralMultiplier("frac_nonconf", s)).spectrum
    back = apply_operator(Ls, SpectralMultiplier("riesz_nonconf", 2 * s)).spectrum
    # symbol cancellation is exact
    for a, b in zip(S.coeffs, back.coeffs):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(a), initial=1e-300)
    # and the synthesized function matches the synthesized original
    g0 = synthesize(S, spec)
    g1 = synthesize(back, spec)
    assert np.linalg.norm(g1.values - g0.values) <= 1e-10 * np.linalg.norm(g0.values)


def test_diagonal_operators_commute(setup):
    spec, grid, quad = setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    a = SpectralMultiplier("frac_conf", 0.3)
    b = SpectralMultiplier("heat", 0.2)
    ab = apply_operator(apply_operator(S, a).spectrum, b).spectrum
    ba = apply_operator(apply_operator(S, b).spectrum, a).spectrum
    for x, y in zip(ab.coeffs, ba.coeffs):
        assert np.max(np.abs(x - y), initial=0.0) <= 1e-14 * np.max(np.abs(x), initial=1e-300)


def test_heat_mass_conservation(setup):
    spec, grid, quad = setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    evolved = apply_operator(S, SpectralMultiplier("heat", 1.0)).spectrum
    g = synthesize(evolved, spec)
    # conservation is measured within the lattice representation: the small
    # excluded band (0, lam_min) carries a fixed slice of the raw mass, and
    # leaves both syntheses a floor at the box boundary
    with pytest.warns(UserWarning, match="boundary decay"):
        m0 = integrate(synthesize(S, spec)).real
    with pytest.warns(UserWarning, match="boundary decay"):
        m1 = integrate(g).real
    assert abs(m1 - m0) <= 1e-4 * abs(m0)
    assert abs(m0 - integrate(f).real) <= 1e-2 * abs(m0)


# ---------------------------------------------------------------------------
# symbol checks
# ---------------------------------------------------------------------------

def test_equivalence_symbol_limit():
    rep = equivalence_symbol_check(0.5, K=1024)
    assert rep.get("tail_gap").value <= 0.01
    assert rep.get("C_0").value < math.inf
    assert rep.get("C_1").value < math.inf
    assert rep.passed


def test_equivalence_symbol_requires_K():
    with pytest.raises(ValueError):
        equivalence_symbol_check(0.5, K=32)


def test_gamma_ratio_equal_args():
    rep = gamma_ratio_asymptotic_check(0.7, 0.7)
    assert all(m.value <= 1e-13 for m in rep.measurements if m.name.startswith("dev"))


def test_gamma_ratio_first_order():
    rep = gamma_ratio_asymptotic_check(1.0, 0.5)
    assert rep.get("dev_z=10000").value <= 1e-4
    assert rep.passed


def test_gamma_ratio_monotone():
    rep = gamma_ratio_asymptotic_check(0.75, 0.25)
    assert rep.get("monotone_approach").passed
