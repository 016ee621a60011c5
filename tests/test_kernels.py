import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as spquad
from scipy.special import kv, roots_legendre

from hfrac import kernels
from hfrac.group import (
    GridFunction,
    GridSpec,
    HeisenbergPoint,
    TestFunctionId,
    _diff_axis,
    _sublaplacian_halo,
    dilate,
    make_test_function,
    sublaplacian_grid,
)
from hfrac.kernels import (
    LADDER_DELTA,
    ExtensionField,
    _ladder_radii,
    _measured_window,
    _poisson_level,
    _second_difference,
    conformal_extension,
    conformal_pde_residual,
    constants,
    default_rho_ladder,
    dirichlet_to_neumann_conformal,
    frac_conf_pointwise,
    kernel_spectrum,
    nonconformal_extension,
    nonconformal_pde_residual,
    nonconformal_poisson,
    nonconformal_trace_fit,
)
from hfrac.lagspec import AnalysisQuadrature, LambdaGrid, analyze_polyradial, synthesize
from hfrac.operators import SpectralMultiplier, apply_operator
from hfrac.singular import SingularQuadrature


@pytest.fixture(scope="module")
def setup():
    spec = GridSpec()
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    return spec, grid, quad, f


# ---------------------------------------------------------------------------
# kernel and constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lattice, radii", [
    ("default", [1.3, 1.3 * math.exp(-0.05), 1.3 * math.exp(0.05), 0.45]),
    # 2^2 * 0.5 = 1^2 * 2 exactly: the ladder analyses that node once, with the
    # larger of the two caps, and each radius keeps its own truncation
    ("coinciding", [1.0, 2.0]),
])
def test_kernel_ladder_is_dilation_of_unit_kernel(lattice, radii):
    # c_k(phi_{s,rho})(lam) = rho^{-2s} c_k(phi_{s,1})(rho^2 lam): a ladder call
    # analyses phi_{s,1} once on the dilated lattices; each spectrum must match
    # an independent analysis of phi_{s,rho} on the original lattice
    spec = GridSpec(N_z=16, N_t=16, R_z=4, R_t=4)
    grid = LambdaGrid.build() if lattice == "default" else LambdaGrid(
        nodes=np.array([0.5, 2.0]), weights=np.full(2, 2.0), k_caps=np.array([40, 10]))
    quad = AnalysisQuadrature.build(spec)
    s = 0.3
    ladder = kernel_spectrum(s, np.array(radii), grid, quad, spec.n)
    assert isinstance(ladder, list) and len(ladder) == len(radii)
    for rho, S in zip(radii, ladder):
        ref = analyze_polyradial(make_test_function(TestFunctionId("conformal-kernel", (s, rho)),
                                                    spec), grid, quad)
        assert [len(c) for c in S.coeffs] == list(grid.k_caps)
        scale = max(np.max(np.abs(c)) for c in ref.coeffs)
        err = max(np.max(np.abs(a - b)) for a, b in zip(S.coeffs, ref.coeffs))
        assert err <= 1e-13 * scale
    # a one-radius call analyses a lattice of its own radius alone: same rows
    single, = kernel_spectrum(s, np.array(radii[:1]), grid, quad, spec.n)
    scale = max(np.max(np.abs(c)) for c in ladder[0].coeffs)
    err = max(np.max(np.abs(a - b)) for a, b in zip(single.coeffs, ladder[0].coeffs))
    assert err <= 1e-13 * scale
    for bad in (np.array([1.0, -1.0]), 1.0, np.ones((1, 2))):
        with pytest.raises(ValueError):
            kernel_spectrum(s, bad, grid, quad, spec.n)


def test_kernel_ladder_memory_peak(setup):
    # the heavy-tail analysis of a 21-radius ladder (3,150 nodes x 3,072
    # v-nodes) holds one real weight matrix of 73.8 MiB and no full-size
    # temporary: tracemalloc peaks at 97.9 MiB.  The bound leaves 27 MiB,
    # about a third of one more full-size matrix.
    _, grid, quad, _ = setup
    radii = np.array(_ladder_radii([2.0, 1.4, 1.0, 0.7, 0.5, 0.25, 0.125]))
    assert radii.size == 21
    quad.v_nodes                        # the v-rule is built outside the traced call
    tracemalloc.start()
    try:
        kernel_spectrum(0.3, radii, grid, quad, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 125 * 2 ** 20, peak / 2 ** 20


def phi_kernel(s, rho, p):
    # phi_{s,rho}(p) by the catalog member's evaluator; the grid only carries it
    k = make_test_function(TestFunctionId("conformal-kernel", (s, rho)),
                           GridSpec(N_z=8, N_t=8, R_z=1, R_t=1))
    return float(k.evaluator(p.x[0], p.y[0], p.t))


def test_phi_kernel_origin():
    assert phi_kernel(0.5, 1.0, HeisenbergPoint([0.0], [0.0], 0.0)) == pytest.approx(1.0)
    p = HeisenbergPoint([0.3], [0.1], -0.2)
    assert phi_kernel(0.3, 2.0, p) > 0
    with pytest.raises(ValueError):
        phi_kernel(-0.1, 1.0, HeisenbergPoint([0.0], [0.0], 0.0))


def test_phi_kernel_dilation_scaling():
    s, rho, r = 0.3, 0.7, 1.8
    p = HeisenbergPoint([0.5], [-0.2], 0.4)
    lhs = phi_kernel(s, r * rho, dilate(r, p))
    rhs = r ** (-2 * (1 + 1 + s)) * phi_kernel(s, rho, p)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_constants_closed_forms():
    assert constants(1, 1.0).C == pytest.approx(2.0 / math.pi, rel=1e-13)
    s_half = 0.5 - 1e-12
    assert constants(1, s_half).dtn == pytest.approx(1.0, abs=1e-9)
    kc = constants(1, 0.25)
    assert kc.C > 0 and kc.b > 0 and kc.dtn > 0
    # the Macdonald trace constant holds on all of (0, 1); b only below 1/2
    for s in (0.6, 0.9):
        kc = constants(1, s)
        dtn = 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)
        assert kc.dtn == pytest.approx(dtn, rel=1e-13) and math.isnan(kc.b)
    assert math.isnan(constants(1, 1.0).dtn) and math.isnan(constants(1, 1.5).dtn)
    with pytest.raises(ValueError):
        constants(1, -0.2)


def test_kernel_unit_mass():
    # int C(n,s) rho^{2s} phi_{s,rho} = 1; radial quadrature of the t-integrated
    # profile plus the analytic u^{-1-s} tail
    s, rho = 0.3, 1.0
    tmp = make_test_function(TestFunctionId("conformal-kernel", (s, rho)),
                             GridSpec(N_z=8, N_t=8, R_z=2, R_t=2))
    x, w = roots_legendre(2000)
    U = 1e5
    uu = U * ((x + 1) / 2) ** 2
    ww = U * (x + 1) / 2 * w
    prof = tmp.central_profile(uu, 0.0)
    mass = math.pi * float(np.sum(ww * prof))
    tail = math.pi * float(prof[-1]) * uu[-1] ** (1 + s) * U ** (-s) / s
    kc = constants(1, s)
    total = (mass + tail) * kc.C * rho ** (2 * s)
    assert abs(total - 1.0) <= 1e-3


def test_kernel_spectrum_against_kummer_oracle(setup):
    # C(n,s) rho^{2s} c_k(phi_{s,rho}) equals the Kummer-function multiplier
    # e^{-x/2} U((2k+n+1-s)/2, 1-s, x) G((2k+n+1+s)/2)/G(s),  x = |lam| rho^2/2;
    # scipy's hyperu is dependable for the moderate orders probed here
    from scipy.special import hyperu, gammaln
    spec, grid, quad, _ = setup
    s, rho = 0.3, 0.8
    S, = kernel_spectrum(s, np.array([rho]), grid, quad, spec.n)
    kc = constants(1, s)
    worst, checked = 0.0, 0
    for i in (139, 89, 5, 70, 130):
        lam = grid.nodes[i]
        x = abs(lam) * rho * rho / 2.0
        for k in (0, 1, 7, 31, 64):
            m_ref = math.exp(-x / 2) * hyperu((2 * k + 2 - s) / 2.0, 1 - s, x) \
                * math.exp(gammaln((2 * k + 2 + s) / 2.0) - gammaln(s))
            got = kc.C * rho ** (2 * s) * S.coeffs[i][k].real
            if m_ref > 1e-13:      # above the double-precision quadrature floor
                worst = max(worst, abs(got - m_ref) / abs(m_ref))
                checked += 1
            else:
                assert abs(got - m_ref) <= 1e-14
    assert checked >= 15
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# conformal Poisson operator
# ---------------------------------------------------------------------------

def conformal_poisson(f, s, rho, grid, quad):
    # w(., rho) = C(n,s) rho^{2s} f * phi_{s,rho} on the whole grid: one level
    # of conformal_extension, from the kernel spectrum of rho alone
    Sf = analyze_polyradial(f, grid, quad)
    Sk, = kernel_spectrum(s, np.array([rho]), grid, quad, f.spec.n)
    return synthesize(_poisson_level(Sf, Sk, s, rho), f.spec)


def test_conformal_poisson_converges_to_identity(setup):
    spec, grid, quad, f = setup
    s = 0.45
    errs = []
    for rho in (1.0, 0.25, 1 / 16, 1 / 64, 1 / 256):
        w = conformal_poisson(f, s, rho, grid, quad)
        errs.append(np.linalg.norm(w.values - f.values) / np.linalg.norm(f.values))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 2e-2


def test_conformal_poisson_maximum_principle(setup):
    spec, grid, quad, f = setup
    w = conformal_poisson(f, 0.3, 4.0, grid, quad)
    assert np.max(np.abs(w.values)) <= np.max(np.abs(f.values)) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.3, 0.45])
def test_dtn_conformal(setup, s):
    spec, grid, quad, f = setup
    rep = dirichlet_to_neumann_conformal(f, s, grid=grid, quad=quad)
    assert rep.get("richardson_err").value <= 5e-2
    assert rep.get("monotone_last_3").passed
    assert rep.passed


def test_dtn_requires_valid_s(setup):
    spec, grid, quad, f = setup
    with pytest.raises(ValueError):
        dirichlet_to_neumann_conformal(f, 0.7, grid=grid, quad=quad)


# ---------------------------------------------------------------------------
# pointwise integral representation
# ---------------------------------------------------------------------------

def sample_points(m=25, seed=3, span=1.5):
    rng = np.random.default_rng(seed)
    return [HeisenbergPoint([x], [y], t) for x, y, t in
            zip(rng.uniform(-span, span, m), rng.uniform(-span, span, m),
                rng.uniform(-span, span, m))]


def test_pointwise_ir_matches_spectral(setup):
    spec, grid, quad, f = setup
    squad = SingularQuadrature.build()
    for s in (0.2, 0.45):
        vals, rep = frac_conf_pointwise(f, s, sample_points(), grid, quad, squad)
        assert rep.get("max_rel_deviation").value <= 5e-2
        assert len(vals) == 25


def test_pointwise_ir_plateau_limit(setup):
    # widening the plateau sends the difference integral to zero at the rate a^s
    # (the far field contributes sigma a^s / (2s)); assert the decay, not a level
    spec, grid, quad, _ = setup
    squad = SingularQuadrature.build()
    origin = [HeisenbergPoint([0.0], [0.0], 0.0)]
    s = 0.3
    vals = []
    for a in (0.2, 0.05, 0.0125):
        g = make_test_function(TestFunctionId("gaussian", (a, a)), spec)
        from hfrac.singular import ir_values
        vals.append(abs(ir_values(g, s, origin, squad)[0]))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] / vals[1] <= 4.0 ** (-0.5 * s)


def test_pointwise_ir_dilation_covariance(setup):
    # L_s(f o delta_r)(x) = r^{2s} (L_s f)(delta_r x) on the quadrature route,
    # and D_s(f o delta_r)(x) = r^{2s} (D_s f)(delta_r x) with the same power
    spec, grid, quad, f = setup
    squad = SingularQuadrature.build()
    s = 0.3
    pts = sample_points(8, seed=11, span=1.0)
    from hfrac.singular import d_s_values, ir_values
    for values, bound in ((ir_values, 1e-2), (d_s_values, 1e-3)):
        for r in (1.5, 0.7):
            fr = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)).dilated(r), spec)
            lhs = values(fr, s, pts, squad)
            rhs = r ** (2 * s) * values(f, s, [dilate(r, p) for p in pts], squad)
            assert np.max(np.abs(lhs - rhs)) <= bound * np.max(np.abs(rhs)), (values.__name__, r)


def test_pointwise_ir_rejects_boundary_sample(setup, monkeypatch):
    # a sample outside the interior margin, or no sample at all, fails before
    # the singular quadrature and the spectral analysis run
    spec, grid, quad, f = setup

    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the samples were checked")

    monkeypatch.setattr(kernels, "ir_values", no_analysis)
    monkeypatch.setattr(kernels, "analyze_polyradial", no_analysis)
    far = [HeisenbergPoint([spec.R_z - 0.5], [0.0], 0.0)]
    for bad in (far, []):
        with pytest.raises(ValueError):
            frac_conf_pointwise(f, 0.3, bad, grid, quad)


# ---------------------------------------------------------------------------
# non-conformal semigroup and extension
# ---------------------------------------------------------------------------

def test_macdonald_against_integral_representation():
    # K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt, evaluated adaptively,
    # against the scipy kv the Macdonald symbol evaluates
    for nu in (0.2, 0.3, 0.45, 0.55, 0.7):
        for x in (0.05, 0.3, 1.0, 4.0):
            val, _ = spquad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                            0, 40.0, limit=400)
            ref = float(kv(nu, x))
            assert abs(val - ref) <= 1e-10 * abs(ref), (nu, x)


def test_subordination_route_agrees(setup):
    spec, grid, quad, f = setup
    a = nonconformal_poisson(f, 1.0, "spectral", grid, quad)
    b = nonconformal_poisson(f, 1.0, "subordination", grid, quad)
    assert np.linalg.norm(a.values - b.values) <= 1e-4 * np.linalg.norm(a.values)


def test_nonconformal_poisson_rejects_bad_route_and_radius(setup):
    spec, grid, quad, f = setup
    with pytest.raises(ValueError, match="unknown route"):
        nonconformal_poisson(f, 1.0, "heat", grid, quad)
    for route in ("spectral", "subordination"):
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError, match="rho > 0"):
                nonconformal_poisson(f, rho, route, grid, quad)


def test_poisson_semigroup_fields(setup):
    spec, grid, quad, f = setup
    Sf = analyze_polyradial(f, grid, quad)
    S1 = apply_operator(Sf, SpectralMultiplier("poisson_nonconf", 0.6)).spectrum
    S12 = apply_operator(S1, SpectralMultiplier("poisson_nonconf", 0.4)).spectrum
    a = synthesize(S12, spec)
    b = nonconformal_poisson(f, 1.0, "spectral", grid, quad)
    assert np.linalg.norm(a.values - b.values) <= 1e-6 * np.linalg.norm(b.values)


def test_poisson_kernel_envelope(setup):
    # image of a narrow normalized bump sits under C rho (rho^2+|x|^2)^{-(Q+1)/2}
    # plus the mollification defect, self-estimated by halving the bump width;
    # rho = 1/2 is the smallest level whose central scale the t-grid resolves
    spec, grid, quad, _ = setup
    gauge4 = spec.z_radius_sq()[..., None] ** 2 + 16.0 * spec.meshgrid()[2] ** 2

    def image(eps_a, eps_b, rho):
        d = make_test_function(TestFunctionId("gaussian", (eps_a, eps_b)), spec)
        mass = math.pi / eps_a * math.sqrt(math.pi / eps_b)
        return nonconformal_poisson(d, rho, "spectral", grid, quad).values.real / mass

    fitted = {}
    for rho in (0.5, 1.0, 4.0):
        vals = image(25.0, 25.0, rho)
        env = rho / (rho * rho + np.sqrt(gauge4)) ** 2.5
        mask = vals > 1e-3 * np.max(vals)
        fitted[rho] = float(np.max(vals[mask] / env[mask]))
    C_hat = 1.05 * max(fitted[1.0], fitted[4.0])   # clean levels: bump << kernel scale
    assert math.isfinite(C_hat) and C_hat > 0
    for rho in (0.5, 1.0, 4.0):
        vals = image(25.0, 25.0, rho)
        defect = np.abs(vals - image(50.0, 50.0, rho))
        env = rho / (rho * rho + np.sqrt(gauge4)) ** 2.5
        bound = C_hat * env + 6.0 * defect + 1e-3 * np.max(vals)
        assert np.max(vals - bound) <= 0.0, rho


def _centred(spec, sub):
    # index of sub's grid, a centred window of spec's grid, in spec's grid
    return tuple(slice((N - m) // 2, (N + m) // 2) for N, m in zip(spec.shape, sub.shape))


def test_nonconformal_extension_half_is_poisson(setup):
    spec, grid, quad, f = setup
    fld = nonconformal_extension(f, 0.5, np.array([1.0, 0.5]), grid, quad)
    P = nonconformal_poisson(f, 1.0, "spectral", grid, quad)
    got = fld.levels[0].values
    assert got.size < P.values.size
    ref = P.values[_centred(spec, got)]
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(P.values))


def test_nonconformal_ladder_matches_single_syntheses(setup):
    # one batched sweep gives every level and companion of a separate synthesis
    spec, grid, quad, f = setup
    s, ladder = 0.3, np.array([1.0, 0.5, 0.25])
    fld = nonconformal_extension(f, s, ladder, grid, quad)
    Sf = analyze_polyradial(f, grid, quad)
    for j, rho in enumerate(ladder):
        radii = (rho, rho * math.exp(-LADDER_DELTA), rho * math.exp(LADDER_DELTA))
        for got, r in zip(fld.fields[3 * j:3 * j + 3], radii):
            theta = SpectralMultiplier("macdonald", (s, r), n=spec.n)
            ref = synthesize(apply_operator(Sf, theta).spectrum, spec)
            scale = np.max(np.abs(ref.values))
            cropped = ref.values[_centred(spec, got.values)]
            assert np.max(np.abs(got.values - cropped)) <= 1e-13 * scale, (rho, r)


def test_nonconformal_trace_constant(setup):
    spec, grid, quad, f = setup
    rep = nonconformal_trace_fit(f, 0.3, grid, quad)
    assert rep.get("c_hat_drift").value <= 1e-2
    # the fitted constant reproduces 2^{1-2s} G(1-s)/G(s) (reported, not a paper value)
    assert abs(rep.get("c_hat_over_dtn").value - 1.0) <= 2e-2


def test_nonconformal_trace_constant_above_one_half(setup):
    # the fit accepts 0 < s < 1, and so does its trace constant: at s = 0.6
    # the fitted c_hat is about 1.2535 against dtn = 1.2967
    spec, grid, quad, f = setup
    rep = nonconformal_trace_fit(f, 0.6, grid, quad)
    ratio = rep.get("c_hat_over_dtn").value
    assert math.isfinite(ratio)
    assert ratio == pytest.approx(rep.get("c_hat_rho=0.0078125").value / constants(1, 0.6).dtn,
                                  rel=1e-15)
    assert ratio == pytest.approx(1.2535 / 1.2967, rel=1e-3)


def test_nonconformal_trace_fit_reads_last_two_levels(setup):
    # the fit synthesizes only the two smallest radii of the default ladder;
    # its constants must be those of the full ladder's last two levels
    spec, grid, quad, f = setup
    s = 0.3
    rep = nonconformal_trace_fit(f, s, grid, quad)
    ladder = default_rho_ladder()
    fld = nonconformal_extension(f, s, ladder, grid, quad)
    Sf = analyze_polyradial(f, grid, quad)
    ref = synthesize(apply_operator(Sf, SpectralMultiplier("frac_nonconf", s)).spectrum, spec)
    win = spec.interior_window()
    rv = ref.values[win].real.ravel()
    for j in (len(ladder) - 2, len(ladder) - 1):
        d1 = fld.rho_derivative(j)[fld.box]
        Nj = (-ladder[j] ** (1.0 - 2.0 * s) * d1).real.ravel()
        expected = float(np.dot(Nj, rv) / np.dot(rv, rv))
        got = rep.get(f"c_hat_rho={ladder[j]:g}").value
        assert abs(got - expected) <= 1e-12 * abs(expected), ladder[j]


# ---------------------------------------------------------------------------
# PDE residuals (finer dedicated grid: stencil truncation must stay below
# the 1e-3 budget)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def residual_setup():
    spec = GridSpec(N_z=96, N_t=256, R_z=10, R_t=10)
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    levels = np.array([2.0, 1.4, 1.0, 0.7, 0.5, 0.25, 0.125])
    return spec, grid, quad, f, levels


def test_conformal_residual_and_ablation(residual_setup):
    spec, grid, quad, f, levels = residual_setup
    s = 0.3
    fld = conformal_extension(f, s, levels, grid, quad)
    rep = conformal_pde_residual(fld, s)
    assert rep.get("residual_max").value <= 5e-3
    repA = conformal_pde_residual(fld, s, ablate_tt=True, levels=[0])
    assert repA.get("residual_max").value >= 10 * rep.get("residual_max").value


def test_conformal_residual_half(residual_setup):
    # s = 1/2 removes the first-order rho term: the conformal harmonic extension
    spec, grid, quad, f, levels = residual_setup
    fld = conformal_extension(f, 0.5, levels, grid, quad)
    rep = conformal_pde_residual(fld, 0.5)
    assert rep.get("residual_max").value <= 5e-3


def test_nonconformal_residual(residual_setup):
    spec, grid, quad, f, levels = residual_setup
    fld = nonconformal_extension(f, 0.3, levels, grid, quad)
    rep = nonconformal_pde_residual(fld)
    assert rep.get("residual_max").value <= 1e-3


def test_extension_requires_decreasing_ladder(setup):
    spec, grid, quad, f = setup
    with pytest.raises(ValueError):
        nonconformal_extension(f, 0.3, np.array([0.5, 1.0]), grid, quad)
    with pytest.raises(ValueError):
        nonconformal_extension(f, 1.3, np.array([1.0, 0.5]), grid, quad)


def test_extension_field_holds_three_fields_per_level():
    spec = GridSpec(N_z=8, N_t=8)
    fields = [GridFunction(spec=spec, values=np.zeros(spec.shape, complex)) for _ in range(5)]
    with pytest.raises(ValueError):
        ExtensionField(rho_levels=np.array([2.0, 1.0]), fields=fields, provenance="zeros", s=0.3)
    fld = ExtensionField(rho_levels=np.array([2.0, 1.0]), fields=fields + fields[:1],
                         provenance="zeros", s=0.3)
    assert fld.levels[0] is fields[0] and fld.levels[1] is fields[3]
    assert fld.box == spec.interior_window()
    # fields on two grids fail here, not as a broadcast error in rho_derivative
    other = GridSpec(N_z=8, N_t=10)
    mixed = fields + [GridFunction(spec=other, values=np.zeros(other.shape, complex))]
    with pytest.raises(ValueError, match="one grid"):
        ExtensionField(rho_levels=np.array([2.0, 1.0]), fields=mixed, provenance="zeros", s=0.3)
    for box in ((slice(2, 6),) * 2, (slice(2, 6),) * 2 + (slice(0, 8, 2),),
                (slice(2, 6),) * 2 + (slice(5, 5),), (slice(2, 6),) * 2 + (slice(4, 12),),
                (slice(2, 6),) * 2 + (3,)):
        with pytest.raises(ValueError):
            ExtensionField(rho_levels=np.array([2.0, 1.0]), fields=fields + fields[:1],
                           provenance="zeros", s=0.3, box=box)


def test_residual_rejects_empty_level_selection():
    # the default selection keeps 0.12 <= rho <= 2.1, which this ladder misses
    # entirely; no suite may report the empty maximum 0 as a pass
    spec = GridSpec(N_z=16, N_t=32)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    fld = nonconformal_extension(f, 0.3, np.array([8.0, 6.0, 5.0, 4.0, 3.0]))
    with pytest.raises(ValueError):
        nonconformal_pde_residual(fld)
    with pytest.raises(ValueError):
        conformal_pde_residual(fld, 0.3)
    with pytest.raises(ValueError):
        conformal_pde_residual(fld, 0.3, levels=[])


def _whole_grid_residuals(fld, s, with_tt):
    # the residual of every level formed on the whole grid, then read on the
    # interior window: what the window-only residual must reproduce
    out = []
    for j, rho in enumerate(fld.rho_levels):
        w = fld.levels[j]
        spec = w.spec
        d1 = fld.rho_derivative(j)
        d2 = _second_difference(*fld.companions(j))
        Lw = sublaplacian_grid(w, order=6).values
        drho = (1.0 - 2.0 * s) / rho * d1
        res = d2 + drho - Lw
        scale = np.abs(d2) + np.abs(drho) + np.abs(Lw)
        if with_tt:
            tt = 0.25 * rho * rho * _diff_axis(w.values, 2 * spec.n, spec.h_t, 2, 6)
            res += tt
            scale += np.abs(tt)
        win = spec.interior_window()
        out.append(np.linalg.norm(res[win]) / np.linalg.norm(scale[win]))
    return out


@pytest.mark.parametrize("N_z, N_t", [(16, 32), (10, 12), (8, 8)])
def test_window_residuals_match_whole_grid_on_small_grids(N_z, N_t):
    # on small grids the interior window widened by the stencil half-width
    # (4) reaches or passes the faces, where the negative stops of
    # interior_window() must not turn into empty or shifted slices
    spec = GridSpec(N_z=N_z, N_t=N_t)
    rng = np.random.default_rng(N_z)
    levels = np.array([2.0, 1.0, 0.5, 0.25, 0.125])
    fields = [GridFunction(spec=spec, values=rng.normal(size=spec.shape))
              for _ in range(3 * len(levels))]
    fld = ExtensionField(levels, fields, provenance="random", s=0.3)
    if min(N_z, N_t) < 9:
        # the order-6 second difference needs 9 nodes: the whole grid is
        # rejected, and so is its window
        with pytest.raises(ValueError):
            _whole_grid_residuals(fld, 0.3, True)
        with pytest.raises(ValueError):
            conformal_pde_residual(fld, 0.3)
        with pytest.raises(ValueError):
            nonconformal_pde_residual(fld)
        return
    for rep, with_tt in ((conformal_pde_residual(fld, 0.3), True),
                         (nonconformal_pde_residual(fld), False)):
        ref = _whole_grid_residuals(fld, 0.3, with_tt)
        got = [rep.get(f"residual_rho={rho:g}").value for rho in levels]
        assert np.all(np.isfinite(got)) and min(got) > 0
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)


def _whole_grid_extension(f, s, levels, grid, quad, conformal):
    # the builders' level spectra synthesized on the whole grid, with the
    # default box (the interior window): what the suites measured before the
    # builders kept to the measured window
    radii = np.array(_ladder_radii(levels))
    Sf = analyze_polyradial(f, grid, quad)
    if conformal:
        C = constants(f.spec.n, s).C
        spectra = [Sf.convolve(Sk) * (C * r ** (2 * s))
                   for r, Sk in zip(radii, kernel_spectrum(s, radii, grid, quad, f.spec.n))]
    else:
        spectra = [apply_operator(Sf, SpectralMultiplier("macdonald", (s, r))).spectrum
                   for r in radii]
    return ExtensionField(levels, [synthesize(S, f.spec) for S in spectra], "whole grid", s)


def _traces(fld, s, f, kind, grid, quad):
    # (-rho^{1-2s} d_rho U per level, the spectral reference) on fld.box, as
    # the DtN and the trace fit form them
    ref = synthesize(apply_operator(analyze_polyradial(f, grid, quad),
                                    SpectralMultiplier(kind, s)).spectrum, fld.fields[0].spec)
    return ([-rho ** (1.0 - 2.0 * s) * fld.rho_derivative(j)[fld.box]
             for j, rho in enumerate(fld.rho_levels)], ref.values[fld.box])


def test_builder_fields_measure_what_whole_grid_fields_measured():
    spec = GridSpec(N_z=32, N_t=64, R_z=8, R_t=8)
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    quad = AnalysisQuadrature.build(spec, n_radial_v=224)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    s, levels = 0.3, default_rho_ladder()
    kc = constants(spec.n, s)

    def close(got, ref, what):
        assert abs(got - ref) <= 1e-12 * abs(ref), (what, got, ref)

    conf = conformal_extension(f, s, levels, grid, quad)
    assert conf.fields[0].spec.shape != spec.shape and conf.box != spec.interior_window()
    whole = _whole_grid_extension(f, s, levels, grid, quad, conformal=True)
    got, ref = conformal_pde_residual(conf, s), conformal_pde_residual(whole, s)
    for rho in levels[(levels >= 0.12) & (levels <= 2.1)]:
        close(got.get(f"residual_rho={rho:g}").value, ref.get(f"residual_rho={rho:g}").value, rho)
    rep = dirichlet_to_neumann_conformal(f, s, grid, quad)
    traces, target = _traces(whole, s, f, "frac_conf", grid, quad)
    target = kc.dtn * target
    for rho, Nj in zip(levels, traces):
        close(rep.get(f"ladder_err_rho={rho:g}").value,
              np.linalg.norm(Nj - target) / np.linalg.norm(target), rho)
    r_ratio = (levels[-2] / levels[-1]) ** (2.0 - 2.0 * s)
    extrap = (r_ratio * traces[-1] - traces[-2]) / (r_ratio - 1.0)
    close(rep.get("richardson_err").value,
          np.linalg.norm(extrap - target) / np.linalg.norm(target), "richardson")

    nonc = nonconformal_extension(f, s, levels, grid, quad)
    whole = _whole_grid_extension(f, s, levels, grid, quad, conformal=False)
    got, ref = nonconformal_pde_residual(nonc), nonconformal_pde_residual(whole)
    for rho in levels[(levels >= 0.12) & (levels <= 2.1)]:
        close(got.get(f"residual_rho={rho:g}").value, ref.get(f"residual_rho={rho:g}").value, rho)
    rep = nonconformal_trace_fit(f, s, grid, quad)
    traces, rv = _traces(whole, s, f, "frac_nonconf", grid, quad)
    rv = rv.real.ravel()
    for rho, Nj in list(zip(levels, traces))[-2:]:
        close(rep.get(f"c_hat_rho={rho:g}").value,
              float(np.dot(Nj.real.ravel(), rv) / np.dot(rv, rv)), rho)


def test_builder_fields_keep_the_whole_small_grid():
    # where the window's stencil halo reaches the faces, the builders keep
    # the whole grid and measure its interior window
    spec = GridSpec(N_z=12, N_t=32)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    quad = AnalysisQuadrature.build(spec, n_radial_v=224)
    for fld in (nonconformal_extension(f, 0.3, np.array([1.0, 0.5]), grid, quad),
                conformal_extension(f, 0.3, np.array([1.0, 0.5]), grid, quad)):
        assert all(g.spec is spec for g in fld.fields)
        assert fld.box == spec.interior_window()


@pytest.mark.parametrize("spec", [GridSpec(N_z=96, N_t=256, R_z=10, R_t=10), GridSpec(),
                                  GridSpec(N_z=48, N_t=96, R_z=8, R_t=8),
                                  GridSpec(n=2, N_z=24, N_t=40, R_z=5, R_t=7)])
def test_measured_window_is_the_centred_window_plus_halo(spec):
    # the window grid keeps the steps; its axes are the whole grid's centred
    # slice to within a few ulp, not always bit for bit
    h = _sublaplacian_halo(6)
    window, box = _measured_window(spec)
    assert (window.n, window.h_z, window.h_t) == (spec.n, spec.h_z, spec.h_t)
    wide = tuple(slice(sl.start - h, sl.stop + h) for sl in spec.interior_window())
    assert window.shape == tuple(sl.stop - sl.start for sl in wide) != spec.shape
    ulp = np.spacing(max(spec.R_z, spec.R_t))
    assert np.max(np.abs(window.z_axis - spec.z_axis[wide[0]])) <= 4 * ulp
    assert np.max(np.abs(window.t_axis - spec.t_axis[wide[-1]])) <= 4 * ulp
    # box is inset by h and as long as the interior window on every axis
    assert box == tuple(slice(h, N - h) for N in window.shape)
    assert all(b.stop - b.start == w.stop - w.start for b, w in zip(box, spec.interior_window()))


def test_builder_fields_sit_on_the_measured_window():
    spec = GridSpec(N_z=48, N_t=96, R_z=8, R_t=8)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    quad = AnalysisQuadrature.build(spec, n_radial_v=224)
    window, box = _measured_window(spec)
    for fld in (nonconformal_extension(f, 0.3, np.array([1.0, 0.5]), grid, quad),
                conformal_extension(f, 0.3, np.array([1.0, 0.5]), grid, quad)):
        assert all(g.spec == window for g in fld.fields)
        assert fld.box == box


@pytest.mark.parametrize("N_z, N_t", [(12, 32), (10, 12)])
def test_measured_window_keeps_grids_the_halo_outreaches(N_z, N_t):
    spec = GridSpec(N_z=N_z, N_t=N_t)
    window, box = _measured_window(spec)
    assert window is spec and box == spec.interior_window()

