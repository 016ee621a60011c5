from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from hfrac.group import GridFunction, GridSpec, HeisenbergPoint, TestFunctionId, make_test_function
from hfrac.kernels import ExtensionField, nonconformal_extension
from hfrac.lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    _half_mesh_inversion,
    _lambda_inversion,
    _lambda_phases,
    analyze_polyradial,
    slices_at_radii_batch,
    synthesize_at,
)
from hfrac.operators import SpectralMultiplier, apply_operator
from hfrac import squarefn
from hfrac.singular import SingularQuadrature, _right_args, d_s_values
from hfrac.squarefn import (
    SquareFunctionConfig,
    _band_fit,
    _GradientTable,
    g_function,
    g_parts,
    g_star,
    pointwise_theorem_check,
)
from oracles import extension_gradient_sq_at, gradient_sq

# a short ladder (rho = 1/4, 1/2, 1) and small tables keep every test to seconds
SHORT = SquareFunctionConfig(rho_min=0.25, rho_max=1.0, per_octave=1,
                             n_table_r=64, n_table_t=96)
LAM_PARAM = 1.05     # g* weight exponent, inside (1, 1 + 2s/Q) for s = 0.2


@pytest.fixture(scope="module")
def setup():
    spec = GridSpec()
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    return spec, grid, quad, f, analyze_polyradial(f, grid, quad)


def test_gradient_table_interpolates_exact_gradient(setup):
    # a cubic interpolating spline reproduces its data at the mesh nodes, so
    # the table must equal the exact spectral |grad U|^2 there, which the
    # oracle sums plainly over lam and -lam.  The table folds each node's
    # pair in one real product; the t-shifted spectrum, whose rows are
    # complex, checks that the fold keeps the imaginary parts' share
    Su = setup[4]
    shifted = _shifted(Su)
    lad = SHORT.rho_ladder()
    rng = np.random.default_rng(7)
    ir = rng.integers(0, SHORT.n_table_r, 50)
    it = rng.integers(0, SHORT.n_table_t, 50)
    for S in (Su, shifted):
        table = _GradientTable(S, SHORT)
        r, t = table.r_axis[ir], table.t_axis[it]
        got = table.values(lad, r, np.zeros_like(r), t)
        for rho, g in zip(lad, got):
            exact = extension_gradient_sq_at(S, rho, r * r, t)
            assert np.max(np.abs(g - exact)) <= 1e-10 * np.max(np.abs(exact)), (S.name, rho)


def _shifted(S):
    """The spectrum of S's function shifted by 0.7 in t: complex rows."""
    return PolyradialSpectrum(grid=S.grid, n=S.n, name="shifted", coeffs=[
        c * np.exp(0.7j * lam) for c, lam in zip(S.coeffs, S.grid.nodes)])


@pytest.mark.parametrize("n_t", [96, 97])
def test_half_mesh_inversion_matches_full_mesh(setup, n_t):
    # the t-mesh mirrors the t >= 0 half of linspace(-T, T, n_t), with t = 0
    # once for an odd count, and the inversion on that half gives the
    # full-mesh inversion for every real spectrum, even in t or not, and for
    # the t-derivative's phases as well
    S = _shifted(setup[4])
    table = _GradientTable(S, replace(SHORT, n_table_t=n_t))
    t = table.t_axis
    assert t.size == n_t and np.array_equal(t, -t[::-1])
    assert np.count_nonzero(t == 0.0) == n_t % 2
    assert np.max(np.abs(t - np.linspace(-table.T_MAX, table.T_MAX, n_t))) <= 1e-14 * table.T_MAX
    sl = slices_at_radii_batch(S, table.r_axis ** 2, [SpectralMultiplier("poisson_nonconf", 0.5)])[0]
    for dt, parity in ((False, 1.0), (True, -1.0)):
        ref = _lambda_inversion(sl, _lambda_phases(S.grid, t, dt=dt))
        got = _half_mesh_inversion(sl, _lambda_phases(S.grid, t[n_t // 2:], dt=dt), parity,
                                  np.empty_like(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), dt


def test_band_fit_matches_dense_truncated_product(setup):
    # the default and refined tables' collocation inverses, truncated at 1e-20
    # of their largest entry, are narrow bands whose half-width is read off
    # the nonzeros; the band product skips only exact zeros, so it is the
    # dense product up to summation order, boundary rows and columns included
    rng = np.random.default_rng(3)
    for cfg in (SquareFunctionConfig(), SquareFunctionConfig().refine()):
        table = _GradientTable(setup[4], cfg)
        inverses = ((table._inv_r, table._w_r), (table._inv_t, table._w_t))
        for inv, w in inverses:
            i, j = np.nonzero(inv)
            assert np.max(np.abs(i - j)) == w and 2 * w + 1 < inv.shape[0] // 4
        V = rng.standard_normal((cfg.n_table_r, cfg.n_table_t))
        ref = table._inv_r @ V @ table._inv_t.T
        got = _band_fit(table._inv_r, table._w_r, V.copy(), table._inv_t, table._w_t,
                        np.empty_like(V))
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), cfg.n_table_r


def test_gradient_table_sweeps_once(setup, monkeypatch):
    # U with its d/du slices and d_rho U come from one batched sweep over the
    # mesh radii, with d/du on the Poisson levels only
    spec, Su = setup[0], setup[4]
    calls = []
    real = squarefn.slices_at_radii_batch

    def spy(S, u_vals, mults, want_du=False):
        calls.append((len(mults), want_du))
        return real(S, u_vals, mults, want_du)

    monkeypatch.setattr(squarefn, "slices_at_radii_batch", spy)
    g_star(Su, SHORT, [HeisenbergPoint([0.3], [-0.5], 0.2)], spec, LAM_PARAM)
    L = len(SHORT.rho_ladder())
    assert calls == [(2 * L, [True] * L + [False] * L)]


def _fitpack_eval(table, V, zx, zy, t):
    # one fitpack spline per level, evaluated the way the per-level tables did:
    # clamped into the window, zero outside it, clamped at 0
    sp = RectBivariateSpline(table.r_axis, table.t_axis, V, kx=3, ky=3)
    r = np.sqrt(zx * zx + zy * zy)
    out = sp.ev(np.minimum(r, table.R_MAX), np.clip(t, -table.T_MAX, table.T_MAX))
    out = np.where((r > table.R_MAX) | (np.abs(t) > table.T_MAX), 0.0, out)
    return np.maximum(out, 0.0)


def test_gradient_table_matches_fitpack_splines(setup):
    # off the mesh, and outside the window, the shared evaluation matrix and
    # the GEMM fits give what a per-level fitpack spline of the same data gives
    Su = setup[4]
    lad = SHORT.rho_ladder()
    table = _GradientTable(Su, SHORT)
    rng = np.random.default_rng(13)
    zx, zy = rng.uniform(-20.0, 20.0, (2, 400))
    t = rng.uniform(-30.0, 30.0, 400)
    assert np.any(np.hypot(zx, zy) > table.R_MAX) and np.any(np.abs(t) > table.T_MAX)
    got = table.values(lad, zx, zy, t)
    for rho, g, V in zip(lad, got, table.mesh_values(lad)):
        ref = _fitpack_eval(table, V, zx, zy, t)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(ref), rho


def test_g_star_matches_per_sample_level_loop(setup):
    # the (level, sample) loop over per-level fitpack splines that the one
    # evaluation matrix and the one contraction replace
    spec, Su = setup[0], setup[4]
    samples = [HeisenbergPoint([0.3], [-0.5], 0.2), HeisenbergPoint([-1.1], [0.4], -0.7)]
    got = g_star(Su, SHORT, samples, spec, LAM_PARAM)
    Q = 2 * spec.n + 2
    lad, wts = SHORT.rho_ladder(), SHORT.rho_weights()
    table = _GradientTable(Su, SHORT)
    yq = SingularQuadrature.build(r_min=SHORT.y_r_min, r_max=SHORT.y_r_max,
                                  per_decade=SHORT.y_per_decade,
                                  n_theta=SHORT.y_n_theta, n_phi=SHORT.y_n_phi)
    ref = np.zeros(len(samples))
    for rho, wrho, V in zip(lad, wts, table.mesh_values(lad)):
        wy = yq.w_haar * (rho / (rho + yq.gauge)) ** (LAM_PARAM * Q) * rho ** (1 - Q)
        for i, x in enumerate(samples):
            ref[i] += wrho * rho * float(np.dot(wy, _fitpack_eval(table, V, *_right_args(x, yq))))
    assert np.max(np.abs(got - np.sqrt(ref))) <= 1e-13 * np.max(np.sqrt(ref))


def test_grid_gradient_matches_exact_route(setup):
    # the Macdonald field at s = 1/2 is the Poisson field, so the grid route
    # (stencils and e^{+-delta} companions) must reproduce the exact spectral
    # |grad U|^2 up to its discretization error; the table test above shares
    # the exact route's formula and cannot see an error in it
    spec, grid, quad, f, Su = setup
    ladder = np.array([2.0, 1.0, 0.5, 0.25])
    grads = gradient_sq(nonconformal_extension(f, 0.5, ladder, grid, quad))
    rng = np.random.default_rng(11)
    iz = rng.integers(spec.N_z // 4, 3 * spec.N_z // 4, (64, 2))
    it = rng.integers(spec.N_t // 4, 3 * spec.N_t // 4, 64)
    x, y, t = spec.z_axis[iz[:, 0]], spec.z_axis[iz[:, 1]], spec.t_axis[it]
    # the fields cover a centred window of the box: shift the samples into it
    win = grads[0].spec
    oz, ot = (spec.N_z - win.N_z) // 2, (spec.N_t - win.N_t) // 2
    assert oz > 0 and ot > 0
    for rho, g in zip(ladder, grads):
        exact = extension_gradient_sq_at(Su, rho, x * x + y * y, t)
        got = g.values[iz[:, 0] - oz, iz[:, 1] - oz, it - ot]
        assert np.max(np.abs(got - exact)) <= 2e-2 * np.max(np.abs(exact)), rho


def test_g1_origin_matches_pointwise_rho_quadrature(setup):
    spec, grid, quad, f, Su = setup
    with pytest.warns(UserWarning, match="rho-ladder tail share"):
        g1, gx = g_parts(f, SHORT, grid, quad)
    assert np.all(g1 >= 0) and np.all(gx >= 0)
    iz = int(np.argmin(np.abs(spec.z_axis)))
    it = int(np.argmin(np.abs(spec.t_axis)))
    assert spec.z_axis[iz] == 0.0 and spec.t_axis[it] == 0.0
    ref = 0.0
    for rho, w in zip(SHORT.rho_ladder(), SHORT.rho_weights()):
        dS = apply_operator(Su, SpectralMultiplier("poisson_nonconf_drho", rho)).spectrum
        d = synthesize_at(dS, np.array([0.0]), np.array([0.0]))[0]
        ref += w * rho * rho * abs(d) ** 2
    assert abs(g1[iz, iz, it] - ref) <= 1e-12 * ref


def test_g_star_rejects_boundary_sample_and_n_above_one(setup, monkeypatch):
    # each input is refused before the gradient table does any work, and so
    # are y-nodes on a reversed span [20, 14], which would carry negative
    # Haar weights
    spec, grid, quad, f, Su = setup

    def no_table(*args, **kwargs):
        raise AssertionError("the gradient table was built before the inputs were checked")

    monkeypatch.setattr(squarefn, "_GradientTable", no_table)
    near = [HeisenbergPoint([0.0], [spec.R_z - spec.R_z / 8], 0.0)]
    with pytest.raises(ValueError):
        g_star(Su, SHORT, near, spec, LAM_PARAM)
    with pytest.raises(ValueError, match="r_min < r_max"):
        g_star(Su, SquareFunctionConfig(y_r_min=20.0), [HeisenbergPoint([0.0], [0.0], 0.0)],
               spec, LAM_PARAM)
    spec2 = GridSpec(n=2)
    S2 = PolyradialSpectrum(grid=grid, n=2, coeffs=[np.ones(int(c)) for c in grid.k_caps])
    with pytest.raises(NotImplementedError):
        g_star(S2, SHORT, [HeisenbergPoint(np.zeros(2), np.zeros(2), 0.0)], spec2, LAM_PARAM)


def test_g_function_parts_add_in_squares(setup):
    # g1, g_x and g share one rho-ladder, so g^2 = g1^2 + g_x^2 pointwise
    spec, grid, quad, f, Su = setup
    with pytest.warns(UserWarning, match="rho-ladder tail share"):
        g, g1, gx = (g_function(f, parts, SHORT, grid, quad).values
                     for parts in ("full", "g1", "gx"))
    assert g.dtype == g1.dtype == gx.dtype == np.float64
    assert np.max(np.abs(g * g - (g1 * g1 + gx * gx))) <= 1e-12 * np.max(g * g)
    assert np.max(g1) > 0 and np.max(gx) > 0
    with pytest.raises(ValueError):
        g_function(f, "bad", SHORT, grid, quad)


def test_gradient_sq_sums_every_horizontal_pair():
    # U = x_2 on H^2 at every level: X_2 U = 1, every other X_j, Y_j and d_rho vanish
    spec = GridSpec(n=2, N_z=8, N_t=8)
    x2 = spec.meshgrid()[1].astype(complex)
    fields = [GridFunction(spec=spec, values=x2) for _ in range(9)]   # levels and companions
    fld = ExtensionField(rho_levels=np.array([2.0, 1.0, 0.5]), fields=fields,
                         provenance="x_2", s=0.5)
    for g in gradient_sq(fld):
        assert np.max(np.abs(g.values - 1.0)) <= 1e-12


def test_config_rejects_ladders_below_two_levels():
    # equal ends or no node per octave give a one-level (NaN) ladder, reversed
    # ends an empty one
    for kw in ({"rho_min": 1.0, "rho_max": 1.0}, {"per_octave": 0},
               {"rho_min": 2.0, "rho_max": 1.0}):
        with pytest.raises(ValueError):
            SquareFunctionConfig(**kw)


def test_config_rejects_table_sizes_the_spline_cannot_take(setup):
    # a cubic not-a-knot spline needs four mesh points per axis: smaller,
    # fractional and non-integer sizes are refused at construction, before
    # any analysis, and the least sizes build a working table
    for kw in ({"n_table_r": 3}, {"n_table_t": 2.5}, {"n_table_t": 0}, {"n_table_r": 512.0},
               {"n_table_t": True}, {"n_table_r": "512"}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SquareFunctionConfig(**kw)
    cfg = SquareFunctionConfig(rho_min=0.5, rho_max=1.0, per_octave=1,
                               n_table_r=np.int64(4), n_table_t=5)
    table = _GradientTable(setup[4], cfg)
    vals = list(table.values(cfg.rho_ladder(), np.array([0.5]), np.array([0.0]), np.array([0.0])))
    assert len(vals) == 2 and all(np.all(np.isfinite(v)) for v in vals)


def test_pointwise_theorem_check_compares_d_s_with_g_star_of_L_s(setup):
    # the report's columns are D_s u and g*(L^s u), each as its own routine
    # gives it, and the empirical constant is their largest ratio
    spec, grid, quad, f, Su = setup
    s = 0.2
    samples = [HeisenbergPoint([0.3], [-0.5], 0.2), HeisenbergPoint([-1.1], [0.4], -0.7)]
    squad = SingularQuadrature.build()
    res = pointwise_theorem_check(f, s, LAM_PARAM, samples, grid, quad, SHORT, squad)
    assert res.report.passed
    Sw = apply_operator(Su, SpectralMultiplier("frac_nonconf", s)).spectrum
    for got, ref in ((res.ds, d_s_values(f, s, samples, squad)),
                     (res.gstar, g_star(Sw, SHORT, samples, spec, LAM_PARAM))):
        assert np.all(ref > 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13
    assert res.lam_hat == np.max(res.ds / res.gstar)


def test_pointwise_theorem_check_rejects_before_any_analysis(setup, monkeypatch):
    spec, grid, quad, f, Su = setup

    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis ran before the input was checked")

    monkeypatch.setattr(squarefn, "analyze_polyradial", no_analysis)
    samples = [HeisenbergPoint([0.0], [0.0], 0.0)]
    Q = 2 * spec.n + 2
    flat = f.copy_with(f.values, polyradial=False)
    for u, s, lam in ((f, 0.0, LAM_PARAM), (f, 0.5, LAM_PARAM), (f, 0.2, 1.0),
                      (f, 0.2, 1.0 + 2.0 * 0.2 / Q), (flat, 0.2, LAM_PARAM)):
        with pytest.raises(ValueError):
            pointwise_theorem_check(u, s, lam, samples, grid, quad, SHORT)
    # g* rejects a sample within R/4 of a face, no samples and an n = 2
    # input; each fails before the first pass's analysis, not inside g*
    near = [HeisenbergPoint([0.0], [spec.R_z - spec.R_z / 8], 0.0)]
    for bad in (near, []):
        with pytest.raises(ValueError):
            pointwise_theorem_check(f, 0.2, LAM_PARAM, bad, grid, quad, SHORT)
    f2 = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), GridSpec(n=2, N_z=8, N_t=8))
    with pytest.raises(NotImplementedError):
        pointwise_theorem_check(f2, 0.2, LAM_PARAM, [HeisenbergPoint(np.zeros(2), np.zeros(2), 0.0)],
                                grid, None, SHORT)
    # a grid that refine() cannot rebuild fails before the first pass too
    coarse = LambdaGrid.build(lam_max=10.0)
    with pytest.raises(ValueError, match="refine"):
        pointwise_theorem_check(f, 0.2, LAM_PARAM, samples, coarse, quad, SHORT)


def test_config_rejects_bad_y_rule_before_any_analysis(setup, monkeypatch):
    # every y-rule SingularQuadrature.build refuses is refused by the config
    # itself, so pointwise_theorem_check never starts a pass on one
    spec, grid, quad, f, Su = setup
    calls = []
    monkeypatch.setattr(squarefn, "analyze_polyradial", lambda *a, **k: calls.append(a))
    samples = [HeisenbergPoint([0.0], [0.0], 0.0)]
    for kw in ({"y_r_min": 0.0}, {"y_r_min": -1e-4}, {"y_r_min": 14.0}, {"y_r_min": 20.0},
               {"y_per_decade": 0}, {"y_n_theta": 0}, {"y_n_phi": 0}):
        with pytest.raises(ValueError):
            SingularQuadrature.build(r_min=kw.get("y_r_min", 1e-4), r_max=14.0,
                                     per_decade=kw.get("y_per_decade", 12),
                                     n_theta=kw.get("y_n_theta", 16), n_phi=kw.get("y_n_phi", 16))
        with pytest.raises(ValueError, match="r_min < r_max"):
            pointwise_theorem_check(f, 0.2, LAM_PARAM, samples, grid, quad,
                                    cfg=SquareFunctionConfig(**kw))
    assert not calls
