import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from hfrac.group import GridFunction, GridSpec, HeisenbergPoint, TestFunctionId, make_test_function
from hfrac.kernels import ExtensionField, nonconformal_extension
from hfrac.lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    analyze_polyradial,
    synthesize_at,
)
from hfrac.operators import SpectralMultiplier, apply_operator
from hfrac.singular import SingularQuadrature, _right_args
from hfrac.squarefn import (
    SquareFunctionConfig,
    _GradientTable,
    extension_gradient_sq_at,
    g_function,
    g_parts,
    gradient_sq,
    g_star,
    mean_value_check,
)

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
    # the table must equal the exact spectral |grad U|^2 there
    Su = setup[4]
    lad = SHORT.rho_ladder()
    table = _GradientTable(Su, SHORT)
    rng = np.random.default_rng(7)
    ir = rng.integers(0, SHORT.n_table_r, 50)
    it = rng.integers(0, SHORT.n_table_t, 50)
    r, t = table.r_axis[ir], table.t_axis[it]
    got = table.values(lad, table.design_matrix(r, np.zeros_like(r), t))
    for rho, g in zip(lad, got):
        exact = extension_gradient_sq_at(Su, rho, r * r, t)
        assert np.max(np.abs(g - exact)) <= 1e-10 * np.max(np.abs(exact)), rho


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
    got = table.values(lad, table.design_matrix(zx, zy, t))
    for l, V in enumerate(table.mesh_values(lad)):
        ref = _fitpack_eval(table, V, zx, zy, t)
        assert np.max(np.abs(got[l] - ref)) <= 1e-13 * np.max(ref), lad[l]


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
    for rho, g in zip(ladder, grads):
        exact = extension_gradient_sq_at(Su, rho, x * x + y * y, t)
        got = g.values[iz[:, 0], iz[:, 1], it]
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


def test_g_star_rejects_boundary_sample_and_n_above_one(setup):
    spec, grid, quad, f, Su = setup
    near = [HeisenbergPoint([0.0], [spec.R_z - spec.R_z / 8], 0.0)]
    with pytest.raises(ValueError):
        g_star(Su, SHORT, near, spec, LAM_PARAM)
    spec2 = GridSpec(n=2)
    S2 = PolyradialSpectrum(grid=grid, n=2, coeffs=[np.ones(int(c)) for c in grid.k_caps])
    with pytest.raises(NotImplementedError):
        g_star(S2, SHORT, [HeisenbergPoint.origin(2)], spec2, LAM_PARAM)


def test_g_function_parts_add_in_squares(setup):
    # g1, g_x and g share one rho-ladder, so g^2 = g1^2 + g_x^2 pointwise
    spec, grid, quad, f, Su = setup
    g, g1, gx = (g_function(f, parts, SHORT, grid, quad).values.real
                 for parts in ("full", "g1", "gx"))
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


def test_mean_value_check_rejects_ladder_end_center():
    spec = GridSpec(N_z=16, N_t=16)
    fields = [GridFunction(spec=spec, values=np.zeros(spec.shape, complex)) for _ in range(9)]
    fld = ExtensionField(rho_levels=np.array([2.0, 1.0, 0.5]), fields=fields,
                         provenance="zeros", s=0.5)
    for center in (2.0, 0.5):
        with pytest.raises(ValueError):
            mean_value_check(fld, None, center_rho=center)


def test_mean_value_check_rejects_n_above_one():
    # the extended-ball nodes live on H^1 x R+; no work may start for n = 2
    spec = GridSpec(n=2, N_z=8, N_t=8)
    fields = [GridFunction(spec=spec, values=np.zeros(spec.shape, complex)) for _ in range(9)]
    fld = ExtensionField(rho_levels=np.array([4.0, 2.0, 1.0]), fields=fields,
                         provenance="zeros", s=0.5)
    with pytest.raises(NotImplementedError):
        mean_value_check(fld, None)


def test_config_rejects_ladders_below_two_levels():
    # equal ends or no node per octave give a one-level (NaN) ladder, reversed
    # ends an empty one
    for kw in ({"rho_min": 1.0, "rho_max": 1.0}, {"per_octave": 0},
               {"rho_min": 2.0, "rho_max": 1.0}):
        with pytest.raises(ValueError):
            SquareFunctionConfig(**kw)
