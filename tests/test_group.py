import math

import numpy as np
import pytest

from hfrac.group import (
    GridFunction,
    GridSpec,
    HeisenbergPoint,
    TestFunctionId,
    _compose,
    _diff_axis,
    apply_vector_field,
    dilate,
    fd_weights,
    group_inv,
    group_mul,
    integrate,
    koranyi_norm,
    left_translate,
    make_test_function,
    sublaplacian_grid,
)
from hfrac.lagspec import LambdaGrid, analyze_polyradial, synthesize, synthesize_batch
from hfrac.singular import _flow_derivatives
from hfrac.squarefn import SquareFunctionConfig, g_function
from oracles import check_polyradial

RNG = np.random.default_rng(20240811)


def rand_point(scale=2.0):
    v = RNG.normal(size=3) * scale
    return HeisenbergPoint([v[0]], [v[1]], v[2])


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------

def test_identity_element():
    p = rand_point()
    e = HeisenbergPoint([0.0], [0.0], 0.0)
    q = group_mul(e, p)
    assert np.allclose(q.as_array(), p.as_array())


def test_group_law_paper_value():
    a = HeisenbergPoint([1.0], [0.0], 0.0)
    b = HeisenbergPoint([0.0], [1.0], 0.0)
    c = group_mul(a, b)
    assert np.allclose(c.as_array(), [1.0, 1.0, 0.5])


def test_associativity_random_triples():
    for _ in range(1000):
        a, b, c = rand_point(), rand_point(), rand_point()
        lhs = group_mul(group_mul(a, b), c).as_array()
        rhs = group_mul(a, group_mul(b, c)).as_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_inverse():
    assert np.allclose(group_inv(HeisenbergPoint([0.0], [0.0], 0.0)).as_array(), 0.0)
    p = HeisenbergPoint([1.0], [1.0], 0.5)
    assert np.allclose(group_mul(group_inv(p), p).as_array(), 0.0)
    for _ in range(50):
        p = rand_point()
        assert koranyi_norm(group_mul(p, group_inv(p))) <= 1e-14


def test_dimension_mismatch_rejected():
    a = HeisenbergPoint([1.0], [0.0], 0.0)
    b = HeisenbergPoint([1.0, 0.0], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        group_mul(a, b)


def test_koranyi_norm_values():
    assert koranyi_norm(HeisenbergPoint([0.0], [0.0], 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert koranyi_norm(HeisenbergPoint([1.0], [0.0], 0.0)) == pytest.approx(1.0, rel=1e-15)
    p = rand_point()
    assert koranyi_norm(group_inv(p)) == koranyi_norm(p)


def test_koranyi_homogeneity():
    for r in (0.5, 2.0, 10.0):
        for _ in range(100):
            p = rand_point()
            lhs = koranyi_norm(dilate(r, p))
            rhs = r * koranyi_norm(p)
            assert abs(lhs - rhs) <= 1e-13 * rhs


def test_dilate():
    p = HeisenbergPoint([1.0], [1.0], 1.0)
    q = dilate(2.0, p)
    assert np.allclose(q.as_array(), [2.0, 2.0, 4.0])
    assert np.allclose(dilate(1.0, p).as_array(), p.as_array())
    r = RNG.uniform(0.2, 5.0)
    assert np.allclose(dilate(1 / r, dilate(r, p)).as_array(), p.as_array())
    with pytest.raises(ValueError):
        dilate(-1.0, p)


# ---------------------------------------------------------------------------
# grids and stencils
# ---------------------------------------------------------------------------

def test_grid_spec_layout():
    spec = GridSpec()
    assert spec.h_z == pytest.approx(0.3125)
    z = spec.z_axis
    assert 0.0 in z
    interior = z[1:]
    assert np.allclose(np.sort(-interior), np.sort(interior))
    with pytest.raises(ValueError):
        GridSpec(N_z=63)


@pytest.mark.parametrize("N_z, N_t", [(10, 12), (14, 18), (64, 128)])
def test_interior_window_is_symmetric(N_z, N_t):
    # N//4 nodes in from both faces of every axis, also when 4 does not divide N
    spec = GridSpec(N_z=N_z, N_t=N_t)
    for sl, N in zip(spec.interior_window(), spec.shape):
        start, stop, step = sl.indices(N)
        assert (start, start + stop, step) == (N // 4, N, 1)


def test_require_interior_checks_every_component():
    # margins are a quarter of each half-width, on every x, y component
    spec = GridSpec(n=2, R_z=10.0, R_t=4.0)
    spec.require_interior([HeisenbergPoint([1.0, -7.4], [0.5, 7.4], -2.9)])
    for far in (HeisenbergPoint([0.0, 7.6], [0.0, 0.0], 0.0),
                HeisenbergPoint([0.0, 0.0], [0.0, -7.6], 0.0),
                HeisenbergPoint([0.0, 0.0], [0.0, 0.0], 3.1)):
        with pytest.raises(ValueError):
            spec.require_interior([far])
    with pytest.raises(ValueError, match="no samples"):
        spec.require_interior([])


def test_fd_weights_first_derivative():
    w = fd_weights([-2, -1, 0, 1, 2], 1)
    assert np.allclose(w, [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12])
    assert abs(w.sum()) < 1e-14


def _diff_axis_reference(values, axis, h, deriv, order):
    # the shifted-slice accumulation loop: central stencils inside, one-sided
    # closures of the same width at the edges
    npts = order + deriv
    npts += 1 - npts % 2
    half = npts // 2
    N = values.shape[axis]
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    wc = fd_weights(np.arange(-half, half + 1), deriv)
    acc = np.zeros_like(v[half:N - half])
    for j, w in enumerate(wc):
        if w != 0.0:
            acc = acc + w * v[j:N - npts + j + 1]
    out[half:N - half] = acc
    for i in range(half):
        out[i] = np.tensordot(fd_weights(np.arange(npts) - i, deriv), v[:npts], axes=(0, 0))
        out[N - 1 - i] = np.tensordot(fd_weights(np.arange(-npts + 1, 1) + i, deriv),
                                      v[N - npts:], axes=(0, 0))
    return np.moveaxis(out, 0, axis) / h ** deriv


def test_diff_axis_matches_accumulation_reference():
    rng = np.random.default_rng(5)
    real = rng.normal(size=(12, 10, 16))
    for values in (real, real + 1j * rng.normal(size=real.shape)):
        for axis in range(3):
            for deriv in (1, 2):
                for order in (4, 6):
                    ref = _diff_axis_reference(values, axis, 0.3, deriv, order)
                    got = _diff_axis(values, axis, 0.3, deriv, order)
                    assert got.dtype == values.dtype
                    err = np.max(np.abs(got - ref))
                    assert err <= 1e-14 * np.max(np.abs(ref)), (values.dtype, axis, deriv, order)


def test_diff_axis_interior_is_complex_correlate1d_bitwise():
    # no GridFunction holds complex samples, but _diff_axis takes any array:
    # inside the one-sided edges complex input must be bitwise the complex
    # correlate1d, for contiguous and strided input alike (h = 1 keeps the
    # scaling exact)
    from scipy.ndimage import correlate1d

    rng = np.random.default_rng(9)
    base = rng.normal(size=(14, 12, 40)) + 1j * rng.normal(size=(14, 12, 40))
    for values in (base, base[:, :, ::2], np.transpose(base, (1, 0, 2))):
        for axis in range(3):
            for deriv in (1, 2):
                for order in (4, 6):
                    npts = order + deriv
                    npts += 1 - npts % 2
                    half = npts // 2
                    wc = fd_weights(np.arange(-half, half + 1), deriv)
                    ref = correlate1d(values, wc, axis=axis, mode="constant")
                    got = _diff_axis(values, axis, 1.0, deriv, order)
                    inner = [slice(None)] * 3
                    inner[axis] = slice(half, values.shape[axis] - half)
                    assert got.dtype == np.complex128
                    assert np.array_equal(got[tuple(inner)], ref[tuple(inner)]), (axis, deriv, order)


def test_diff_axis_exact_on_polynomials():
    # every stencil, central or one-sided, spans at least order + 1 points,
    # so a polynomial of degree <= order is differentiated exactly, edges included
    h = 0.125
    x = h * np.arange(16) - 1.0
    for deriv in (1, 2):
        for order in (4, 6):
            p = np.polynomial.Polynomial(np.arange(1.0, order + 2.0))
            exact = p.deriv(deriv)(x)
            for axis in range(3):
                shape = [1, 1, 1]
                shape[axis] = x.size
                values = np.broadcast_to(p(x).reshape(shape), (16, 16, 16)).copy()
                got = np.moveaxis(_diff_axis(values, axis, h, deriv, order), axis, 0)
                err = np.max(np.abs(got - exact[:, None, None]))
                assert err <= 1e-10 * np.max(np.abs(exact)), (axis, deriv, order)


def test_diff_axis_too_coarse():
    # deriv 2 at order 6 needs 9 points along the axis
    values = np.ones((9, 9, 8))
    _diff_axis(values, 0, 1.0, 2, 6)
    with pytest.raises(ValueError):
        _diff_axis(values, 2, 1.0, 2, 6)


def test_vector_field_annihilates_constants():
    spec = GridSpec(N_z=16, N_t=16, R_z=4, R_t=4)
    u = GridFunction(spec=spec, values=np.ones(spec.shape, dtype=complex), polyradial=True)
    for fid in ("X1", "Y1", "T"):
        out = apply_vector_field(fid, u)
        assert np.max(np.abs(out.values)) < 1e-13


def test_vector_field_names():
    # exactly "T", "Xj" and "Yj" with 1 <= j <= n
    u = GridFunction(spec=GridSpec(N_z=8, N_t=8, R_z=4, R_t=4),
                     values=np.ones((8, 8, 8), dtype=complex))
    for fid in ("X", "Y", "X_1", "X2", "Y0", "Z1", "t", "X01", ""):
        with pytest.raises(ValueError):
            apply_vector_field(fid, u)


def test_vector_field_too_coarse():
    spec = GridSpec(N_z=8, N_t=8, R_z=4, R_t=4)
    u = GridFunction(spec=spec, values=np.ones(spec.shape, dtype=complex))
    with pytest.raises(ValueError):
        GridSpec(N_z=6, N_t=8, R_z=4, R_t=4)
    apply_vector_field("T", u)  # N = 8 is the documented floor


def test_t_derivative_of_gaussian():
    # T e^{-t^2} = -2 t e^{-t^2}; error measured against the max of the target
    spec = GridSpec(N_z=8, N_t=1024, R_z=4, R_t=10)
    T = spec.t_axis
    vals = np.broadcast_to(np.exp(-T * T), spec.shape).astype(complex)
    u = GridFunction(spec=spec, values=vals.copy())
    out = apply_vector_field("T", u)
    target = -2 * T * np.exp(-T * T)
    interior = slice(4, -4)
    err = np.max(np.abs(out.values[0, 0, interior] - target[interior]))
    assert err <= 1e-6 * np.max(np.abs(target))


def test_commutator_xy_equals_t():
    # [X1, Y1] u = T u on a Gaussian; fine dedicated grid, interior window.
    # A non-polyradial factor is mixed in so the twist terms actually engage.
    spec = GridSpec(N_z=160, N_t=64, R_z=8, R_t=8)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    X, Y, T = spec.meshgrid()
    f = f.copy_with(f.values * (1.0 + 0.3 * X + 0.2 * Y))
    xy = apply_vector_field("X1", apply_vector_field("Y1", f, order=6), order=6)
    yx = apply_vector_field("Y1", apply_vector_field("X1", f, order=6), order=6)
    tu = apply_vector_field("T", f, order=6)
    comm = xy.values - yx.values
    sl = (slice(8, -8), slice(8, -8), slice(8, -8))
    err = np.max(np.abs(comm[sl] - tu.values[sl]))
    assert err <= 1e-4 * np.max(np.abs(tu.values[sl]))


def test_left_invariance_of_fields():
    # X (u o tau_a) = (X u) o tau_a: the stencil field of the translate against
    # (X1 u)(a p) at the translated grid points, from the exact flow
    # derivative of u's evaluator
    spec = GridSpec(N_z=96, N_t=96, R_z=8, R_t=8)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    a = HeisenbergPoint([0.9], [-0.6], 0.4)
    lhs = apply_vector_field("X1", left_translate(f, a), order=6)
    rhs = _flow_derivatives(f, *_compose(a.x[0], a.y[0], a.t, *spec.meshgrid()), 1)[0]
    sl = (slice(12, -12), slice(12, -12), slice(12, -12))
    scale = np.max(np.abs(rhs[sl]))
    assert np.max(np.abs(lhs.values[sl] - rhs[sl])) <= 1e-3 * scale


def test_left_translate_needs_evaluator():
    # grid-only data has no closed form to sample at a p
    spec = GridSpec(N_z=16, N_t=16, R_z=6, R_t=6)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    with pytest.raises(ValueError, match="evaluator"):
        left_translate(f.copy_with(f.values), HeisenbergPoint([0.5], [0.0], 0.0))


def test_sublaplacian_matches_composed_fields():
    # direct second-derivative assembly vs composing two first-order stencils;
    # the composed route carries larger truncation error, so order 6 is used
    spec = GridSpec(N_z=96, N_t=96, R_z=8, R_t=8)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 0.5)), spec)
    direct = sublaplacian_grid(f, order=6)
    xx = apply_vector_field("X1", apply_vector_field("X1", f, order=6), order=6)
    yy = apply_vector_field("Y1", apply_vector_field("Y1", f, order=6), order=6)
    composed = -(xx.values + yy.values)
    sl = (slice(10, -10), slice(10, -10), slice(10, -10))
    scale = np.max(np.abs(direct.values[sl]))
    assert np.max(np.abs(direct.values[sl] - composed[sl])) <= 5e-4 * scale


# ---------------------------------------------------------------------------
# grid samples
# ---------------------------------------------------------------------------

def test_grid_samples_are_real_float64():
    # the one check where samples enter: real arrays are stored as float64,
    # complex128 only with an imaginary part of at most 1e-12 of peak, and
    # dtypes that have already lost precision are refused
    spec = GridSpec(N_z=8, N_t=8)
    ones = np.ones(spec.shape)
    for values in (ones, ones.astype(int), ones.astype(complex), ones + 1e-13j):
        u = GridFunction(spec=spec, values=values)
        assert u.values.dtype == np.float64 and np.array_equal(u.values, ones)
    for values in (ones + 0.1j, ones.astype(np.float32), ones.astype(np.complex64)):
        with pytest.raises(ValueError):
            GridFunction(spec=spec, values=values)


def test_every_grid_function_is_float64():
    spec = GridSpec(N_z=16, N_t=16, R_z=6, R_t=6)
    base = TestFunctionId("gaussian", (1.0, 1.0))
    made = [make_test_function(fid, spec) for fid in (
        base, TestFunctionId("conformal-kernel", (0.3, 1.0)), base.dilated(1.5),
        base.translated(HeisenbergPoint([0.5], [0.0], 0.2)))]
    f = made[0]
    grid = LambdaGrid.build()
    S = analyze_polyradial(f, grid)
    cfg = SquareFunctionConfig(rho_min=0.25, rho_max=1.0, per_octave=1,
                               n_table_r=64, n_table_t=96)
    with pytest.warns(UserWarning, match="rho-ladder tail share"):    # the short ladder
        g1 = g_function(f, "g1", cfg, grid)
    outs = made + [synthesize(S, spec), *synthesize_batch(S, spec, [None, None]), g1,
                   apply_vector_field("X1", f), sublaplacian_grid(f)]
    assert all(g.values.dtype == np.float64 for g in outs)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_gaussian_closed_form():
    spec = GridSpec(R_z=8, R_t=8)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    val = integrate(f)
    exact = np.pi * np.sqrt(np.pi)
    assert abs(val.real - exact) <= 1e-6 * exact
    assert abs(val.imag) < 1e-12


def test_integrate_odd_function():
    spec = GridSpec(N_z=32, N_t=32, R_z=6, R_t=6)
    mesh = spec.meshgrid()
    vals = mesh[2] * np.exp(-mesh[0] ** 2 - mesh[1] ** 2 - mesh[2] ** 2)
    u = GridFunction(spec=spec, values=vals.astype(complex))
    assert abs(integrate(u)) <= 1e-12


def test_integrate_dilation_covariance():
    spec = GridSpec(R_z=10, R_t=10)
    base = TestFunctionId("gaussian", (1.0, 1.0))
    total = integrate(make_test_function(base, spec)).real
    for r in (0.8, 1.25):
        fr = make_test_function(base.dilated(r), spec)
        val = integrate(fr).real
        assert abs(val - r ** (-4) * total) <= 1e-4 * abs(total)


def test_integrate_translation_invariance():
    spec = GridSpec(R_z=10, R_t=10)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    a = HeisenbergPoint([1.1], [0.7], -0.9)
    fa = left_translate(f, a)
    assert abs(integrate(fa).real - integrate(f).real) <= 1e-4 * abs(integrate(f).real)


def test_boundary_decay_warning_recorded():
    spec = GridSpec(N_z=16, N_t=16, R_z=2, R_t=2)
    f = make_test_function(TestFunctionId("gaussian", (0.1, 0.1)), spec)
    with pytest.warns(UserWarning, match="boundary"):
        integrate(f)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_gaussian_at_origin():
    spec = GridSpec(N_z=16, N_t=16, R_z=4, R_t=4)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    i0, j0 = spec.N_z // 2, spec.N_t // 2
    assert f.values[i0, i0, j0].real == pytest.approx(1.0, abs=1e-15)
    assert f.polyradial and check_polyradial(f)


def test_conformal_kernel_at_origin():
    spec = GridSpec(N_z=16, N_t=16, R_z=4, R_t=4)
    f = make_test_function(TestFunctionId("conformal-kernel", (0.5, 1.0)), spec)
    i0, j0 = spec.N_z // 2, spec.N_t // 2
    assert f.values[i0, i0, j0].real == pytest.approx(1.0, rel=1e-14)
    assert f.polyradial and check_polyradial(f)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        TestFunctionId("wavelet", (1.0,))
    with pytest.raises(ValueError):
        TestFunctionId("gaussian", (1.0, -2.0))


@pytest.mark.parametrize("make", [
    lambda: TestFunctionId("gaussian", (math.nan, 1.0)),
    lambda: TestFunctionId("gaussian", (1.0, math.inf)),
    lambda: TestFunctionId("conformal-kernel", (0.3, math.inf)),
    lambda: TestFunctionId("gaussian", (1.0, 1.0)).dilated(math.inf),
    lambda: TestFunctionId("gaussian", (1.0, 1.0), dilation=math.nan),
    lambda: TestFunctionId("conformal-kernel", (0.3, 1.0)).dilated(1e200).dilated(1e200),
    lambda: TestFunctionId("gaussian", (1.0,)),
    lambda: TestFunctionId("conformal-kernel", (0.3, 1.0, 2.0)),
], ids=["nan-param", "inf-param", "inf-rho0", "inf-dilation", "nan-dilation",
        "overflowing-dilation", "one-param", "three-params"])
def test_catalog_rejects_non_finite_or_misshapen_input(make):
    # each used to be accepted and to fail later, if at all: NaN coefficients,
    # non-finite samples or a bare "math domain error"
    with pytest.raises(ValueError):
        make()


# (f o delta_r) against f, and the bound on each, twice to four times the
# largest relative deviation measured over the members, n and r below
DILATION_BOUNDS = {"evaluator": 2e-15, "central_profile": 3e-13, "on_lattice": 3e-15,
                   "coeff_fn": 3e-13}


@pytest.mark.parametrize("n", [1, 2])
def test_dilation_is_a_parameter_change(n):
    # a dilated member is its family at other parameters; its closed forms
    # must obey f o delta_r (z, t) = f(rz, r^2 t), (f o delta_r)^lam(u) =
    # r^-2 f^{lam/r^2}(r^2 u) (on_lattice on u = v/lam included) and
    # c_k(f o delta_r)(lam) = r^-Q c_k(f)(lam/r^2).  Measured: 7.8e-16,
    # 1.1e-13 (the gaussian's e^{-lam^2/4b} at lam = 40), 9.6e-16 and 1.1e-13
    spec = GridSpec(n=n, N_z=8, N_t=8)
    Q = 2 * n + 2
    x, y, t = np.random.default_rng(3).uniform(-3.0, 3.0, (3, 50))
    u = np.linspace(0.0, 20.0, 41)
    v = np.geomspace(1e-6, 400.0, 40)
    lams = LambdaGrid.build().nodes[::7]
    k = np.arange(300)
    worst = dict.fromkeys(DILATION_BOUNDS, 0.0)

    def compare(what, got, ref):
        # rows that underflow to zero must do so on both sides
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(got - ref))
        worst[what] = max(worst[what], err / scale if scale > 0 else err)

    for base in (TestFunctionId("gaussian", (1.0, 1.0)), TestFunctionId("gaussian", (0.5, 2.0)),
                 TestFunctionId("conformal-kernel", (0.3, 1.4)),
                 TestFunctionId("conformal-kernel", (0.1, 0.6))):
        f = make_test_function(base, spec)
        for r in (0.5, 0.7, 1.5, 2.0):
            fr = make_test_function(base.dilated(r), spec)
            assert fr.polyradial and fr.heavy_tail == f.heavy_tail
            compare("evaluator", fr.evaluator(x, y, t), f.evaluator(r * x, r * y, r * r * t))
            for lam in lams:
                compare("central_profile", fr.central_profile(u, lam),
                        f.central_profile(r * r * u, lam / r ** 2) / r ** 2)
                if not f.heavy_tail:
                    compare("coeff_fn", fr.coeff_fn(k, lam), r ** -Q * f.coeff_fn(k, lam / r ** 2))
            if f.heavy_tail:
                assert fr.coeff_fn is None
                compare("on_lattice", fr.central_profile.on_lattice(lams, v),
                        f.central_profile.on_lattice(lams / r ** 2, v) / r ** 2)
    assert all(worst[w] <= DILATION_BOUNDS[w] for w in worst), worst


def test_translated_member_not_polyradial():
    spec = GridSpec(N_z=16, N_t=16, R_z=6, R_t=6)
    fid = TestFunctionId("gaussian", (1.0, 1.0)).translated(HeisenbergPoint([1.0], [0.0], 0.0))
    f = make_test_function(fid, spec)
    assert not f.polyradial


def test_dilated_member_keeps_profiles():
    spec = GridSpec(N_z=32, N_t=32, R_z=6, R_t=6)
    fid = TestFunctionId("gaussian", (1.0, 1.0)).dilated(1.5)
    f = make_test_function(fid, spec)
    assert f.polyradial and f.central_profile is not None
    # f(delta_r p) sampled correctly
    assert f.values[spec.N_z // 2 + 2, spec.N_z // 2, spec.N_t // 2].real == pytest.approx(
        np.exp(-(1.5 * 2 * spec.h_z) ** 2), rel=1e-12)
