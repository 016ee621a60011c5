import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from hfrac import lagspec
from hfrac.group import (
    GridFunction,
    GridSpec,
    HeisenbergPoint,
    TestFunctionId,
    integrate,
    make_test_function,
)
from hfrac.kernels import _measured_window
from hfrac.lagspec import (
    AnalysisQuadrature,
    LambdaGrid,
    PolyradialSpectrum,
    _laguerre_sweep,
    _project,
    analyze_polyradial,
    plancherel_check,
    slices_at_radii_batch,
    synthesize,
    synthesize_at,
    synthesize_batch,
)
from hfrac.operators import SpectralMultiplier, evaluate_multiplier
from oracles import (
    RowLatticeProfile,
    central_transform,
    group_convolve,
    inverse_central_transform,
    laguerre_phi_table,
    profile_coeffs,
    twisted_convolve,
    u_rule,
    unfold,
)

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def default_setup():
    spec = GridSpec()
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    return spec, grid, quad


# ---------------------------------------------------------------------------
# lambda grid
# ---------------------------------------------------------------------------

def test_lambda_grid_symmetric_and_positive():
    # the positive half of the symmetric grid, with the folded weights: they
    # sum to the length of [-40, -1e-3] U [1e-3, 40]
    grid = LambdaGrid.build()
    assert grid.M == 150
    assert np.all(grid.nodes > 0.0) and np.all(np.diff(grid.nodes) > 0.0)
    assert np.all(grid.weights > 0)
    assert abs(np.sum(grid.weights) - 2 * (40.0 - 1e-3)) <= 1e-12 * 80.0
    assert np.all(grid.k_caps >= grid.K)


@pytest.mark.parametrize("nodes, weights, k_caps, match", [
    ([0.0, 1.0], [1.0, 1.0], [4, 4], "> 0"),
    ([-1.0, 1.0], [1.0, 1.0], [3], "one length"),
    ([-1.0, 1.0], [1.0], [3, 3], "one length"),
    ([-1.0, 1.0], [1.0, 1.0], [0, 0], "> 0"),
    ([1.0, 2.0], [1.0, 1.0], [3], "one length"),
    ([1.0, 2.0], [1.0], [3, 3], "one length"),
    ([1.0, 2.0], [1.0, 1.0], [0, 3], "k_caps"),
    ([], [], [], "non-empty"),
    ([[1.0, 2.0]], [[1.0, 1.0]], [[3, 3]], "1-D"),
    ([2.0, 1.0], [1.0, 1.0], [3, 3], "ascending"),
    ([1.0, 2.0], [1.0, 0.0], [3, 3], "weights"),
], ids=["zero", "short-caps", "short-weights", "negative-empty-rows", "short-caps-pos",
        "short-weights-pos", "empty-row", "empty", "2-D", "descending", "zero-weight"])
def test_lambda_grid_rejects_malformed_input(nodes, weights, k_caps, match):
    with pytest.raises(ValueError, match=match):
        LambdaGrid(nodes=nodes, weights=weights, k_caps=k_caps, K=4)


# ---------------------------------------------------------------------------
# Laguerre evaluator against a 50-digit reference
# ---------------------------------------------------------------------------

def test_lambda_grid_refine_keeps_the_default_template():
    fine = LambdaGrid.build().refine()
    ref = LambdaGrid.build(nodes_per_sign=188, K=80)
    for attr in ("nodes", "weights", "k_caps", "K"):
        assert np.array_equal(getattr(fine, attr), getattr(ref, attr)), attr
    assert fine.refine().M > fine.M              # a refined grid refines again


@pytest.mark.parametrize("kwargs", [
    {"lam_max": 10.0},
    {"lam_min": 0.05, "lam_max": 5.0, "nodes_per_sign": 40},
    {"panels": ([0.5, 2.0], [4])},
    {"k_energy_cap": 20.0},
], ids=["lam_max=10", "narrow-window", "custom-panels", "k_energy_cap=20"])
def test_lambda_grid_refine_rejects_other_layouts(kwargs):
    # rebuilding these from the default template would widen the window or
    # reset the caps, so refinement drift would compare two different grids
    with pytest.raises(ValueError, match="template"):
        LambdaGrid.build(**kwargs).refine()


def test_laguerre_against_mpmath_reference():
    # 50-digit oracle from the explicit finite sum L_k(x) = sum (-1)^j C(k,j) x^j / j!
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    args = [0.1, 1.0, 10.0, 50.0]
    table = laguerre_phi_table(32, 0, np.array(args))
    for k in range(33):
        for j, x in enumerate(args):
            xm = mpmath.mpf(x)
            ref_l = sum((-1) ** m * mpmath.binomial(k, m) * xm ** m / mpmath.factorial(m)
                        for m in range(k + 1))
            ref = float(ref_l * mpmath.exp(-xm / 2))
            got = table[k, j]
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-12), (k, x)


def test_analysis_quadrature_refine_grows_both_rules_on_their_spans():
    # 1.25 times the u- and v-nodes, the spans the coarse rules were built on;
    # the u-rule's weights are the oracle's, which reads the same span and count
    spec = GridSpec()
    fine = AnalysisQuadrature.build(spec, n_radial=64, n_radial_v=128).refine()
    ref = AnalysisQuadrature.build(spec, n_radial=80, n_radial_v=160)
    for got, want in ((fine.u_nodes, ref.u_nodes), (u_rule(fine)[1], u_rule(ref)[1]),
                      (fine.v_nodes, ref.v_nodes), (fine.v_weights, ref.v_weights)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_project_matches_full_table():
    # the chunked, real-arithmetic projection against the plain full table,
    # with caps that straddle chunk edges, deepest first, as one batch and as
    # batches of one.  Complex weights go in as their real and imaginary
    # parts, two rows of one cap, as the grid route passes its slices
    x = 0.5 * AnalysisQuadrature._sqrt_rule(400.0, 300)[0]
    caps = np.array([513, 300, 257, 256, 5, 1])
    W = RNG.normal(size=(caps.size, x.size)) + 1j * RNG.normal(size=(caps.size, x.size))
    parts = np.stack([W.real, W.imag], axis=1).reshape(-1, x.size)     # re_0, im_0, re_1, ...
    for alpha in (0, 1):
        table = laguerre_phi_table(int(caps.max()) - 1, alpha, x)
        batch = _project(x, parts, np.repeat(caps, 2), alpha)
        for i, cap in enumerate(caps):
            ref = table[:cap] @ W[i]
            scale = np.max(np.abs(table[:cap]) @ np.abs(W[i]))
            single = _project(x, parts[2 * i:2 * i + 2], [cap, cap], alpha)
            for re, im in (batch[2 * i:2 * i + 2], single):
                assert re.shape == im.shape == (cap,) and re.dtype == im.dtype == np.float64
                assert np.max(np.abs(re + 1j * im - ref)) <= 1e-13 * scale, (alpha, cap)
    # complex weights are refused, not contracted as complex blocks
    with pytest.raises(ValueError, match="real weights"):
        _project(x, W, caps, 0)
    # rows that do not come deepest first are refused, not reordered
    for bad in ([5, 300, 1, 513, 256, 257], [1, 2, 2, 1, 1, 1]):
        with pytest.raises(ValueError, match="deepest first"):
            _project(x, W.real, bad, 0)


@pytest.mark.parametrize("rows", [1, 4, 16])
def test_laguerre_sweep_matches_full_table(rows):
    # the in-place sweep against the plain full table, with its derivative
    # rows: segments with caps of 1 and 2, caps just past a 4-row block edge
    # (9, 13) and one that ends inside a block (7), so segments drop out
    # mid-sweep, and the carried rows cross every block edge
    caps = np.array([13, 9, 7, 2, 1])
    x = 0.5 * AnalysisQuadrature._sqrt_rule(60.0, caps.size * 6)[0].reshape(caps.size, 6)
    for alpha in (0, 1):
        table = laguerre_phi_table(int(caps[0]) - 1, alpha, x)           # (K, P, Nx)
        upper = laguerre_phi_table(int(caps[0]) - 1, alpha + 1, x)
        # d/dx l_k^alpha = -l_k^alpha / 2 - l_{k-1}^{alpha+1}
        deriv = -0.5 * table - np.concatenate([np.zeros_like(upper[:1]), upper[:-1]])
        seen = np.zeros(table.shape[:2], dtype=int)
        k_next = 0
        for k0, block, dblock in _laguerre_sweep(x, caps, alpha, rows, want_deriv=True):
            assert k0 == k_next and len(block) == min(rows, caps[0] - k0)
            a = int(np.count_nonzero(caps > k0))
            assert block.shape == dblock.shape == (len(block), a * x.shape[1])
            for j in range(len(block)):
                k = k0 + j
                live = caps[:a] > k                 # a segment past its cap is not read
                for got, ref in ((block[j], table[k]), (dblock[j], deriv[k])):
                    got = got.reshape(a, -1)[live]
                    err = np.max(np.abs(got - ref[:a][live]))
                    assert err <= 1e-15 * np.max(np.abs(ref)), (alpha, k)
                seen[k, :a] += live
            k_next = k0 + len(block)
        assert k_next == caps[0]
        assert np.array_equal(seen.sum(axis=0), caps)             # every row of every cap, once


def test_slices_grouping_does_not_change_values(monkeypatch):
    # a budget of one double forces one node per group and, with one-row
    # blocks, one row per block; the values must not depend on either.  The
    # t-shifted rows are complex, and every third row is cut short of its
    # cap, so a group that pads a shorter row or mixes up the re and im
    # rows cannot pass
    spec = GridSpec(N_z=16, N_t=32)
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = _shifted(analyze_polyradial(f, grid))
    S.coeffs = [c[:len(c) - 3] if i % 3 == 0 else c for i, c in enumerate(S.coeffs)]
    u = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
    mults = [None, SpectralMultiplier("heat", 0.1), SpectralMultiplier("frac_conf", 0.3)]
    sweeps = []
    real_sweep = lagspec._laguerre_sweep

    def spy(x, caps, alpha, rows, want_deriv=False):
        sweeps.append((x.shape[0], rows))
        return real_sweep(x, caps, alpha, rows, want_deriv)

    monkeypatch.setattr(lagspec, "_laguerre_sweep", spy)
    for want_du in (False, True):
        ref = slices_at_radii_batch(S, u, mults, want_du=want_du)
        assert max(p for p, _ in sweeps) > 1                  # the default groups pairs
        sweeps.clear()
        with monkeypatch.context() as m:
            m.setattr(lagspec, "SWEEP_BUDGET", 1)
            m.setattr(lagspec, "EXPAND_CHUNK", 1)
            got = slices_at_radii_batch(S, u, mults, want_du=want_du)
        assert set(sweeps) == {(1, 1)} and len(sweeps) == grid.M
        sweeps.clear()
        for g, r in zip(got if want_du else [got], ref if want_du else [ref]):
            assert g.shape == (len(mults), grid.M, u.size)
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
    _, _, (sl,), (dsl,) = _reference_slices(S, u, [None])
    # the engine's slices are the reference's at the nodes lam > 0
    assert np.max(np.abs(got[0][0] - sl[grid.M:])) <= 1e-13 * np.max(np.abs(sl))
    assert np.max(np.abs(got[1][0] - dsl[grid.M:])) <= 1e-13 * np.max(np.abs(dsl))


def test_laguerre_origin_values():
    # l_k(0) = L_k^alpha(0) = C(k + alpha, k)
    for alpha in (0, 1):
        table = laguerre_phi_table(17, alpha, np.array([0.0]))
        for k in (0, 1, 5, 17):
            assert table[k, 0] == pytest.approx(math.comb(k + alpha, k), rel=1e-12)


def test_laguerre_quadrature_orthogonality(default_setup):
    # the oracle's u-rule must resolve <phi_j, phi_k> = delta_jk (2pi)^n |lam|^-n C(k+n-1,k)
    # for every mode whose support 2(4k+2)/lam fits inside the radial domain
    spec, grid, quad = default_setup
    U = spec.R_z ** 2
    for lam in (1.0, 4.0, 10.0, 40.0):
        kfit = min(64, int(0.2 * (lam * U / 8.0)))
        if kfit < 2:
            continue
        nodes, weights = u_rule(quad)
        tab = laguerre_phi_table(kfit, 0, 0.5 * lam * nodes)
        gram = math.pi * (tab * weights) @ tab.T
        target = np.eye(kfit + 1) * 2 * math.pi / lam
        assert np.max(np.abs(gram - target)) <= 1e-8 * (2 * math.pi / lam), lam


# ---------------------------------------------------------------------------
# central transform (grid path)
# ---------------------------------------------------------------------------

def narrow_lambda_grid(lam_min=1e-6, lam_max=9.5, nodes=96):
    return LambdaGrid.build(lam_min=lam_min, lam_max=lam_max, nodes_per_sign=nodes,
                            panels=([lam_min, 0.5, 2.5, lam_max], [nodes // 3] * 3))


def test_central_transform_gaussian_closed_form(default_setup):
    spec = GridSpec()
    grid = narrow_lambda_grid()
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    F = central_transform(f, grid)
    r2 = spec.z_radius_sq()
    scale = np.max(np.abs(F))
    for i in range(grid.M):
        lam = grid.nodes[i]
        target = np.exp(-r2) * math.sqrt(math.pi) * math.exp(-lam * lam / 4.0)
        err = np.max(np.abs(F[i] - target))
        assert err <= 1e-8 * scale


def test_central_transform_alias_guard(default_setup):
    spec, _, quad = default_setup   # h_t = 0.15625 resolves |lam| <= ~10
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    bare = GridFunction(spec=spec, values=f.values, polyradial=True)
    with pytest.raises(ValueError, match="resolvable"):
        analyze_polyradial(bare, LambdaGrid.build(), quad)   # default grid reaches lam = 40


def test_central_transform_conjugate_symmetry(default_setup):
    spec = GridSpec(N_z=32, N_t=64, R_z=8, R_t=8)   # h_t = 0.25 resolves |lam| <= ~6
    f = make_test_function(TestFunctionId("gaussian", (0.7, 1.3)), spec)
    grid = narrow_lambda_grid(lam_max=6.0)
    F = central_transform(f, grid)
    # a real input's slices satisfy f^{-lam} = conj(f^lam), which is why the
    # lattice stores lam > 0 only: the trapezoid at -lam, taken directly
    Fneg = f.values @ (np.exp(-1j * np.outer(grid.nodes, spec.t_axis)) * spec.h_t).T
    err = np.max(np.abs(np.moveaxis(Fneg, -1, 0) - np.conj(F))) / np.max(np.abs(F))
    assert err <= 1e-13


def test_central_roundtrip(default_setup):
    spec = GridSpec()
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    grid = narrow_lambda_grid()
    g = inverse_central_transform(central_transform(f, grid), grid, spec)
    err = np.linalg.norm(g.values - f.values) / np.linalg.norm(f.values)
    assert err <= 1e-5


def test_central_roundtrip_narrow_gaussian():
    # narrow in t means wide in lambda: needs a finer t-grid so the window
    # [lam_min, lam_max] can cover the spectrum within the aliasing guard
    spec = GridSpec(N_z=32, N_t=256, R_z=8, R_t=10)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 6.0)), spec)
    grid = narrow_lambda_grid(lam_max=19.0, nodes=150)
    g = inverse_central_transform(central_transform(f, grid), grid, spec)
    err = np.linalg.norm(g.values - f.values) / np.linalg.norm(f.values)
    assert err <= 1e-3


def test_zero_field_inverts_to_zero(default_setup):
    spec, grid, _ = default_setup
    g = inverse_central_transform(np.zeros((grid.M, spec.N_z, spec.N_z), dtype=complex), grid, spec)
    assert np.max(np.abs(g.values)) == 0.0


def test_modulation_identity():
    # shifting in t multiplies the transform by a phase
    spec = GridSpec(N_z=16, N_t=128, R_z=6, R_t=10)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    shift = 5 * spec.h_t
    vals = np.roll(f.values, 5, axis=2)   # f(z, t - shift), exact on the grid
    vals[:, :, :5] = 0.0
    g = GridFunction(spec=spec, values=vals, name="shifted")
    grid = narrow_lambda_grid(lam_max=8.0, nodes=48)
    Ff = central_transform(f, grid)
    Fg = central_transform(g, grid)
    phase = np.exp(1j * grid.nodes * shift)
    err = np.max(np.abs(Fg - Ff * phase[:, None, None]))
    assert err <= 1e-6 * np.max(np.abs(Ff))


# ---------------------------------------------------------------------------
# twisted convolution
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_z():
    return GridSpec(N_z=48, N_t=16, R_z=9.0, R_t=2.0)


def test_twisted_zero(coarse_z):
    F = np.exp(-coarse_z.z_radius_sq()).astype(complex)
    out = twisted_convolve(F, np.zeros_like(F), 1.0, coarse_z)
    assert np.max(np.abs(out)) == 0.0


def test_twisted_lambda_to_zero_is_plain_convolution(coarse_z):
    import scipy.signal as sig
    r2 = coarse_z.z_radius_sq()
    a = np.exp(-r2).astype(complex)
    b = np.exp(-2 * r2).astype(complex)
    tw = twisted_convolve(a, b, 1e-3, coarse_z)
    pl = sig.fftconvolve(a.real, b.real, mode="full") * coarse_z.h_z ** 2
    half = coarse_z.N_z // 2
    pl = pl[half:half + coarse_z.N_z, half:half + coarse_z.N_z]
    assert np.max(np.abs(tw - pl)) <= 1e-3 * np.max(np.abs(pl))


def test_twisted_laguerre_reproducing(coarse_z):
    lam = 1.0
    table = laguerre_phi_table(2, 0, 0.5 * lam * coarse_z.z_radius_sq())
    for k in (0, 1, 2):
        phik = table[k].astype(complex)
        conv = twisted_convolve(phik, phik, lam, coarse_z)
        target = 2 * math.pi / lam * phik
        err = np.max(np.abs(conv - target)) / np.max(np.abs(target))
        assert err <= 1e-3


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def test_analyze_rejects_non_polyradial(default_setup):
    spec, grid, quad = default_setup
    fid = TestFunctionId("gaussian", (1.0, 1.0)).translated(HeisenbergPoint([1.0], [0.0], 0.0))
    f = make_test_function(fid, spec)
    with pytest.raises(ValueError):
        analyze_polyradial(f, grid, quad)


def test_analyze_zero(default_setup):
    spec, _, quad = default_setup
    grid = narrow_lambda_grid(lam_min=1e-3, lam_max=9.5, nodes=30)
    z = GridFunction(spec=spec, values=np.zeros(spec.shape, dtype=complex), polyradial=True)
    S = analyze_polyradial(z, grid, quad)
    assert all(np.max(np.abs(c), initial=0.0) == 0.0 for c in S.coeffs)


def test_roundtrip_gaussian(default_setup):
    # the (0, lam_min) spectral gap sets an irreducible floor here (see docs);
    # the asserted bound is the honestly attainable one at default resolution
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    g = synthesize(S, spec)
    err = np.linalg.norm(g.values - f.values) / np.linalg.norm(f.values)
    assert err <= 1e-2


def test_roundtrip_conformal_kernel(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("conformal-kernel", (0.5, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    g = synthesize(S, spec)
    err = np.linalg.norm(g.values - f.values) / np.linalg.norm(f.values)
    assert err <= 1e-2


def test_grid_route_matches_closed_form():
    # raw grid samples vs exact closed-form coefficients, global normalization
    spec = GridSpec()
    grid = narrow_lambda_grid(lam_min=1e-3, lam_max=9.5, nodes=60)
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    bare = GridFunction(spec=spec, values=f.values.copy(), polyradial=True)
    S1 = analyze_polyradial(f, grid, quad)
    with pytest.warns(UserWarning, match="band-limits"):
        S2 = analyze_polyradial(bare, grid, quad)
    gscale = max(np.max(np.abs(c)) for c in S1.coeffs)
    for c1, c2 in zip(S1.coeffs, S2.coeffs):
        m = min(len(c1), len(c2))   # grid route is band-limited in k
        assert np.max(np.abs(c1[:m] - c2[:m])) <= 1e-5 * gscale


def test_quadrature_route_matches_closed_form():
    # the oracle's dense radial quadrature of the central profile vs the
    # exact geometric-series coefficients, on every node to its full cap
    spec = GridSpec()
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S1 = analyze_polyradial(f, grid, quad)
    S2 = profile_coeffs(f, grid, quad)
    gscale = max(np.max(np.abs(c)) for c in S1.coeffs)
    for c1, c2 in zip(S1.coeffs, S2):
        assert len(c1) == len(c2)
        assert np.max(np.abs(c1 - c2)) <= 1e-9 * gscale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_closed_form_matches_u_rule_oracle(n):
    # c_k = pi^n sqrt(pi/b) e^{-lam^2/4b} (a - lam/4)^k / (a + lam/4)^{k+n}
    # against the u-rule projection of the central profile, on every 5th
    # node of the default lattice, k < 200.  Measured: at most 9.7e-14 of the
    # largest c_0 over n = 1, 2, 3 and these members; the bound is twice that
    grid = LambdaGrid.build()
    spec = GridSpec(n=n, N_z=8, N_t=8)
    quad = AnalysisQuadrature.build(spec)
    nodes = range(0, grid.M, 5)
    base = TestFunctionId("gaussian", (1.0, 1.0))
    for fid in (base, TestFunctionId("gaussian", (0.5, 2.0)), base.dilated(0.7)):
        f = make_test_function(fid, spec)
        S = analyze_polyradial(f, grid, quad)
        ref = profile_coeffs(f, grid, quad, nodes, kmax=200)
        c0 = max(abs(S.coeffs[i][0]) for i in nodes)
        err = max(np.max(np.abs(S.coeffs[i][:len(r)] - r)) for i, r in zip(nodes, ref))
        assert err <= 2e-13 * c0, (fid.label(), err / c0)


class _NoURule(AnalysisQuadrature):
    """An AnalysisQuadrature whose u-rule raises when read."""

    @property
    def _u_rule(self):
        raise AssertionError("the analysis read the u-rule")


@pytest.mark.parametrize("n", [1, 2])
def test_catalog_analysis_reads_no_u_rule(n):
    # every catalog member, dilated or not, analyses by a closed form or the
    # heavy-tail v-rule; a token grid suffices, as no route reads the samples
    spec = GridSpec(n=n, N_z=8, N_t=8)
    grid = LambdaGrid.build(nodes_per_sign=20, K=8, k_energy_cap=2.0)
    quad = _NoURule(*astuple(AnalysisQuadrature.build(spec)))
    with pytest.raises(AssertionError, match="u-rule"):
        quad.u_nodes
    for base in (TestFunctionId("gaussian", (1.0, 1.0)), TestFunctionId("gaussian", (0.5, 2.0)),
                 TestFunctionId("conformal-kernel", (0.3, 1.4)),
                 TestFunctionId("conformal-kernel", (0.1, 0.6))):
        for fid in (base, base.dilated(0.7), base.dilated(1.5)):
            S = analyze_polyradial(make_test_function(fid, spec), grid, quad)
            assert len(S.coeffs) == grid.M and all(np.all(np.isfinite(c)) for c in S.coeffs)


def test_central_profile_alone_is_refused():
    # the u-rule projection of a light-tailed central profile is the oracle's,
    # not an analysis route: such an input is refused, naming the routes left
    spec = GridSpec(N_z=16, N_t=16)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    g = GridFunction(spec=spec, values=f.values, polyradial=True, central_profile=f.central_profile)
    with pytest.raises(ValueError, match="heavy_tail.*coeff_fn.*grid samples"):
        analyze_polyradial(g, LambdaGrid.build())


def test_projection_against_twisted_convolution_oracle(coarse_z):
    # in the expansion normalization, f^lam *_lam phi_k = c_k phi_k exactly
    spec = coarse_z
    grid = LambdaGrid.build(lam_min=0.5, lam_max=2.0, nodes_per_sign=4,
                            panels=([0.5, 2.0], [4]))
    quad = AnalysisQuadrature.build(spec)
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    r2 = spec.z_radius_sq()
    i = grid.M - 2
    lam = grid.nodes[i]
    flam = np.exp(-r2).astype(complex) * math.sqrt(math.pi) * math.exp(-lam ** 2 / 4)
    table = laguerre_phi_table(3, 0, 0.5 * abs(lam) * r2)
    for k in (0, 1, 3):
        phik = table[k].astype(complex)
        lhs = twisted_convolve(flam, phik, lam, spec)
        rhs = S.coeffs[i][k] * phik
        mask = np.abs(rhs) > 1e-3 * np.max(np.abs(rhs))
        err = np.max(np.abs(lhs[mask] - rhs[mask]) / np.abs(rhs[mask]))
        assert err <= 1e-2


def test_synthesize_linearity(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    g = make_test_function(TestFunctionId("gaussian", (2.0, 0.5)), spec)
    pairs = [(analyze_polyradial(f, grid, quad), analyze_polyradial(g, grid, quad))]
    # the grid-sample route band-limits its rows, so closed form + grid samples
    # adds rows of unequal length: the shorter one must count as zero-padded
    band = LambdaGrid.build(lam_max=0.95 * math.pi / (2.0 * spec.h_t))
    bare = GridFunction(spec=spec, values=f.values.copy(), polyradial=True)
    pairs.append((analyze_polyradial(f, band, quad), analyze_polyradial(bare, band, quad)))
    assert any(len(a) != len(b) for a, b in zip(*(S.coeffs for S in pairs[1])))
    for Sf, Sg in pairs:
        lhs = synthesize(Sf + Sg, spec).values
        rhs = synthesize(Sf, spec).values + synthesize(Sg, spec).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_pipeline_dilation_covariance(default_setup):
    # analyze/synthesize commutes with delta_r within quadrature error
    spec, grid, quad = default_setup
    base = TestFunctionId("gaussian", (1.0, 1.0))
    r = 1.3
    fr = make_test_function(base.dilated(r), spec)
    S = analyze_polyradial(fr, grid, quad)
    g = synthesize(S, spec)
    exact = fr.values
    err = np.linalg.norm(g.values - exact) / np.linalg.norm(exact)
    assert err <= 1e-2


@pytest.mark.parametrize("N_z, N_t, R_z, R_t", [(96, 256, 10, 10), (64, 128, 10, 10),
                                                (48, 96, 8, 8)])
def test_synthesis_on_a_window_is_the_cropped_synthesis(N_z, N_t, R_z, R_t):
    # the extension builders synthesize on _measured_window's grid, the
    # interior window widened by the residual's stencil halo; the values are
    # the whole-grid synthesis cropped to that grid, up to the rounding of
    # the phase product, whose shape changes with the window
    spec = GridSpec(N_z=N_z, N_t=N_t, R_z=R_z, R_t=R_t)
    grid = LambdaGrid.build()
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, AnalysisQuadrature.build(spec))
    window, _ = _measured_window(spec)
    wide = tuple(slice((N - M) // 2, (N + M) // 2) for N, M in zip(spec.shape, window.shape))
    full = synthesize(S, spec).values
    got = synthesize(S, window).values
    assert np.max(np.abs(got - full[wide])) <= 1e-14 * np.max(np.abs(full))


def test_synthesize_at_matches_grid(default_setup):
    # both callers share one engine; the per-node reference test checks the engine
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    g = synthesize(S, spec)
    i, j, k = 40, 28, 70
    u = spec.z_axis[i] ** 2 + spec.z_axis[j] ** 2
    t = spec.t_axis[k]
    val = synthesize_at(S, np.array([u]), np.array([t]))[0]
    assert abs(val - g.values[i, j, k]) <= 1e-12


def _expand_node_reference(x, c, alpha):
    """sum_k c[..., k] l_k^alpha(x) and its x-derivative, one node at a time.

    The per-node recurrence the batched engine replaced, kept as an independent
    reference: d/dx l_k^a = -l_{k-1}^{a+1} - l_k^a / 2.  c is one coefficient
    row or a stack of rows.
    """
    c = np.asarray(c)[..., None]                # (..., K, 1) against x (Nx,)
    w = np.exp(-0.5 * x)
    prev, acc = w, c[..., 0, :] * w
    prev1, dacc = w, np.zeros_like(acc)
    if c.shape[-2] == 1:
        return acc, -0.5 * acc
    cur = (1.0 + alpha - x) * w
    acc = acc + c[..., 1, :] * cur
    dacc = dacc - c[..., 1, :] * prev1
    cur1 = (2.0 + alpha - x) * w
    for k in range(1, c.shape[-2] - 1):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
        acc = acc + c[..., k + 1, :] * cur
        prev1, cur1 = cur1, ((2 * k + alpha + 2 - x) * cur1 - (k + alpha + 1) * prev1) / (k + 1)
        dacc = dacc - c[..., k + 1, :] * prev1
    return acc, dacc - 0.5 * acc


def _reference_slices(S, u, mults):
    """(nodes, weights, slices (L, 2M, Nu), their d/du) node by node over the
    whole lattice, lam and -lam, that unfold rebuilds, every symbol at the
    node's own lam."""
    n = S.n
    nodes, weights, rows = unfold(S.grid, S.coeffs)
    sl = np.empty((len(mults), nodes.size, u.size), dtype=complex)
    dsl = np.empty_like(sl)
    for i, (lam, c) in enumerate(zip(nodes, rows)):
        k = np.arange(len(c))
        C = np.stack([c if m is None else c * evaluate_multiplier(m, k, lam) for m in mults])
        pref = (2 * math.pi) ** (-n) * abs(lam) ** n
        acc, dacc = _expand_node_reference(0.5 * abs(lam) * u, C, n - 1)
        sl[:, i], dsl[:, i] = pref * acc, pref * dacc * (0.5 * abs(lam))
    return nodes, weights, sl, dsl


def _phases(nodes, weights, t):
    """(2 pi)^{-1} w_lam e^{-i lam t} on the whole lattice: the plain inversion."""
    return np.exp(-1j * np.outer(nodes, t)) * weights[:, None] / (2 * math.pi)


def _shifted(S):
    """S with row i times e^{0.7 i lam_i}, the spectrum of f(z, t - 0.7): still a
    real function, but with complex rows, so both real contraction rows count."""
    coeffs = [c * np.exp(0.7j * lam) for c, lam in zip(S.coeffs, S.grid.nodes)]
    return PolyradialSpectrum(grid=S.grid, n=S.n, coeffs=coeffs, name=S.name)


@pytest.fixture(scope="module")
def shifted_spectrum(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = _shifted(analyze_polyradial(f, grid, quad))
    assert max(np.max(np.abs(c.imag)) for c in S.coeffs) > 0.1 * np.max(np.abs(S.coeffs[0]))
    return S


def test_synthesize_at_matches_per_node_reference(default_setup, shifted_spectrum):
    # the engine against a per-node expansion and a plain lambda-quadrature
    # over lam and -lam
    spec, grid, quad = default_setup
    u = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
    t = np.array([0.0, 0.4, -1.1, 2.0, -3.5])
    nodes, weights, (sl,), (dsl,) = _reference_slices(shifted_spectrum, u, [None])
    phases = _phases(nodes, weights, t)
    refs = {None: np.sum(sl * phases, axis=0), "du": np.sum(dsl * phases, axis=0),
            "dt": np.sum(sl * phases * (-1j * nodes[:, None]), axis=0)}
    for deriv, ref in refs.items():
        got = synthesize_at(shifted_spectrum, u, t, deriv=deriv)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), deriv


def test_paired_synthesis_matches_per_node_reference(default_setup, shifted_spectrum):
    # one row per node lam > 0 serves lam and -lam: grid synthesis, single and
    # batched, against the node-by-node expansion over the whole lattice
    spec, grid, _ = default_setup
    S = shifted_spectrum
    mults = [SpectralMultiplier("heat", 0.2), SpectralMultiplier("poisson_nonconf", 0.5),
             SpectralMultiplier("frac_conf", 0.3)]
    uniq, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    nodes, weights, sl, _ = _reference_slices(S, uniq, [None] + mults)
    phases = _phases(nodes, weights, spec.t_axis)
    refs = [(s.T @ phases)[inv].reshape(spec.shape) for s in sl]
    got = [synthesize(S, spec)] + synthesize_batch(S, spec, mults)
    for l, (g, ref) in enumerate(zip(got, refs)):
        assert g.values.dtype == np.float64
        assert np.max(np.abs(g.values - ref)) <= 1e-13 * np.max(np.abs(ref)), l


def _bare_routes(spec, quad):
    """(route, its analysis on a lattice): gaussian(1, 1) as its closed form,
    its central profile on the oracle's u-rule and its bare grid samples, and
    the heavy-tailed conformal-kernel(0.3, 1.4)."""
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    bare = GridFunction(spec=spec, values=f.values, polyradial=True)
    kernel = make_test_function(TestFunctionId("conformal-kernel", (0.3, 1.4)), spec)
    yield "closed-form", lambda grid: analyze_polyradial(f, grid, quad)
    yield "profile", lambda grid: PolyradialSpectrum(grid=grid, n=spec.n,
                                                     coeffs=profile_coeffs(f, grid, quad))
    yield "grid", lambda grid: analyze_polyradial(bare, grid, quad)
    yield "heavy-tail", lambda grid: analyze_polyradial(kernel, grid, quad)


def test_real_in_real_out_on_every_analysis_route(default_setup):
    # every analysis route stores one row per node lam > 0, and every
    # synthesis of it is float64 and equals the plain complex sum over lam and
    # -lam of the unfolded lattice; the grid route's lattice stays within the
    # grid's alias limit.  A 16^2 x 32 grid and shallow caps keep the per-node
    # reference cheap
    _, _, quad = default_setup
    spec = GridSpec(N_z=16, N_t=32)
    grid = LambdaGrid.build(K=16, k_energy_cap=4.0)
    band = LambdaGrid.build(lam_max=0.95 * math.pi / (2.0 * spec.h_t), K=16, k_energy_cap=4.0)
    mults = [SpectralMultiplier("heat", 0.2), SpectralMultiplier("frac_conf", 0.3)]
    u = np.array([0.0, 0.3, 1.7, 4.0, 9.5])
    t = np.array([0.0, 0.4, -1.1, 2.0, -3.5])
    uniq, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    for route, analysis in _bare_routes(spec, quad):
        lattice = band if route == "grid" else grid
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)       # the grid route's band limit
            S = analysis(lattice)
        assert len(S.coeffs) == lattice.M, route
        # one reference pass over the grid's radii, then the points' u
        nodes, weights, sl, dsl = _reference_slices(S, np.concatenate([uniq, u]), [None] + mults)
        phases = _phases(nodes, weights, spec.t_axis)
        got = [synthesize(S, spec).values] + [g.values for g in synthesize_batch(S, spec, mults)]
        for l, (g, s) in enumerate(zip(got, sl[:, :, :uniq.size])):
            ref = (s.T @ phases)[inv].reshape(spec.shape)
            assert g.dtype == np.float64, (route, l)
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref)), (route, l)
        sl, dsl = sl[0, :, uniq.size:], dsl[0, :, uniq.size:]
        ph = _phases(nodes, weights, t)
        refs = {None: np.sum(sl * ph, axis=0), "du": np.sum(dsl * ph, axis=0),
                "dt": np.sum(sl * ph * (-1j * nodes[:, None]), axis=0)}
        for deriv, ref in refs.items():
            got = synthesize_at(S, u, t, deriv=deriv)
            assert got.dtype == np.float64, (route, deriv)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (route, deriv)


def test_analysis_rejects_non_real_inputs(default_setup):
    # the half lattice holds real functions only: a closed-form coefficient
    # function that breaks c(-lam) = conj c(lam) is refused by the analysis,
    # a central profile that does by the oracle's u-rule projection, and a
    # non-real scale by the spectrum.  gaussian(1, 0.25) has rows e^{-lam^2}
    # that underflow to 0 at lam = 40, so its skewed forms must be caught
    # where the rows are large, not on the outermost node
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    narrow = make_test_function(TestFunctionId("gaussian", (1.0, 0.25)), spec)
    assert not np.any(narrow.coeff_fn(np.arange(4), grid.nodes[-1]))
    skew = lambda lam: 1 + 0.5 * np.sign(lam) + 0.3j
    for h in (f, narrow):
        g = GridFunction(spec=spec, values=h.values, polyradial=True,
                         coeff_fn=lambda k, lam, h=h: h.coeff_fn(k, lam) * skew(lam))
        with pytest.raises(ValueError, match="real"):
            analyze_polyradial(g, grid, quad)
        g = GridFunction(spec=spec, values=h.values, polyradial=True,
                         central_profile=lambda u, lam, h=h: h.central_profile(u, lam) * skew(lam))
        with pytest.raises(ValueError, match="real"):
            profile_coeffs(g, grid, quad)
    S = analyze_polyradial(f, grid, quad)
    for scalar in (1j, np.complex128(2.0)):
        with pytest.raises(TypeError):
            S * scalar
    assert (S * np.float64(2.0)).coeffs[0][0] == 2 * S.coeffs[0][0]


def test_paired_analysis_matches_per_node_project(default_setup):
    # t-shifted grid samples: complex slices, which the grid route projects
    # as a real and an imaginary weight row per node, against each node's
    # complex weights on the plain full table, from the oracle's t-transform
    # of every z-node summed over equal radii.  Shallow caps keep the tables small
    spec, _, quad = default_setup
    fid = TestFunctionId("gaussian", (1.0, 1.0)).translated(HeisenbergPoint([0.0], [0.0], 0.7))
    g = GridFunction(spec=spec, values=make_test_function(fid, spec).values, name="shifted",
                     polyradial=True)
    grid = LambdaGrid.build(lam_max=0.95 * math.pi / (2.0 * spec.h_t), K=16, k_energy_cap=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)       # the band limit and the short caps
        S = analyze_polyradial(g, grid, quad)
    radii, inv = np.unique(spec.z_radius_sq().round(12).ravel(), return_inverse=True)
    F = central_transform(g, grid).reshape(grid.M, -1)
    worst, scale = 0.0, 0.0
    for i, lam in enumerate(grid.nodes):
        W = np.zeros(radii.size, dtype=complex)
        np.add.at(W, inv, F[i] * spec.h_z ** 2)
        ref = laguerre_phi_table(len(S.coeffs[i]) - 1, 0, 0.5 * lam * radii) @ W   # dim P_k = 1
        worst = max(worst, float(np.max(np.abs(S.coeffs[i] - ref))))
        scale = max(scale, float(np.max(np.abs(ref))))
    assert max(np.max(np.abs(c.imag)) for c in S.coeffs) > 0.1 * scale      # complex rows
    assert worst <= 1e-13 * scale


def _heavy_tail_reference(u, grid, quad):
    # the per-node route: every lattice row keeps its own profile evaluation
    uu = quad.v_nodes[None, :] / grid.nodes[:, None]
    W = np.stack([math.pi * (quad.v_weights / lam) * u.central_profile(uu[i], lam)
                  for i, lam in enumerate(grid.nodes)])          # n = 1: angular constant pi
    return _project(0.5 * quad.v_nodes, W, grid.k_caps, 0)          # and dim P_k = 1


def test_paired_heavy_tail_matches_per_node_reference(default_setup):
    # one on_lattice evaluation and one projected row per node lam > 0, against
    # every row from the point evaluation (scipy kv); the point evaluation
    # runs once more, on the largest row at -lam
    spec, grid, quad = default_setup
    fid = TestFunctionId("conformal-kernel", (0.3, 1.4))
    for f in (make_test_function(fid, spec), make_test_function(fid.dilated(0.7), spec)):
        calls = []

        def counted(u, lam, _p=f.central_profile):
            calls.append(lam)
            return _p(u, lam)

        profile = replace(f.central_profile, point=counted)
        g = GridFunction(spec=spec, values=f.values, name=f.name, polyradial=True,
                         central_profile=profile, heavy_tail=True)
        S = analyze_polyradial(g, grid, quad)
        assert len(calls) == 1 and calls[0] < 0, f.name
        ref = _heavy_tail_reference(f, grid, quad)
        scale = max(float(np.max(np.abs(r))) for r in ref)
        for c, r in zip(S.coeffs, ref):
            assert c.shape == r.shape
            assert np.max(np.abs(c - r)) <= 1e-14 * scale, f.name


def test_kernel_on_lattice_matches_mpmath(default_setup):
    # the exponential sum against 40-digit Bessel K on the default ladder's
    # dilated lattice (lam from 1.3e-7 to 177) and the refined v-rule (v from
    # 4e-12 to 400), on the lattice's and the rule's ends and a spread of
    # interior points.  Dilations 2 and 1/2 keep lam/r^2 exact: rounding it
    # would move e^{-lam rho0^2/4r^2} by its exponent's ulp, as it does for kv
    mpmath = pytest.importorskip("mpmath")
    from hfrac.kernels import _dilated_lattice, _ladder_radii, default_rho_ladder
    spec, grid, quad = default_setup
    lams = _dilated_lattice(grid, np.array(_ladder_radii(default_rho_ladder()))).nodes
    v = quad.refine().v_nodes
    li = np.unique(np.r_[0, np.linspace(0, lams.size - 1, 9).astype(int), lams.size - 1])
    vi = np.unique(np.r_[0, 1, np.linspace(0, v.size - 1, 9).astype(int), v.size - 1])

    def reference(s0, rho0, n, r, lam, v):
        # central(v/lam, lam) of conformal-kernel(s0, rho0) o delta_r at these doubles
        lam, v, r2 = mpmath.mpf(lam), mpmath.mpf(v), mpmath.mpf(r) ** 2
        beta = mpmath.mpf(n + 1 + s0) / 2
        lam_b = lam / r2                          # f(delta_r .)^lam(u) = r^-2 f^{lam/r^2}(r^2 u)
        A = mpmath.mpf(rho0) ** 2 + v / lam_b
        w = lam_b * A / 4
        return (A ** (1 - 2 * beta) / 4 * 2 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(beta)
                * (w / 2) ** (beta - 0.5) * mpmath.besselk(beta - 0.5, w)) / r2

    worst = {}
    with mpmath.workdps(40):
        for n, s0, rho0, r in ((1, 0.1, 1.4, 1.0), (1, 0.3, 1.0, 1.0), (1, 0.45, 0.6, 1.0),
                               (2, 0.1, 0.6, 1.0), (2, 0.3, 1.4, 1.0), (2, 0.45, 1.0, 1.0),
                               (1, 0.3, 1.4, 2.0), (2, 0.45, 0.6, 0.5)):
            fid = TestFunctionId("conformal-kernel", (s0, rho0)).dilated(r)
            f = make_test_function(fid, GridSpec(n=n, N_z=8, N_t=8))
            P = f.central_profile.on_lattice(lams, v[vi])
            worst[fid.label(), n] = max(
                float(abs(P[i, j] / reference(s0, rho0, n, r, lams[i], vj) - 1))
                for i in li for j, vj in enumerate(v[vi]))
    assert max(worst.values()) <= 1e-14, worst


def test_heavy_tail_rejects_profile_not_even_in_t(default_setup, monkeypatch):
    # a t-shifted kernel is real, but its central profile is complex: the
    # heavy-tail route takes real weight rows only and refuses it while
    # filling them, before any projection
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("conformal-kernel", (0.3, 1.4)), spec)
    shifted = RowLatticeProfile(lambda u, lam: f.central_profile(u, lam) * np.exp(0.7j * lam))
    g = GridFunction(spec=spec, values=f.values, name="shifted kernel", polyradial=True,
                     central_profile=shifted, heavy_tail=True)

    def no_projection(*args, **kwargs):
        raise AssertionError("the projection ran before the profile was checked")

    monkeypatch.setattr(lagspec, "_project", no_projection)
    with pytest.raises(ValueError, match="not even in t"):
        analyze_polyradial(g, grid, quad)


def test_heavy_tail_rejects_odd_profile(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("conformal-kernel", (0.3, 1.4)), spec)
    odd = RowLatticeProfile(lambda u, lam: f.central_profile(u, lam) * (1 + 0.5 * np.sign(lam)))
    g = GridFunction(spec=spec, values=f.values, polyradial=True, central_profile=odd,
                     heavy_tail=True)
    with pytest.raises(ValueError, match="conj"):
        analyze_polyradial(g, grid, quad)


def test_heavy_tail_rejects_on_lattice_that_disagrees_with_points(default_setup):
    # the -lam check sets the point evaluation against the on_lattice row, so
    # a lattice form off by 1e-9 of its row is refused
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("conformal-kernel", (0.3, 1.4)), spec)
    off = replace(f.central_profile,
                  lattice=lambda lams, v: f.central_profile.on_lattice(lams, v) * (1 + 1e-9))
    g = GridFunction(spec=spec, values=f.values, polyradial=True, central_profile=off,
                     heavy_tail=True)
    with pytest.raises(ValueError, match="on_lattice"):
        analyze_polyradial(g, grid, quad)


def test_heavy_tail_profile_without_on_lattice_rejected_before_any_work(default_setup,
                                                                         monkeypatch):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("conformal-kernel", (0.3, 1.4)), spec)
    calls = []

    def point_only(u, lam):
        calls.append(lam)
        return f.central_profile(u, lam)

    def no_projection(*args, **kwargs):
        raise AssertionError("the projection ran before the profile was checked")

    monkeypatch.setattr(lagspec, "_project", no_projection)
    g = GridFunction(spec=spec, values=f.values, polyradial=True, central_profile=point_only,
                     heavy_tail=True)
    with pytest.raises(TypeError, match="on_lattice"):
        analyze_polyradial(g, grid, quad)
    assert not calls


def test_synthesis_rejects_plain_callable_symbol(default_setup, shifted_spectrum):
    # a node stands for lam and -lam, which only SpectralMultiplier kinds
    # (functions of |lam|) guarantee
    spec, _, _ = default_setup
    plain = lambda k, lam: np.ones(len(k))
    with pytest.raises(TypeError):
        synthesize_batch(shifted_spectrum, spec, [plain])
    with pytest.raises(TypeError):
        slices_at_radii_batch(shifted_spectrum, np.array([1.0]),
                              [SpectralMultiplier("heat", 0.1), plain])


def test_spectra_of_another_lattice_or_dimension_rejected(shifted_spectrum):
    # rows combine only between spectra on the same lambda nodes and weights
    # and of the same n, and synthesis only onto a grid of that n; spectra of
    # the same nodes and weights but other caps combine, their rows ragged
    S = shifted_spectrum
    grid = S.grid
    wider = LambdaGrid(nodes=1.5 * grid.nodes, weights=grid.weights, k_caps=grid.k_caps, K=grid.K)
    heavier = LambdaGrid(nodes=grid.nodes, weights=2 * grid.weights, k_caps=grid.k_caps, K=grid.K)
    for other in (PolyradialSpectrum(grid=grid, n=2, coeffs=S.coeffs),
                  PolyradialSpectrum(grid=wider, n=S.n, coeffs=S.coeffs),
                  PolyradialSpectrum(grid=heavier, n=S.n, coeffs=S.coeffs)):
        for combine in (S.__add__, S.convolve, S.pair):
            with pytest.raises(ValueError):
                combine(other)
    shallower = LambdaGrid(nodes=grid.nodes, weights=grid.weights, k_caps=grid.k_caps - 1,
                           K=grid.K)
    short = PolyradialSpectrum(grid=shallower, n=S.n, coeffs=[c[:-1] for c in S.coeffs])
    assert S.pair(short) == short.pair(S)
    with pytest.raises(ValueError):
        slices_at_radii_batch(S, np.array([1.0]), [SpectralMultiplier("heat", 0.1, n=2)])
    spec2 = GridSpec(n=2, N_z=8, N_t=8)
    with pytest.raises(ValueError):
        synthesize(S, spec2)
    with pytest.raises(ValueError):
        synthesize_batch(S, spec2, [None])


def test_synthesize_at_derivatives(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    S = analyze_polyradial(f, grid, quad)
    u0, t0 = 1.7, 0.4
    eps = 1e-5
    du = synthesize_at(S, np.array([u0]), np.array([t0]), deriv="du")[0]
    du_fd = (synthesize_at(S, np.array([u0 + eps]), np.array([t0]))[0]
             - synthesize_at(S, np.array([u0 - eps]), np.array([t0]))[0]) / (2 * eps)
    assert abs(du - du_fd) <= 1e-6 * max(1.0, abs(du))
    dt = synthesize_at(S, np.array([u0]), np.array([t0]), deriv="dt")[0]
    dt_fd = (synthesize_at(S, np.array([u0]), np.array([t0 + eps]))[0]
             - synthesize_at(S, np.array([u0]), np.array([t0 - eps]))[0]) / (2 * eps)
    assert abs(dt - dt_fd) <= 1e-6 * max(1.0, abs(dt))
    with pytest.raises(ValueError):
        synthesize_at(S, np.array([u0]), np.array([t0]), deriv="dx")
    # u = |z|^2 cannot be negative
    with pytest.raises(ValueError):
        synthesize_at(S, [-1.0], [0.0])
    with pytest.raises(ValueError):
        slices_at_radii_batch(S, np.array([1.0, -1e-3]), [None])


# ---------------------------------------------------------------------------
# group convolution
# ---------------------------------------------------------------------------

def test_convolution_approximate_identity(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    # narrow normalized bump: mass 1, scales well inside the grid resolution
    eps_a, eps_b = 18.0, 55.0
    mass = math.pi ** spec.n / eps_a ** spec.n * math.sqrt(math.pi / eps_b)
    d = make_test_function(TestFunctionId("gaussian", (eps_a, eps_b)), spec)
    conv = group_convolve(f, d, grid, quad)
    err = np.linalg.norm(conv.values / mass - f.values) / np.linalg.norm(f.values)
    # the mollifier bias scales with its second moments; check the level and
    # that halving the width improves it
    assert err <= 6e-2
    wide = make_test_function(TestFunctionId("gaussian", (eps_a / 3, eps_b / 3)), spec)
    mass_w = math.pi ** spec.n / (eps_a / 3) ** spec.n * math.sqrt(math.pi / (eps_b / 3))
    conv_w = group_convolve(f, wide, grid, quad)
    err_w = np.linalg.norm(conv_w.values / mass_w - f.values) / np.linalg.norm(f.values)
    assert err < 0.6 * err_w


def test_convolution_against_direct_sum():
    # brute-force group convolution on a coarse grid, exact evaluator for f(x y^-1);
    # the sum needs h small enough that the Gaussian aliasing error stays below 1e-2
    spec = GridSpec(N_z=12, N_t=12, R_z=5.0, R_t=5.0)
    fa = TestFunctionId("gaussian", (0.5, 0.5))
    ga = TestFunctionId("gaussian", (1.0, 1.0))
    f = make_test_function(fa, spec)
    g = make_test_function(ga, spec)
    X, Y, T = spec.meshgrid()
    xs, ts = spec.z_axis, spec.t_axis
    direct = np.zeros(spec.shape, dtype=complex)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(xs):
            for k, tv in enumerate(ts):
                # f(p q^-1) with q = (xv, yv, tv) on the grid mesh p
                px = X - xv
                py = Y - yv
                pt = T - tv - 0.5 * (X * yv - xv * Y)
                direct += f.evaluator(px, py, pt) * g.values[i, j, k]
    direct *= spec.cell_volume
    # exact value at the origin for a cross-check of the oracle itself
    assert direct[6, 6, 6].real == pytest.approx((np.pi / 1.5) * math.sqrt(np.pi / 1.5), rel=2e-3)
    # quadrature route on a dense grid, sampled back at the coarse nodes
    dense = GridSpec(N_z=96, N_t=96, R_z=5.0, R_t=5.0)
    grid = LambdaGrid.build()
    quad = AnalysisQuadrature.build(dense)
    fd = make_test_function(fa, dense)
    gd = make_test_function(ga, dense)
    conv = group_convolve(fd, gd, grid, quad)
    sub = conv.values[::8, ::8, ::8]
    err = np.max(np.abs(sub - direct)) / np.max(np.abs(direct))
    assert err <= 1e-2


def test_convolution_preserves_realness():
    # the direct twisted route inverts complex slices: the central translate
    # of a gaussian by t = 0.3 carries the phase e^{0.3 i lam}.  Their
    # convolution is real only if the inversion pairs each slice at lam with
    # its conjugate at -lam, and GridFunction refuses an imaginary part above
    # 1e-12 of peak
    spec = GridSpec(N_z=24, N_t=64, R_z=6, R_t=6)
    base = TestFunctionId("gaussian", (1.0, 1.0))
    f = make_test_function(base, spec)
    g = make_test_function(base.translated(HeisenbergPoint([0.0], [0.0], 0.3)), spec)
    grid = LambdaGrid.build(lam_max=0.95 * math.pi / (2.0 * spec.h_t))
    F = central_transform(g, grid)
    assert np.max(np.abs(F.imag)) > 0.1 * np.max(np.abs(F))
    conv = group_convolve(f, g, grid)              # g is not polyradial: the direct route
    assert conv.values.dtype == np.float64 and np.max(conv.values) > 0


def test_convolution_direct_route_matches_laguerre_route():
    # inputs that do not claim polyradiality take the per-lambda twisted
    # convolution of their central slices; it must agree with the Laguerre route
    spec = GridSpec(N_z=24, N_t=64, R_z=6, R_t=6)
    f, g = (make_test_function(TestFunctionId("gaussian", p), spec) for p in ((1.0, 1.0), (2.0, 1.5)))
    ref = group_convolve(f, g)
    plain = [GridFunction(spec=spec, values=h.values, name=h.name) for h in (f, g)]
    conv = group_convolve(*plain)
    assert np.max(np.abs(conv.values - ref.values)) <= 1e-4 * np.max(np.abs(ref.values))


# ---------------------------------------------------------------------------
# Plancherel / Parseval
# ---------------------------------------------------------------------------

def test_plancherel_gaussian(default_setup):
    spec, grid, quad = default_setup
    f = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    rep = plancherel_check(f, grid, quad)
    assert abs(rep.get("ratio").value - 1.0) <= 0.02
    assert rep.passed


def test_plancherel_zero(default_setup):
    spec, _, quad = default_setup
    grid = narrow_lambda_grid(lam_min=1e-3, lam_max=9.5, nodes=30)
    z = GridFunction(spec=spec, values=np.zeros(spec.shape, dtype=complex), polyradial=True)
    rep = plancherel_check(z, grid, quad)
    assert rep.get("lhs_l2").value == 0.0
    assert rep.get("rhs_hs").value == 0.0


def test_plancherel_check_warns_on_boundary_decay():
    # a wide gaussian on a small box has not decayed at its faces: the grid
    # side of the check must say so to the caller
    spec = GridSpec(N_z=16, N_t=16, R_z=2, R_t=2)
    f = make_test_function(TestFunctionId("gaussian", (0.1, 0.1)), spec)
    with pytest.warns(UserWarning, match="boundary decay"):
        plancherel_check(f)


def test_parseval_polarization(default_setup):
    spec, grid, quad = default_setup
    u = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    v = make_test_function(TestFunctionId("gaussian", (2.0, 0.7)), spec)
    lhs = integrate(u.copy_with(u.values * np.conj(v.values), name="u conj(v)"))
    rhs = analyze_polyradial(u, grid, quad).pair(analyze_polyradial(v, grid, quad))
    assert abs(lhs - rhs) <= 0.02 * abs(lhs)
