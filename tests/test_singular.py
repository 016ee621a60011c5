"""Identities of the singular-integral quadrature."""

import numpy as np
import pytest

from hfrac.group import (GridFunction, GridSpec, HeisenbergPoint, TestFunctionId, group_mul,
                         make_test_function)
from hfrac.singular import SingularQuadrature, d_s_values, ir_values, t_s_values


def _samples(m=6, seed=11):
    rng = np.random.default_rng(seed)
    return [HeisenbergPoint([x], [y], t) for x, y, t in rng.uniform(-1.2, 1.2, (m, 3))]


@pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
def test_t_s_diagonal_is_d_half_s_squared(s):
    # T_s(u, u) = D_{s/2}(u)^2: both integrate |u(xy^-1) - u(x)|^2 |y|^{-Q-2s}
    # with the same core and tail closures on the same node set
    spec = GridSpec()
    u = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    samples = _samples()
    quad = SingularQuadrature.build()
    t_diag = t_s_values(u, u, s, samples, quad)
    d_half = d_s_values(u, s / 2, samples, quad)
    assert np.all(t_diag > 0)
    assert np.max(np.abs(t_diag - d_half ** 2) / t_diag) <= 1e-13


@pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
def test_t_s_polarization(s):
    # T_s(u, v) = (D_{s/2}(u+v)^2 - D_{s/2}(u-v)^2) / 4 for u != v: the
    # two-function form against the diagonal one on sums and differences
    spec = GridSpec()
    u = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    v = make_test_function(TestFunctionId("gaussian", (0.5, 2.0)), spec)

    def combine(sign):
        def evaluator(x, y, t):
            return u.evaluator(x, y, t) + sign * v.evaluator(x, y, t)
        return GridFunction(spec, u.values + sign * v.values, evaluator=evaluator)

    samples = _samples()
    quad = SingularQuadrature.build()
    t_uv = t_s_values(u, v, s, samples, quad)
    polar = (d_s_values(combine(1.0), s / 2, samples, quad) ** 2
             - d_s_values(combine(-1.0), s / 2, samples, quad) ** 2) / 4.0
    assert np.max(np.abs(t_uv - polar)) <= 1e-13 * np.max(np.abs(t_uv))


@pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
def test_left_translation_covariance(s):
    # every difference is taken at x y^-1, so F(tau_a u)(x) = F(u)(a x) for
    # tau_a u(p) = u(a p), on an input that is not polyradial
    spec = GridSpec()
    a = HeisenbergPoint([0.3], [-0.2], 0.1)
    fid = TestFunctionId("gaussian", (1.0, 1.0))
    u = make_test_function(fid, spec)
    ua = make_test_function(fid.translated(a), spec)
    samples = _samples()
    moved = [group_mul(a, x) for x in samples]
    quad = SingularQuadrature.build()
    for values in (ir_values, d_s_values):
        lhs = values(ua, s, samples, quad)
        rhs = values(u, s, moved, quad)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * np.max(np.abs(rhs)), values.__name__


@pytest.mark.parametrize("n_angles", [24, 48])
def test_refine_grows_every_resolution(n_angles):
    # refinement must resolve more shells and more angles per shell than the
    # rule it refines, including a rule that is itself a refinement
    def counts(q):
        shells = len(np.unique(q.gauge))
        return shells, q.gauge.size // shells

    quad = SingularQuadrature.build(n_theta=n_angles, n_phi=n_angles)
    for _ in range(2):
        finer = quad.refine()
        (r0, a0), (r1, a1) = counts(quad), counts(finer)
        assert r1 > r0 and a1 > a0
        quad = finer


def test_build_rejects_spans_and_counts_that_break_the_weights():
    # a reversed span gives negative Haar weights, r_min = 0 no log-radial
    # grid and a zero count an empty or undefined angular rule: all raise
    assert np.all(SingularQuadrature.build().w_haar > 0)
    for kwargs in ({"r_min": 1.0, "r_max": 0.5}, {"r_min": 0.0}, {"r_min": -1e-3},
                   {"r_min": 1.0, "r_max": 1.0}, {"per_decade": 0}, {"n_theta": 0},
                   {"n_phi": 0}):
        with pytest.raises(ValueError, match="r_min < r_max"):
            SingularQuadrature.build(**kwargs)


def test_difference_integrals_reject_a_sample_of_another_dimension():
    # an H^2 point on an H^1 input is refused, not cut to its first coordinates
    u = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), GridSpec(N_z=8, N_t=8))
    point = [HeisenbergPoint([0.3, 0.2], [0.1, -0.4], 0.2)]
    for call in (lambda: ir_values(u, 0.3, point), lambda: d_s_values(u, 0.3, point),
                 lambda: t_s_values(u, u, 0.3, point)):
        with pytest.raises(ValueError, match="samples of H\\^1"):
            call()
