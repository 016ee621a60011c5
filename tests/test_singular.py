"""Identities of the singular-integral quadrature."""

import numpy as np
import pytest

from hfrac.group import GridSpec, HeisenbergPoint, TestFunctionId, make_test_function
from hfrac.singular import SingularQuadrature, d_s_values, t_s_values


@pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
def test_t_s_diagonal_is_d_half_s_squared(s):
    # T_s(u, u) = D_{s/2}(u)^2: both integrate |u(xy^-1) - u(x)|^2 |y|^{-Q-2s}
    # with the same core and tail closures on the same node set
    spec = GridSpec()
    u = make_test_function(TestFunctionId("gaussian", (1.0, 1.0)), spec)
    rng = np.random.default_rng(11)
    samples = [HeisenbergPoint([x], [y], t) for x, y, t in rng.uniform(-1.2, 1.2, (6, 3))]
    quad = SingularQuadrature.build()
    t_diag = t_s_values(u, u, s, samples, quad)
    d_half = d_s_values(u, s / 2, samples, quad)
    assert np.all(t_diag > 0)
    assert np.max(np.abs(t_diag - d_half ** 2) / t_diag) <= 1e-13
