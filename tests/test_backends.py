"""The compiled kernel and its pure-Python twin must agree bit for bit."""

import numpy as np
import pytest

from conftest import random_oracle_instance
from tvdp import _kernels_py, oracle


def test_backend_name_is_consistent():
    assert oracle.BACKEND_NAME in ("compiled", "python")
    assert oracle.backend_name() == oracle.BACKEND_NAME


def test_backends_agree_bitwise():
    compiled = pytest.importorskip("tvdp._kernels", reason="compiled backend not built")
    rng = np.random.default_rng(20240301)
    for _ in range(500):
        mu, lv, r = random_oracle_instance(rng, max_size=9)
        nu_c, val_c, eff_c, rmax_c = compiled.waterfill(mu, lv, r, 1e-9)
        nu_p, val_p, eff_p, rmax_p = _kernels_py.waterfill(mu, lv, r, 1e-9)
        assert np.array_equal(np.asarray(nu_c), np.asarray(nu_p))
        assert val_c == val_p
        assert eff_c == eff_p
        assert rmax_c == rmax_p
