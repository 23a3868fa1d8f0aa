"""Weight functions: values, caps, boundary behavior."""

import numpy as np
import pytest

from compscore.errors import ConfigError
from compscore.weights import (
    KINDS,
    WeightSpec,
    cap_from_quantile,
    weight_value,
)


def test_hand_values():
    z = np.sqrt([0.5, 0.3, 0.2])
    assert weight_value(z, WeightSpec("product")) == pytest.approx(0.5 * 0.3 * 0.2)
    assert weight_value(z, WeightSpec("min")) == pytest.approx(0.2)
    assert weight_value(z, WeightSpec("capped-product", 0.1)) == pytest.approx(0.01)
    assert weight_value(z, WeightSpec("capped-min", 0.1)) == pytest.approx(0.01)
    # cap larger than the raw value leaves it alone
    assert weight_value(z, WeightSpec("capped-min", 0.8)) == pytest.approx(0.2)


def test_scalar_and_row_forms():
    z = np.sqrt(np.array([[0.5, 0.5], [0.9, 0.1]]))
    vals = weight_value(z, WeightSpec("min"))
    assert vals.shape == (2,)
    np.testing.assert_allclose(vals, [0.5, 0.1])
    assert isinstance(weight_value(z[0], WeightSpec("min")), float)


def test_uncapped_kinds_pin_cap_at_one():
    spec = WeightSpec("product", 0.5)
    assert spec.a_c == 1.0
    assert not spec.capped
    assert WeightSpec("capped-min", 0.5).capped


def test_invalid_specs():
    with pytest.raises(ConfigError, match="unknown weight kind"):
        WeightSpec("geometric")
    for bad in (0.0, -0.1, 1.5, np.nan):
        with pytest.raises(ConfigError):
            WeightSpec("capped-min", bad)


def test_family_flags():
    assert WeightSpec("product").product_family
    assert WeightSpec("capped-product", 0.1).product_family
    assert not WeightSpec("min").product_family
    assert not WeightSpec("capped-min", 0.1).product_family


def test_pointwise_orderings():
    """On the orthant each z_j^2 <= 1, so the product never exceeds the
    min, and capping never increases a weight."""
    rng = np.random.default_rng(21)
    for p in (2, 3, 6):
        u = rng.dirichlet(np.ones(p) * 0.7, size=200)
        z = np.sqrt(u)
        prod = weight_value(z, WeightSpec("product"))
        mn = weight_value(z, WeightSpec("min"))
        assert np.all(prod <= mn + 1e-15)
        for kind, capped in (("product", "capped-product"), ("min", "capped-min")):
            for a_c in (0.05, 0.3, 1.0):
                capped_vals = weight_value(z, WeightSpec(capped, a_c))
                assert np.all(capped_vals <= weight_value(z, WeightSpec(kind)) + 1e-15)
                assert np.all(capped_vals <= a_c * a_c + 1e-15)


def test_vanishes_on_boundary():
    pts = np.sqrt(
        np.array([[0.0, 0.4, 0.6], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    )
    for kind in KINDS:
        spec = WeightSpec(kind, 0.3) if "capped" in kind else WeightSpec(kind)
        np.testing.assert_array_equal(weight_value(pts, spec), 0.0)


def test_cap_from_quantile():
    rng = np.random.default_rng(4)
    z = np.sqrt(rng.dirichlet(np.ones(3), size=500))
    for kind in ("capped-min", "capped-product"):
        a_c = cap_from_quantile(z, kind, quantile=0.9)
        base = "product" if "product" in kind else "min"
        vals = weight_value(z, WeightSpec(base))
        assert a_c == pytest.approx(min(1.0, np.sqrt(np.quantile(vals, 0.9))))
        frac_below = np.mean(vals < a_c * a_c)
        assert 0.85 <= frac_below <= 0.95
    with pytest.raises(ConfigError, match="quantile"):
        cap_from_quantile(z, "capped-min", quantile=1.0)
    # the kind resolves through WeightSpec, so an unknown one is refused
    with pytest.raises(ConfigError, match="unknown weight kind"):
        cap_from_quantile(z, "bogus")
    # every row touching the boundary makes the quantile collapse
    zeros = np.sqrt(np.array([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8]]))
    with pytest.raises(ConfigError, match="zero"):
        cap_from_quantile(zeros, "capped-product", quantile=0.5)
