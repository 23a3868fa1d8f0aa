"""Boundary-vanishing weight functions on the sphere orthant.

The squared weight h^2 multiplies every term of the score-matching
objective and must vanish where the density may blow up, i.e. on the
boundary of the orthant. Two shapes are supported, each optionally
capped at a ceiling a_c^2:

- product kind:  h^2(z) = prod_j z_j^2, capped at a_c^2
- min kind:      h^2(z) = min_j z_j^2, capped at a_c^2

Uncapped kinds are the capped ones with a_c = 1, where the cap can
never bind (the product is at most p^{-p/2} < 1 and the min is at most
1/p < 1 on the orthant).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "WeightSpec",
    "KINDS",
    "weight_value",
    "squared_weight",
    "cap_from_quantile",
]

KIND_PRODUCT = "product"
KIND_CAPPED_PRODUCT = "capped-product"
KIND_MIN = "min"
KIND_CAPPED_MIN = "capped-min"
KINDS = (KIND_PRODUCT, KIND_CAPPED_PRODUCT, KIND_MIN, KIND_CAPPED_MIN)


@dataclass(frozen=True)
class WeightSpec:
    """Weight kind plus cap parameter a_c in (0, 1].

    Uncapped kinds ignore a_c and store 1.0.
    """

    kind: str
    a_c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if not self.capped:
            object.__setattr__(self, "a_c", 1.0)
        a_c = float(self.a_c)
        if not (0.0 < a_c <= 1.0) or not np.isfinite(a_c):
            raise ConfigError(f"a_c must be in (0, 1], got {self.a_c}")
        object.__setattr__(self, "a_c", a_c)

    @property
    def capped(self):
        return self.kind in (KIND_CAPPED_PRODUCT, KIND_CAPPED_MIN)

    @property
    def product_family(self):
        return self.kind in (KIND_PRODUCT, KIND_CAPPED_PRODUCT)


def squared_weight(u, spec):
    """h^2 row-wise from squared coordinates u = z * z, an (n, p) array."""
    raw = u.prod(axis=1) if spec.product_family else u.min(axis=1)
    return np.minimum(raw, spec.a_c * spec.a_c)


def weight_value(z, spec):
    """Evaluate h^2 at one point or row-wise.

    Returns a scalar for a 1-d input, else an (n,) array.
    """
    z = np.asarray(z, dtype=float)
    vals = squared_weight(np.atleast_2d(z * z), spec)
    return float(vals[0]) if z.ndim == 1 else vals


def cap_from_quantile(z, kind, quantile=0.90):
    """Heuristic cap choice: a_c^2 set at an empirical quantile of the
    uncapped weight values. Not part of the core method; offered as an
    explicitly opt-in convenience for data analysis.
    """
    if not (0.0 < quantile < 1.0):
        raise ConfigError(f"quantile must be in (0, 1), got {quantile}")
    base = KIND_PRODUCT if WeightSpec(kind).product_family else KIND_MIN
    vals = weight_value(z, WeightSpec(base))
    vals = np.atleast_1d(vals)
    hsq = float(np.quantile(vals, quantile))
    if hsq <= 0.0:
        raise ConfigError("quantile of weight values is zero; cannot choose a cap")
    return min(1.0, float(np.sqrt(hsq)))
