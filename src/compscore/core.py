"""Core domain types: datasets on the simplex, the square-root transform,
model specifications, and the parameter index map.

Compositions live on the closed simplex: nonnegative rows summing to one,
with exact zeros allowed and never perturbed. The square-root transform
maps a composition u to z = sqrt(u) on the nonnegative orthant of the
unit sphere, where all estimation happens.
"""

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError, DimensionError, FamilyError

__all__ = [
    "ContinuousDataset",
    "CountDataset",
    "ModelSpec",
    "ParameterIndexMap",
    "index_map",
    "sqrt_transform",
    "counts_to_proportions",
]

# Row sums within RENORM_TOL pass silently; up to REJECT_TOL they are
# renormalized with a warning; beyond that the row is rejected.
RENORM_TOL = 1e-9
REJECT_TOL = 1e-6

FAMILY_HYBRID = "hybrid"
FAMILY_TRUNCATED_GAUSSIAN = "truncated-gaussian"
FAMILY_DIRICHLET = "dirichlet"
FAMILIES = (FAMILY_HYBRID, FAMILY_TRUNCATED_GAUSSIAN, FAMILY_DIRICHLET)


def _as_matrix(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DataError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    return arr


def _category_names(names, p):
    names = list(names) if names is not None else [f"c{j+1}" for j in range(p)]
    if len(names) != p:
        raise DataError("names length does not match number of categories")
    repeated = sorted({str(name) for name in names if names.count(name) > 1})
    if repeated:
        raise DataError(f"category names repeat: {', '.join(repeated)}")
    return names


class ContinuousDataset:
    """Rows of proportions on the closed simplex.

    Parameters
    ----------
    proportions : array_like of shape (n, p)
        Nonnegative rows. Row sums must be within 1e-6 of one; sums off
        by more than 1e-9 are renormalized with a warning. Exact zeros
        are kept as zeros; no pseudo-count is ever added.
    names : sequence of str, optional
        Distinct category names. Defaults to ``c1 .. cp``.
    """

    def __init__(self, proportions, names=None):
        self._own(_as_matrix(proportions, "proportions").copy(), names)

    @classmethod
    def _adopt(cls, u, names=None):
        """The dataset of u, a new float64 (n, p) array that no one else
        holds, taken over without a copy: checked as __init__ checks its
        copy, and divided by its row sums in place."""
        data = cls.__new__(cls)
        data._own(u, names)
        return data

    def _own(self, u, names):
        n, p = u.shape
        if p < 2:
            raise DimensionError(f"need at least 2 categories, got p={p}")
        if n < 1:
            raise DataError("dataset has no rows")
        if not np.all(np.isfinite(u)):
            raise DataError("proportions contain NaN or infinity")
        # tolerate float dust from upstream subtractions, reject real negatives
        # no (n, p) mask outlives its line: a draw's memory bound counts on it
        u[(u < 0) & (u >= -1e-12)] = 0.0
        if np.any(u < 0):
            bad = int(np.argwhere(u < 0)[0, 0])
            raise DataError(f"negative proportion in row {bad}")
        sums = u.sum(axis=1)
        off = sums - 1.0
        np.abs(off, out=off)
        if np.any(off > REJECT_TOL):
            bad = int(np.argmax(off))
            raise DataError(
                f"row {bad} sums to {sums[bad]:.9f}; off by more than {REJECT_TOL}"
            )
        n_renorm = int(np.count_nonzero(off > RENORM_TOL))
        if n_renorm:
            warnings.warn(
                f"renormalized {n_renorm} row(s) with sums off by more than {RENORM_TOL}",
                stacklevel=3,
            )
        u /= sums[:, None]
        u.flags.writeable = False
        self._u = u
        self.names = _category_names(names, p)

    @property
    def proportions(self):
        return self._u

    @property
    def n(self):
        return self._u.shape[0]

    @property
    def p(self):
        return self._u.shape[1]

    def __repr__(self):
        return f"ContinuousDataset(n={self.n}, p={self.p})"


class CountDataset:
    """Rows of category counts with per-row totals.

    Totals must equal row sums exactly and be at least one; names must be distinct.
    """

    def __init__(self, counts, totals=None, names=None):
        x = np.asarray(counts)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise DataError("counts must be a 2-d array")
        if not np.issubdtype(x.dtype, np.integer):
            xf = np.asarray(x, dtype=float)
            if not np.all(np.isfinite(xf)) or np.any(xf != np.round(xf)):
                raise DataError("counts must be integers")
            if np.any(np.abs(xf) >= 2.0**63):
                raise DataError("counts must fit in a 64-bit integer")
            x = xf.astype(np.int64)
        elif x.dtype.kind == "u" and x.size and x.max() > np.iinfo(np.int64).max:
            raise DataError("counts must fit in a 64-bit integer")
        x = x.astype(np.int64, copy=True)
        n, p = x.shape
        if p < 2:
            raise DimensionError(f"need at least 2 categories, got p={p}")
        if np.any(x < 0):
            raise DataError("counts must be nonnegative")
        # every cell is nonnegative, so a row sum past int64 first shows as
        # a negative partial sum
        partial = np.cumsum(x, axis=1)
        past = (partial < 0).any(axis=1)
        if past.any():
            bad = int(np.argmax(past))
            raise DataError(f"row {bad}: counts sum past the 64-bit integer range")
        row_sums = partial[:, -1]
        if totals is None:
            m = row_sums
        else:
            m = np.asarray(totals, dtype=np.int64).reshape(-1)
            if m.shape[0] != n:
                raise DataError("totals length does not match number of rows")
            if np.any(m != row_sums):
                bad = int(np.argmax(m != row_sums))
                raise DataError(
                    f"row {bad}: total {m[bad]} does not equal row sum {row_sums[bad]}"
                )
        if np.any(m < 1):
            raise DataError("every row total must be at least 1")
        x.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        self._x = x
        self._m = m
        self.names = _category_names(names, p)

    @property
    def counts(self):
        return self._x

    @property
    def totals(self):
        return self._m

    @property
    def n(self):
        return self._x.shape[0]

    @property
    def p(self):
        return self._x.shape[1]

    def __repr__(self):
        return f"CountDataset(n={self.n}, p={self.p})"


def counts_to_proportions(counts):
    """Divide each count row by its total. Zeros stay exact zeros."""
    u = counts.counts / counts.totals[:, None]
    return ContinuousDataset._adopt(u, names=counts.names)


def sqrt_transform(data):
    """Map proportions to the sphere orthant, z = sqrt(u) row-wise.

    Accepts a ContinuousDataset or a raw array of proportions and returns
    an (n, p) array with unit-norm rows.
    """
    if isinstance(data, ContinuousDataset):
        u = data.proportions
    else:
        u = ContinuousDataset(data).proportions
    return np.sqrt(u)


class ParameterIndexMap:
    """Flat ordering of the interaction and linear parameters.

    For p categories the identifiable parameters are the (p-1) diagonal
    interactions a_jj, the (p-1)(p-2)/2 off-diagonal interactions a_jk
    with j < k <= p-1 in row-major pair order, and the (p-1) linear
    coefficients b_j. Indices in labels are 1-based; internal level
    arrays are 0-based.
    """

    def __init__(self, p):
        if p < 2:
            raise DimensionError(f"index map needs p >= 2, got p={p}")
        self.p = p
        k = p - 1
        self.n_diag = k
        self.n_cross = k * (k - 1) // 2
        self.n_linear = k
        self.q = self.n_diag + self.n_cross + self.n_linear

        self.diag_levels = np.arange(k)
        cross = [(j, l) for j in range(k) for l in range(j + 1, k)]
        self.cross_j = np.array([j for j, _ in cross], dtype=np.intp)
        self.cross_k = np.array([l for _, l in cross], dtype=np.intp)
        self.linear_levels = np.arange(k)

        sep = "_" if p > 10 else ""
        labels = [f"a{sep}{j+1}{sep}{j+1}" for j in range(k)]
        labels += [f"a{sep}{j+1}{sep}{l+1}" for j, l in cross]
        labels += [f"b{sep}{j+1}" for j in range(k)]
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

        # offsets of the three parameter groups in the flat vector
        self.diag_slice = slice(0, self.n_diag)
        self.cross_slice = slice(self.n_diag, self.n_diag + self.n_cross)
        self.linear_slice = slice(self.n_diag + self.n_cross, self.q)

    def index(self, label):
        return self._index[label]

    def pack(self, interaction, linear):
        """Flatten a symmetric (p-1, p-1) interaction matrix and a (p-1,)
        linear vector into the canonical parameter vector."""
        a = np.asarray(interaction, dtype=float)
        b = np.asarray(linear, dtype=float).reshape(-1)
        k = self.p - 1
        if a.shape != (k, k) or b.shape != (k,):
            raise DataError("interaction/linear shapes do not match index map")
        out = np.empty(self.q)
        out[self.diag_slice] = np.diag(a)
        out[self.cross_slice] = a[self.cross_j, self.cross_k]
        out[self.linear_slice] = b
        return out

    def unpack(self, theta):
        """Inverse of pack: rebuild (interaction, linear)."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != self.q:
            raise DataError("parameter vector length does not match index map")
        k = self.p - 1
        a = np.zeros((k, k))
        a[np.arange(k), np.arange(k)] = theta[self.diag_slice]
        a[self.cross_j, self.cross_k] = theta[self.cross_slice]
        a[self.cross_k, self.cross_j] = theta[self.cross_slice]
        return a, theta[self.linear_slice].copy()

    def __repr__(self):
        return f"ParameterIndexMap(p={self.p}, q={self.q})"


@lru_cache(maxsize=None)
def index_map(p):
    """Cached ParameterIndexMap for p categories."""
    return ParameterIndexMap(p)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a compositional model.

    The density on the simplex is proportional to
    ``prod(u_j ** shape_j) * exp(u' A u + b' u)`` where the full (p, p)
    interaction matrix A has its last row and column fixed at zero and
    b_p = 0, so only the leading (p-1) block is stored.

    Parameters
    ----------
    family : str
        "hybrid", "truncated-gaussian" (shape = 0) or "dirichlet"
        (interaction = 0, linear = 0).
    p : int
        Number of categories.
    interaction : ndarray (p-1, p-1)
        Symmetric leading block of A.
    linear : ndarray (p-1,)
        Leading block of b.
    shape : ndarray (p,)
        Exponents, each > -1.
    estimate_interaction, estimate_linear : bool or bool array
        Which parameters a fit should estimate. Fits hold the rest at
        zero, not at the values stored here. Shape parameters are fixed
        for hybrid and truncated-Gaussian fits and estimated for
        Dirichlet fits.
    """

    family: str
    p: int
    interaction: np.ndarray = None
    linear: np.ndarray = None
    shape: np.ndarray = None
    estimate_interaction: object = True
    estimate_linear: object = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FamilyError(f"unknown family {self.family!r}")
        p = self.p
        if p < 2:
            raise DimensionError(f"need p >= 2, got {p}")
        k = p - 1
        try:
            a = np.zeros((k, k)) if self.interaction is None else np.array(
                self.interaction, dtype=float
            )
            b = np.zeros(k) if self.linear is None else np.array(self.linear, dtype=float)
            s = np.zeros(p) if self.shape is None else np.array(self.shape, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FamilyError(f"model parameters must be numbers ({exc})") from None
        if a.shape != (k, k):
            raise FamilyError(f"interaction must be ({k}, {k}), got {a.shape}")
        if b.shape != (k,):
            raise FamilyError(f"linear must have length {k}")
        if s.shape != (p,):
            raise FamilyError(f"shape must have length {p}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise FamilyError("interaction and linear entries must be finite")
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * scale:
            raise FamilyError("interaction matrix must be symmetric")
        a = 0.5 * (a + a.T)
        if not np.all((s > -1.0) & np.isfinite(s)):
            raise FamilyError("every shape parameter must be finite and exceed -1")
        if self.family == FAMILY_TRUNCATED_GAUSSIAN and np.any(s != 0.0):
            raise FamilyError("truncated-Gaussian family requires zero shapes")
        if self.family == FAMILY_DIRICHLET and (np.any(a != 0.0) or np.any(b != 0.0)):
            raise FamilyError("dirichlet family requires zero interaction and linear terms")
        for arr in (a, b, s):
            arr.flags.writeable = False
        object.__setattr__(self, "interaction", a)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "shape", s)

    def true_theta(self, imap=None):
        """Canonical parameter vector (for bias/RMSE bookkeeping)."""
        imap = imap or index_map(self.p)
        return imap.pack(self.interaction, self.linear)

    def estimation_mask(self, imap=None):
        """Boolean (q,) mask of estimated parameters."""
        imap = imap or index_map(self.p)
        mask = np.zeros(imap.q, dtype=bool)
        groups = (("estimate_interaction", slice(0, imap.linear_slice.start)),
                  ("estimate_linear", imap.linear_slice))
        for name, where in groups:
            flags = getattr(self, name)
            if not isinstance(flags, (bool, np.bool_)):
                flags = np.asarray(flags, dtype=bool).reshape(-1)
                if flags.shape[0] != where.stop - where.start:
                    raise FamilyError(f"{name} mask has wrong length")
            mask[where] = flags
        return mask
