"""Dataset containers, the square-root transform, the parameter index
map, and model specifications."""

import numpy as np
import pytest

from compscore.core import (
    ContinuousDataset,
    CountDataset,
    ModelSpec,
    ParameterIndexMap,
    counts_to_proportions,
    index_map,
    sqrt_transform,
)
from compscore.errors import DataError, DimensionError, FamilyError


def test_proportions_basic():
    u = np.array([[0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    data = ContinuousDataset(u)
    assert data.n == 2 and data.p == 3
    assert data.names == ["c1", "c2", "c3"]
    np.testing.assert_array_equal(data.proportions, u)
    # zeros are kept exact
    assert data.proportions[1, 0] == 0.0
    # rows are immutable
    with pytest.raises(ValueError):
        data.proportions[0, 0] = 1.0


def test_proportions_accepts_single_row():
    data = ContinuousDataset([0.5, 0.5])
    assert data.n == 1 and data.p == 2


def test_proportions_rejections():
    with pytest.raises(DimensionError):
        ContinuousDataset(np.ones((3, 1)))
    with pytest.raises(DataError, match="no rows"):
        ContinuousDataset(np.ones((0, 3)))
    with pytest.raises(DataError, match="NaN"):
        ContinuousDataset([[0.5, np.nan, 0.5]])
    with pytest.raises(DataError, match="negative"):
        ContinuousDataset([[0.6, -0.1, 0.5]])
    with pytest.raises(DataError, match="row 1 sums"):
        ContinuousDataset([[0.5, 0.5, 0.0], [0.5, 0.6, 0.0]])
    with pytest.raises(DataError, match="names length"):
        ContinuousDataset([[0.5, 0.5]], names=["a", "b", "c"])


def test_datasets_reject_repeated_names():
    with pytest.raises(DataError, match="category names repeat: b"):
        ContinuousDataset([[0.2, 0.3, 0.5]], names=["a", "b", "b"])
    with pytest.raises(DataError, match="category names repeat: a, b"):
        CountDataset([[1, 2, 3, 4]], names=["b", "a", "b", "a"])


def test_float_dust_tolerated():
    # tiny negatives from upstream subtraction clip to zero
    data = ContinuousDataset([[0.5, 0.5 + 1e-13, -1e-13]])
    assert data.proportions[0, 2] == 0.0
    # real negatives do not
    with pytest.raises(DataError):
        ContinuousDataset([[0.5, 0.5 + 1e-9, -1e-9]])


def test_renormalization_band():
    # within 1e-9: silent
    with np.errstate(all="raise"):
        ContinuousDataset([[0.5, 0.5 + 5e-10]])
    # between 1e-9 and 1e-6: renormalized with a warning
    with pytest.warns(UserWarning, match="renormalized 1 row"):
        data = ContinuousDataset([[0.25, 0.75 + 5e-8], [0.5, 0.5]])
    np.testing.assert_allclose(data.proportions.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_counts_basic():
    counts = CountDataset([[3, 0, 7], [1, 1, 8]])
    assert counts.n == 2 and counts.p == 3
    np.testing.assert_array_equal(counts.totals, [10, 10])
    counts2 = CountDataset([[3, 0, 7]], totals=[10], names=["x", "y", "z"])
    assert counts2.names == ["x", "y", "z"]
    with pytest.raises(ValueError):
        counts.counts[0, 0] = 5


def test_counts_accept_integral_floats():
    counts = CountDataset(np.array([[2.0, 3.0]]))
    assert counts.counts.dtype == np.int64
    with pytest.raises(DataError, match="integers"):
        CountDataset(np.array([[2.5, 3.5]]))
    with pytest.raises(DataError, match="64-bit integer"):
        CountDataset(np.array([[1e19, 1.0]]))


def test_counts_refuse_unsigned_values_past_int64():
    """An unsigned count above the int64 maximum is refused as too large,
    as a list or float count is, not wrapped to a negative count; smaller
    unsigned counts keep their values."""
    top = np.iinfo(np.int64).max
    for row in ([2**63, 1], [2**64 - 1, 0]):
        with pytest.raises(DataError, match="must fit in a 64-bit integer"):
            CountDataset(np.array([row], dtype=np.uint64))
    counts = CountDataset(np.array([[top, 0], [3, 4]], dtype=np.uint64))
    np.testing.assert_array_equal(counts.totals, [top, 7])
    assert counts.counts.dtype == np.int64


def test_counts_rejections():
    with pytest.raises(DataError, match="nonnegative"):
        CountDataset([[-1, 2]])
    with pytest.raises(DataError, match="does not equal row sum"):
        CountDataset([[3, 4]], totals=[8])
    with pytest.raises(DataError, match="totals length"):
        CountDataset([[3, 4]], totals=[7, 7])
    with pytest.raises(DataError, match="at least 1"):
        CountDataset([[0, 0]])
    # row sums past int64: one that wraps negative, one that wraps back
    # to a positive total
    big = 2**62
    for row in ([big, big], [big] * 5):
        with pytest.raises(DataError, match="row 1: counts sum past the 64-bit"):
            CountDataset([[1, 2] + [0] * (len(row) - 2), row])


def test_counts_to_proportions():
    counts = CountDataset([[2, 0, 8], [5, 5, 10]], names=["a", "b", "c"])
    data = counts_to_proportions(counts)
    assert data.names == ["a", "b", "c"]
    np.testing.assert_allclose(data.proportions[0], [0.2, 0.0, 0.8])
    assert data.proportions[0, 1] == 0.0


def test_sqrt_transform_unit_rows():
    rng = np.random.default_rng(7)
    u = rng.dirichlet(np.ones(4), size=50)
    z = sqrt_transform(ContinuousDataset(u))
    np.testing.assert_allclose((z**2).sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(z**2, u, atol=1e-15)
    # raw arrays go through the same validation
    z2 = sqrt_transform(u)
    np.testing.assert_array_equal(z, z2)


class TestParameterIndexMap:
    def test_sizes(self):
        for p in (2, 3, 5, 11):
            imap = index_map(p)
            k = p - 1
            assert imap.q == k + k * (k - 1) // 2 + k
            assert len(imap.labels) == imap.q

    def test_labels_p3(self):
        imap = index_map(3)
        assert imap.labels == ["a11", "a22", "a12", "b1", "b2"]
        assert imap.index("a12") == 2

    def test_labels_wide(self):
        # underscores keep two-digit levels unambiguous
        imap = index_map(12)
        assert imap.labels[0] == "a_1_1"
        assert "a_1_11" in imap.labels
        assert imap.labels[-1] == "b_11"

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(3)
        for p in (2, 4, 7):
            imap = ParameterIndexMap(p)
            k = p - 1
            a = rng.standard_normal((k, k))
            a = 0.5 * (a + a.T)
            b = rng.standard_normal(k)
            theta = imap.pack(a, b)
            a2, b2 = imap.unpack(theta)
            np.testing.assert_array_equal(a, a2)
            np.testing.assert_array_equal(b, b2)

    def test_cross_order(self):
        imap = index_map(4)
        pairs = list(zip(imap.cross_j, imap.cross_k))
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_shape_mismatches(self):
        imap = index_map(3)
        with pytest.raises(DataError):
            imap.pack(np.zeros((3, 3)), np.zeros(2))
        with pytest.raises(DataError):
            imap.unpack(np.zeros(imap.q + 1))
        with pytest.raises(DimensionError):
            ParameterIndexMap(1)

    def test_cached(self):
        assert index_map(5) is index_map(5)


class TestModelSpec:
    def test_defaults_and_freezing(self):
        spec = ModelSpec(family="hybrid", p=3)
        np.testing.assert_array_equal(spec.interaction, np.zeros((2, 2)))
        np.testing.assert_array_equal(spec.linear, np.zeros(2))
        np.testing.assert_array_equal(spec.shape, np.zeros(3))
        with pytest.raises(ValueError):
            spec.interaction[0, 0] = 1.0

    def test_symmetrization(self):
        a = np.array([[1.0, 2.0 + 1e-14], [2.0, -3.0]])
        spec = ModelSpec(family="hybrid", p=3, interaction=a)
        np.testing.assert_array_equal(spec.interaction, spec.interaction.T)
        with pytest.raises(FamilyError, match="symmetric"):
            ModelSpec(family="hybrid", p=3, interaction=[[1.0, 2.0], [2.5, 1.0]])

    def test_family_constraints(self):
        with pytest.raises(FamilyError, match="unknown family"):
            ModelSpec(family="gaussian", p=3)
        for shape in ([-1.0, 0.0, 0.0], [float("nan"), 0.0, 0.0], [float("inf"), 0.0, 0.0]):
            with pytest.raises(FamilyError, match="exceed -1"):
                ModelSpec(family="hybrid", p=3, shape=shape)
        with pytest.raises(FamilyError, match="must be numbers"):
            ModelSpec(family="hybrid", p=3, shape=["a", 0.0, 0.0])
        nan, inf = float("nan"), float("inf")
        for interaction, linear in (([[nan, 0.0], [0.0, -1.0]], None), (None, [inf, 0.0]),
                                    (None, [None, 0.0])):
            with pytest.raises(FamilyError, match="must be finite"):
                ModelSpec(family="hybrid", p=3, interaction=interaction, linear=linear)
        with pytest.raises(FamilyError, match="zero shapes"):
            ModelSpec(family="truncated-gaussian", p=3, shape=[0.5, 0.0, 0.0])
        with pytest.raises(FamilyError, match="zero interaction"):
            ModelSpec(family="dirichlet", p=3, interaction=np.eye(2))
        with pytest.raises(FamilyError, match="interaction must be"):
            ModelSpec(family="hybrid", p=4, interaction=np.eye(2))

    def test_true_theta_matches_pack(self):
        a = np.array([[-2.0, 0.5], [0.5, -1.0]])
        spec = ModelSpec(family="hybrid", p=3, interaction=a, linear=[1.0, -1.0])
        imap = index_map(3)
        np.testing.assert_array_equal(spec.true_theta(), imap.pack(a, [1.0, -1.0]))

    def test_estimation_mask(self):
        imap = index_map(3)
        spec = ModelSpec(family="hybrid", p=3, estimate_linear=False)
        mask = spec.estimation_mask(imap)
        np.testing.assert_array_equal(mask, [True, True, True, False, False])
        spec2 = ModelSpec(
            family="hybrid",
            p=3,
            estimate_interaction=[True, False, True],
            estimate_linear=[False, True],
        )
        np.testing.assert_array_equal(
            spec2.estimation_mask(imap), [True, False, True, False, True]
        )
        with pytest.raises(FamilyError, match="estimate_interaction mask has wrong length"):
            ModelSpec(
                family="hybrid", p=3, estimate_interaction=[True]
            ).estimation_mask(imap)
        with pytest.raises(FamilyError, match="estimate_linear mask has wrong length"):
            ModelSpec(family="hybrid", p=3, estimate_linear=[True]).estimation_mask(imap)
