"""Φ estimators: Jaccard, KS, MMD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.similarity import (
    data_phi,
    jaccard_similarity,
    ks_statistic,
    mmd_rbf,
    workload_phi,
)
from repro.workloads.distributions import UniformDistribution, ZipfDistribution
from repro.workloads.generators import simple_spec


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    def test_partial(self):
        assert jaccard_similarity({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_empty_sets(self):
        assert jaccard_similarity(set(), set()) == 1.0
        assert jaccard_similarity({1}, set()) == 0.0

    @given(
        st.sets(st.integers(), max_size=30),
        st.sets(st.integers(), max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        value = jaccard_similarity(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard_similarity(b, a)


class TestKS:
    def test_identical_samples_zero(self, rng):
        sample = rng.uniform(0, 1, 500)
        assert ks_statistic(sample, sample) == 0.0

    def test_same_distribution_small(self, rng):
        a = rng.uniform(0, 1, 3000)
        b = rng.uniform(0, 1, 3000)
        assert ks_statistic(a, b) < 0.06

    def test_disjoint_distributions_one(self, rng):
        a = rng.uniform(0, 1, 500)
        b = rng.uniform(10, 11, 500)
        assert ks_statistic(a, b) == pytest.approx(1.0)

    def test_monotone_in_shift(self, rng):
        base = rng.normal(0, 1, 2000)
        small = ks_statistic(base, rng.normal(0.3, 1, 2000))
        large = ks_statistic(base, rng.normal(2.0, 1, 2000))
        assert small < large

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ks_statistic([], [1.0])

    def test_symmetry(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(1, 2, 700)
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_any_iterable_reads_like_its_array(self, rng):
        """Arrays are read as they are, and left unsorted; lists, tuples,
        generators and float32 arrays give the statistic of their float64
        arrays."""
        a = rng.normal(0, 1, 300)
        b = rng.normal(0.5, 1, 200).astype(np.float32)
        a_before, b_before = a.copy(), b.copy()
        want = ks_statistic(a, b.astype(np.float64))
        assert ks_statistic(a, b) == want
        assert ks_statistic(a.tolist(), b) == want
        assert ks_statistic(tuple(a), (float(x) for x in b)) == want
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


class TestMMD:
    def test_same_distribution_near_zero(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(0, 1, 500)
        assert mmd_rbf(a, b) < 0.01

    def test_different_distributions_positive(self, rng):
        a = rng.normal(0, 1, 500)
        b = rng.normal(5, 1, 500)
        assert mmd_rbf(a, b) > 0.1

    def test_monotone_in_separation(self, rng):
        base = rng.normal(0, 1, 400)
        near = mmd_rbf(base, rng.normal(0.5, 1, 400))
        far = mmd_rbf(base, rng.normal(3.0, 1, 400))
        assert near < far

    def test_subsampling_for_large_inputs(self, rng):
        a = rng.normal(0, 1, 5000)
        b = rng.normal(0, 1, 5000)
        value = mmd_rbf(a, b, max_points=200)
        assert value < 0.05

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            mmd_rbf([1.0], [1.0, 2.0])


class TestPhiHelpers:
    def test_workload_phi_zero_for_identical(self):
        a = simple_spec("a", UniformDistribution(0, 1))
        b = simple_spec("b", UniformDistribution(0, 1))
        assert workload_phi(a, b) == 0.0

    def test_workload_phi_positive_for_different(self):
        a = simple_spec("a", UniformDistribution(0, 1), read_fraction=1.0)
        b = simple_spec(
            "b", ZipfDistribution(0, 1, n_items=10), read_fraction=0.5
        )
        assert workload_phi(a, b) > 0.0

    def test_data_phi_methods(self, rng):
        a = rng.uniform(0, 1, 500)
        b = rng.uniform(5, 6, 500)
        assert data_phi(a, b, method="ks") == pytest.approx(1.0)
        assert 0.0 < data_phi(a, b, method="mmd") < 1.0
        with pytest.raises(ConfigurationError):
            data_phi(a, b, method="wasserstein")
