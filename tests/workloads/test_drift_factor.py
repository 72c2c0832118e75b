"""Drift-factor axis: endpoint bit-identity, Φ monotonicity, determinism.

The blend layer (:func:`blend_specs` / :class:`DriftFactor`) promises
three things the rest of the benchmark leans on:

1. At factor 0 / 1 the blend *is* the base / target object, so query
   streams are byte-identical to the unblended scenario in the driver,
   its streaming path and the scalar oracle.
2. The computed Φ between the blended stream and the target is monotone
   non-increasing in the factor (and exactly linear for the analytic
   estimator, because a mixture CDF is affine in the mixing weight).
3. A fixed ``(seed, factor)`` pair pins the stream bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference_driver import ScalarReferenceDriver

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.streaming import load_spilled_columns
from repro.data.datasets import build_dataset
from repro.errors import ConfigurationError, ScenarioError
from repro.metrics.similarity import (
    expected_spec_phi,
    realized_spec_phi,
    scenario_phi,
)
from repro.scenarios import drift_axis, drift_axis_reference, drift_axis_specs
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import (
    HotspotDistribution,
    UniformDistribution,
)
from repro.workloads.drift import DriftFactor, GradualDrift, NoDrift
from repro.workloads.generators import (
    KVOperation,
    KVWorkload,
    OperationMix,
    WorkloadSpec,
    blend_mixes,
    blend_specs,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")

factors = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
interior_factors = st.floats(
    min_value=0.01, max_value=0.99, allow_nan=False
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _base_spec() -> WorkloadSpec:
    return simple_spec(
        "pb-base",
        HotspotDistribution(0.0, 1000.0, 100.0, 100.0, 0.9),
        rate=400.0,
        read_fraction=1.0,
    )


def _target_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="pb-target",
        mix=OperationMix(
            {
                KVOperation.READ: 0.6,
                KVOperation.UPDATE: 0.25,
                KVOperation.INSERT: 0.1,
                KVOperation.SCAN: 0.05,
            }
        ),
        key_drift=NoDrift(
            HotspotDistribution(0.0, 1000.0, 800.0, 100.0, 0.9)
        ),
        arrivals=ConstantArrivals(400.0),
        scan_length_mean=8,
    )


def _batch(spec: WorkloadSpec, seed: int, n: int = 512):
    times = np.linspace(0.0, 1.0, n, endpoint=False)
    return KVWorkload(spec, seed=seed).next_batch(times)


def _assert_batches_equal(a, b):
    assert np.array_equal(a.ops, b.ops)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.scan_lengths, b.scan_lengths)
    assert np.array_equal(a.arrivals, b.arrivals)


class TestEndpointIdentity:
    """Factor 0 / 1 returns the original objects — streams byte-equal."""

    def test_blend_returns_base_object_at_zero(self):
        base, target = _base_spec(), _target_spec()
        assert blend_specs(base, target, 0.0) is base

    def test_blend_returns_target_object_at_one(self):
        base, target = _base_spec(), _target_spec()
        assert blend_specs(base, target, 1.0) is target

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_batched_stream_identical_at_endpoints(self, seed):
        base, target = _base_spec(), _target_spec()
        _assert_batches_equal(
            _batch(blend_specs(base, target, 0.0), seed), _batch(base, seed)
        )
        _assert_batches_equal(
            _batch(blend_specs(base, target, 1.0), seed),
            _batch(target, seed),
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_scalar_stream_identical_at_endpoints(self, seed):
        base, target = _base_spec(), _target_spec()
        for factor, reference in ((0.0, base), (1.0, target)):
            blended = blend_specs(base, target, factor)
            wl_a = KVWorkload(blended, seed=seed)
            wl_b = KVWorkload(reference, seed=seed)
            for i in range(64):
                t = i / 400.0
                qa, qb = wl_a.next_query(t), wl_b.next_query(t)
                assert (qa.op, qa.key, qa.scan_length) == (
                    qb.op,
                    qb.key,
                    qb.scan_length,
                )

    def test_drift_factor_endpoints_delegate(self, rng):
        lo = NoDrift(UniformDistribution(0.0, 1.0))
        hi = GradualDrift(
            UniformDistribution(0.0, 1.0),
            UniformDistribution(9.0, 10.0),
            start=0.0,
            duration=1.0,
        )
        times = np.linspace(0.0, 1.0, 256)
        for factor, reference in ((0.0, lo), (1.0, hi)):
            model = DriftFactor(lo, hi, factor)
            assert model.at(0.5).describe() == reference.at(0.5).describe()
            a = model.sample_at(np.random.default_rng(5), times)
            b = reference.sample_at(np.random.default_rng(5), times)
            assert np.array_equal(a, b)


class TestDriverPathEndpoints:
    """`drift_axis` at factor 0/1 matches the unblended reference
    scenario bit-for-bit in the scalar oracle, the batched driver, and
    the streaming path."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset("uniform", n=2000, seed=3)

    def _pair(self, dataset, factor, endpoint):
        kwargs = dict(rate=200.0, segment_duration=2.0, train_budget=1.0)
        return (
            drift_axis(dataset, factor=factor, **kwargs),
            drift_axis_reference(dataset, endpoint=endpoint, **kwargs),
        )

    @pytest.mark.parametrize("factor,endpoint", [(0.0, "base"), (1.0, "target")])
    @pytest.mark.parametrize("batching", [False, True])
    def test_scalar_and_batched_columns(self, dataset, factor, endpoint, batching):
        axis, reference = self._pair(dataset, factor, endpoint)
        driver_cls = VirtualClockDriver if batching else ScalarReferenceDriver
        run_a = driver_cls().run(TraditionalKVStore(), axis)
        run_b = driver_cls().run(TraditionalKVStore(), reference)
        for name in COLUMNS:
            assert np.array_equal(
                getattr(run_a.columns, name), getattr(run_b.columns, name)
            ), f"column {name!r} diverged at factor {factor}"
        assert run_a.columns.segment_vocab == run_b.columns.segment_vocab

    @pytest.mark.parametrize("factor,endpoint", [(0.0, "base"), (1.0, "target")])
    def test_streaming_columns(self, dataset, tmp_path, factor, endpoint):
        axis, reference = self._pair(dataset, factor, endpoint)
        spilled = {}
        for tag, scenario in (("axis", axis), ("ref", reference)):
            driver = VirtualClockDriver(DriverConfig(block_size=64))
            driver.run_streaming(
                TraditionalKVStore(),
                scenario,
                spill_dir=str(tmp_path / tag),
            )
            spilled[tag] = load_spilled_columns(str(tmp_path / tag))
        assert np.array_equal(spilled["axis"].arrivals, spilled["ref"].arrivals)
        assert np.array_equal(
            spilled["axis"].completions, spilled["ref"].completions
        )
        assert np.array_equal(spilled["axis"].op_codes, spilled["ref"].op_codes)


class TestPhiMonotone:
    """Φ to the target shrinks as the factor grows."""

    def test_analytic_phi_linear_in_factor(self):
        base, target = _base_spec(), _target_spec()
        full = expected_spec_phi(base, target)["phi"]
        assert full > 0.3
        for factor in (0.0, 0.25, 0.5, 0.75, 1.0):
            blended = blend_specs(base, target, factor)
            phi = expected_spec_phi(blended, target)["phi"]
            assert phi == pytest.approx((1.0 - factor) * full, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(
        f_lo=interior_factors,
        f_hi=interior_factors,
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_analytic_phi_monotone(self, f_lo, f_hi, seed):
        f_lo, f_hi = sorted((f_lo, f_hi))
        base, target = _base_spec(), _target_spec()
        phi_lo = expected_spec_phi(blend_specs(base, target, f_lo), target)
        phi_hi = expected_spec_phi(blend_specs(base, target, f_hi), target)
        assert phi_hi["phi"] <= phi_lo["phi"] + 1e-12

    def test_realized_phi_monotone_non_increasing(self):
        base, target = _base_spec(), _target_spec()
        phis = [
            realized_spec_phi(
                blend_specs(base, target, factor), target, n=2048, seed=11
            )["phi"]
            for factor in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        # Finite-sample noise stays well under the step between factors.
        assert all(b <= a + 0.02 for a, b in zip(phis, phis[1:]))
        assert phis[-1] == 0.0
        assert phis[0] > 0.3

    def test_scenario_phi_uses_first_and_last_segments(self):
        dataset = build_dataset("uniform", n=2000, seed=3)
        at_zero = scenario_phi(
            drift_axis(dataset, factor=0.0, rate=200.0, segment_duration=2.0),
            n=1024,
        )
        at_one = scenario_phi(
            drift_axis(dataset, factor=1.0, rate=200.0, segment_duration=2.0),
            n=1024,
        )
        assert at_one["phi"] > at_zero["phi"]
        assert at_zero["phi"] == 0.0


class TestDeterminism:
    """Fixed (seed, factor) pins the stream bit-for-bit."""

    @settings(max_examples=20, deadline=None)
    @given(factor=factors, seed=seeds)
    def test_same_seed_same_stream(self, factor, seed):
        base, target = _base_spec(), _target_spec()
        spec = blend_specs(base, target, factor)
        _assert_batches_equal(_batch(spec, seed), _batch(spec, seed))

    @settings(max_examples=10, deadline=None)
    @given(factor=interior_factors, seed=st.integers(0, 1000))
    def test_rebuilt_blend_is_equivalent(self, factor, seed):
        """Blending twice from scratch yields the same stream — the
        blend carries no hidden mutable state."""
        a = blend_specs(_base_spec(), _target_spec(), factor)
        b = blend_specs(_base_spec(), _target_spec(), factor)
        _assert_batches_equal(_batch(a, seed), _batch(b, seed))

    def test_driver_paths_agree_at_interior_factor(self, tmp_path):
        dataset = build_dataset("uniform", n=2000, seed=3)
        scenario = drift_axis(
            dataset, factor=0.5, rate=200.0, segment_duration=2.0,
            train_budget=1.0,
        )
        scalar = ScalarReferenceDriver().run(TraditionalKVStore(), scenario)
        batched = VirtualClockDriver().run(
            TraditionalKVStore(), scenario
        )
        for name in COLUMNS:
            assert np.array_equal(
                getattr(scalar.columns, name), getattr(batched.columns, name)
            ), f"column {name!r} diverged between scalar and batched"
        driver = VirtualClockDriver(DriverConfig(block_size=64))
        driver.run_streaming(
            TraditionalKVStore(), scenario, spill_dir=str(tmp_path / "s")
        )
        spilled = load_spilled_columns(str(tmp_path / "s"))
        assert np.array_equal(spilled.arrivals, scalar.columns.arrivals)
        assert np.array_equal(spilled.completions, scalar.columns.completions)


class TestValidation:
    def test_blend_mixes_rejects_out_of_range(self):
        mix = OperationMix({KVOperation.READ: 1.0})
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigurationError):
                blend_mixes(mix, mix, bad)

    def test_blend_specs_rejects_out_of_range(self):
        base, target = _base_spec(), _target_spec()
        with pytest.raises(ConfigurationError):
            blend_specs(base, target, 1.5)

    def test_drift_factor_rejects_out_of_range(self):
        model = NoDrift(UniformDistribution(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            DriftFactor(model, model, -0.01)

    def test_axis_builder_rejects_out_of_range(self):
        dataset = build_dataset("uniform", n=500, seed=1)
        with pytest.raises(ConfigurationError):
            drift_axis(dataset, factor=2.0, rate=100.0, segment_duration=1.0)

    def test_scenario_field_rejects_out_of_range(self):
        from repro.core.phases import TrainingPhase
        from repro.core.scenario import Scenario, Segment

        spec = _base_spec()
        with pytest.raises(ScenarioError):
            Scenario(
                name="bad",
                segments=[Segment(spec=spec, duration=1.0)],
                initial_training=TrainingPhase(budget_seconds=0.1),
                seed=1,
                drift_factor=1.5,
            )

    def test_reference_rejects_unknown_endpoint(self):
        dataset = build_dataset("uniform", n=500, seed=1)
        with pytest.raises(ValueError):
            drift_axis_reference(dataset, endpoint="middle")

    def test_blended_mix_interpolates_proportions(self):
        base, target = _base_spec(), _target_spec()
        blended = blend_mixes(base.mix_at(0.0), target.mix_at(0.0), 0.5)
        props = blended.proportions()
        assert props[KVOperation.READ] == pytest.approx(0.8)
        assert props[KVOperation.UPDATE] == pytest.approx(0.125)

    def test_blend_schedules_none_without_schedules(self):
        from repro.workloads.generators import blend_schedules

        assert blend_schedules(_base_spec(), _target_spec(), 0.5) is None

    def test_blend_specs_blends_mix_schedules(self):
        from repro.workloads.generators import MixSchedule, blend_schedules

        read = OperationMix({KVOperation.READ: 1.0})
        update = OperationMix({KVOperation.UPDATE: 1.0})
        base = _base_spec()
        base.mix_schedule = MixSchedule([(0.0, read), (2.0, update)])
        target = _target_spec()
        schedule = blend_schedules(base, target, 0.5)
        assert [start for start, _ in schedule.segments] == [0.0, 2.0]
        # Before 2.0: 50/50 of pure-read and the target's 60% reads.
        early = schedule.at(0.0).proportions()
        assert early[KVOperation.READ] == pytest.approx(0.8)
        # After 2.0: the base side flips to pure updates.
        late = schedule.at(2.0).proportions()
        assert late[KVOperation.UPDATE] == pytest.approx(0.625)
        blended = blend_specs(base, target, 0.5)
        assert blended.mix_schedule is not None
        _assert_batches_equal(_batch(blended, 7), _batch(blended, 7))

    def test_specs_helper_matches_axis_segments(self):
        dataset = build_dataset("uniform", n=500, seed=1)
        base, target = drift_axis_specs(dataset, rate=100.0)
        scenario = drift_axis(
            dataset, factor=0.3, rate=100.0, segment_duration=1.0
        )
        assert scenario.segments[0].spec.describe() == base.describe()
        assert scenario.drift_factor == pytest.approx(0.3)
