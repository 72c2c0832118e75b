"""Scenario serialization round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    abrupt_shift,
    bursty_diurnal,
    gradual_shift,
    specialization_ladder,
)
from repro.serialization import (
    arrivals_from_dict,
    distribution_from_dict,
    drift_from_dict,
    mix_from_dict,
    scenario_from_dict,
    scenario_to_dict,
    spec_from_dict,
)
from repro.workloads.distributions import (
    HotspotDistribution,
    MixtureDistribution,
    NormalDistribution,
    PiecewiseDistribution,
    UniformDistribution,
    ZipfDistribution,
)
from repro.workloads.drift import (
    AbruptDrift,
    GradualDrift,
    GrowingSkewDrift,
    NoDrift,
    RotatingHotspotDrift,
)
from repro.workloads.generators import KVOperation, OperationMix
from repro.workloads.patterns import (
    BurstyArrivals,
    CompositeArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    RampArrivals,
)

ALL_DISTRIBUTIONS = [
    UniformDistribution(0, 100),
    ZipfDistribution(0, 100, theta=0.9, n_items=50),
    NormalDistribution(0, 100, mean=50, std=10),
    HotspotDistribution(0, 100, hot_start=10, hot_width=5, hot_fraction=0.8),
    PiecewiseDistribution(0, 100, [1, 2, 3]),
    MixtureDistribution(
        [UniformDistribution(0, 50), UniformDistribution(50, 100)], [1, 2]
    ),
]


class TestDistributionRoundTrip:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.name)
    def test_round_trip_preserves_cdf(self, dist, rng):
        clone = distribution_from_dict(json.loads(json.dumps(dist.describe())))
        grid = np.linspace(dist.low, dist.high, 50)
        assert np.allclose(clone.cdf(grid), dist.cdf(grid), atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            distribution_from_dict({"kind": "nope"})


class TestDriftRoundTrip:
    DRIFTS = [
        NoDrift(UniformDistribution(0, 1)),
        AbruptDrift(
            [UniformDistribution(0, 1), UniformDistribution(1, 2)], [5.0]
        ),
        GradualDrift(UniformDistribution(0, 1), UniformDistribution(1, 2),
                     start=2.0, duration=3.0),
        RotatingHotspotDrift(0, 100, hot_width=5, period=60),
        GrowingSkewDrift(0, 100, theta_start=0.1, theta_end=1.0, duration=60),
    ]

    @pytest.mark.parametrize("drift", DRIFTS, ids=lambda d: type(d).__name__)
    def test_round_trip_same_distribution_at_times(self, drift, rng):
        clone = drift_from_dict(json.loads(json.dumps(drift.describe())))
        for t in (0.0, 2.5, 10.0, 100.0):
            original = drift.at(t).describe()
            rebuilt = clone.at(t).describe()
            assert original.get("kind") == rebuilt.get("kind")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            drift_from_dict({"kind": "nope"})


class TestArrivalsRoundTrip:
    PROCESSES = [
        ConstantArrivals(10.0),
        DiurnalArrivals(10.0, amplitude=0.5, period=100.0),
        BurstyArrivals(10.0, [(5.0, 2.0, 3.0)]),
        RampArrivals(0.0, 10.0, 20.0),
        CompositeArrivals([(0.0, ConstantArrivals(5.0)),
                           (10.0, ConstantArrivals(20.0))]),
    ]

    @pytest.mark.parametrize("process", PROCESSES,
                             ids=lambda p: type(p).__name__)
    def test_round_trip_same_rate_function(self, process):
        clone = arrivals_from_dict(json.loads(json.dumps(process.describe())))
        for t in np.linspace(0, 50, 20):
            assert clone.rate(float(t)) == pytest.approx(process.rate(float(t)))


class TestMixAndSpec:
    def test_mix_round_trip(self):
        mix = OperationMix(
            {KVOperation.READ: 0.7, KVOperation.SCAN: 0.2, KVOperation.INSERT: 0.1}
        )
        clone = mix_from_dict(mix.describe())
        assert clone.proportions() == pytest.approx(mix.proportions())

    def test_spec_round_trip_signature(self):
        from repro.workloads.generators import simple_spec

        spec = simple_spec("w", ZipfDistribution(0, 100, n_items=20), rate=5.0,
                           read_fraction=0.8)
        clone = spec_from_dict(json.loads(json.dumps(spec.describe())))
        assert clone.signature() == spec.signature()


class TestScenarioRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda ds: abrupt_shift(ds, rate=20.0, segment_duration=3.0),
            lambda ds: gradual_shift(ds, rate=20.0, total_duration=6.0),
            lambda ds: specialization_ladder(ds, rate=20.0, segment_duration=2.0)[0],
            lambda ds: bursty_diurnal(ds, base_rate=20.0, duration=6.0),
        ],
        ids=["abrupt", "gradual", "ladder", "bursty"],
    )
    def test_fingerprint_preserved(self, builder, tiny_dataset):
        scenario = builder(tiny_dataset)
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        clone = scenario_from_dict(payload, initial_keys=tiny_dataset.keys)
        assert clone.fingerprint() == scenario.fingerprint()

    def test_round_trip_runs_identically(self, tiny_dataset):
        from repro.core.benchmark import Benchmark
        from repro.suts.kv_traditional import TraditionalKVStore

        scenario = abrupt_shift(tiny_dataset, rate=50.0, segment_duration=3.0)
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        clone = scenario_from_dict(payload, initial_keys=tiny_dataset.keys)
        bench = Benchmark()
        a = bench.run(TraditionalKVStore(), scenario)
        b = bench.run(TraditionalKVStore(), clone)
        assert a.columns.completions.tolist() == b.columns.completions.tolist()

    def test_missing_injection_rejected(self, tiny_dataset):
        from repro.core.scenario import Segment
        from repro.core.scenario import Scenario
        from repro.workloads.generators import simple_spec
        from repro.workloads.distributions import UniformDistribution

        scenario = Scenario(
            name="inj",
            segments=[
                Segment(
                    spec=simple_spec("w", UniformDistribution(0, 1), rate=5.0),
                    duration=2.0,
                    data_injection=np.asarray([1.0, 2.0]),
                )
            ],
            seed=1,
        )
        payload = scenario_to_dict(scenario)
        with pytest.raises(ConfigurationError):
            scenario_from_dict(payload)
        clone = scenario_from_dict(
            payload, data_injections={"w": np.asarray([1.0, 2.0])}
        )
        assert clone.segments[0].data_injection is not None


class TestDriftFactorRoundTrip:
    def _model(self, factor=0.25):
        from repro.workloads.drift import DriftFactor

        return DriftFactor(
            NoDrift(UniformDistribution(0, 1)),
            GradualDrift(UniformDistribution(0, 1), UniformDistribution(5, 6),
                         start=0.0, duration=4.0),
            factor,
        )

    def test_round_trip_preserves_structure_and_factor(self):
        model = self._model(0.25)
        clone = drift_from_dict(json.loads(json.dumps(model.describe())))
        assert clone.factor == 0.25
        assert clone.describe() == model.describe()

    def test_round_trip_samples_identically(self, rng):
        model = self._model(0.4)
        clone = drift_from_dict(json.loads(json.dumps(model.describe())))
        times = np.linspace(0.0, 4.0, 200)
        a = model.sample_at(np.random.default_rng(9), times)
        b = clone.sample_at(np.random.default_rng(9), times)
        assert np.array_equal(a, b)

    def test_scenario_with_drift_factor_round_trips(self, tiny_dataset):
        from repro.scenarios import drift_axis

        scenario = drift_axis(tiny_dataset, factor=0.25, rate=20.0,
                              segment_duration=2.0)
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        clone = scenario_from_dict(payload, initial_keys=tiny_dataset.keys)
        assert clone.drift_factor == 0.25
        assert clone.fingerprint() == scenario.fingerprint()

    def test_scenario_without_field_stays_unset(self, tiny_dataset):
        scenario = abrupt_shift(tiny_dataset, rate=20.0, segment_duration=3.0)
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert "drift_factor" not in payload
        clone = scenario_from_dict(payload, initial_keys=tiny_dataset.keys)
        assert clone.drift_factor is None
