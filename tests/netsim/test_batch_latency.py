"""Tests for the vectorized batch sampling engine."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.geo.coords import GeoPoint
from repro.netsim.access import AccessType
from repro.netsim.latency import MIN_HOP_MS, LatencyModel
from repro.netsim.path import Hop, HopKind, Route
from repro.netsim.routing import TargetSiteSpec, UESpec, build_route

BEIJING = GeoPoint(39.90, 116.40)
NEARBY = GeoPoint(39.95, 116.50)
GUANGZHOU = GeoPoint(23.13, 113.26)


@pytest.fixture()
def edge_route(rng):
    return build_route(UESpec("u", BEIJING, AccessType.WIFI),
                       TargetSiteSpec("e", NEARBY, True), rng)


@pytest.fixture()
def cloud_route(rng):
    return build_route(UESpec("u", BEIJING, AccessType.LTE),
                       TargetSiteSpec("c", GUANGZHOU, False), rng)


class TestSampleMatrix:
    def test_shape(self, rng, edge_route):
        matrix = LatencyModel(rng).sample_matrix(edge_route, 30)
        assert matrix.shape == (30, edge_route.hop_count)

    def test_count_one(self, rng, edge_route):
        matrix = LatencyModel(rng).sample_matrix(edge_route, 1)
        assert matrix.shape == (1, edge_route.hop_count)

    def test_single_hop_route(self, rng):
        route = Route("a", "b",
                      (Hop("only", HopKind.DC, 1.0, 0.1),), 1.0)
        matrix = LatencyModel(rng).sample_matrix(route, 10)
        assert matrix.shape == (10, 1)
        assert (matrix >= MIN_HOP_MS).all()

    def test_floor_applied(self, rng):
        # A zero-mean, zero-jitter hop draws the floor except on the rare
        # congestion spike (ACCESS spike probability is 0.2%).
        route = Route("a", "b",
                      (Hop("z", HopKind.ACCESS, 0.0, 0.0),), 1.0)
        matrix = LatencyModel(rng).sample_matrix(route, 200)
        assert (matrix >= MIN_HOP_MS).all()
        assert np.median(matrix) == MIN_HOP_MS

    def test_zero_count_rejected(self, rng, edge_route):
        with pytest.raises(MeasurementError):
            LatencyModel(rng).sample_matrix(edge_route, 0)

    def test_negative_count_rejected(self, rng, edge_route):
        with pytest.raises(MeasurementError):
            LatencyModel(rng).sample_matrix(edge_route, -3)


class TestDeterminism:
    def test_same_seed_same_matrix(self, edge_route):
        draws = [
            LatencyModel(np.random.default_rng(7)).sample_matrix(
                edge_route, 40)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_same_seed_same_batch(self, edge_route, cloud_route):
        routes = [edge_route, cloud_route]
        batches = [
            LatencyModel(np.random.default_rng(11)).sample_routes_block(
                routes, 25)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(batches[0][0], batches[1][0])
        np.testing.assert_array_equal(batches[0][1], batches[1][1])

    def test_different_seeds_differ(self, edge_route):
        a = LatencyModel(np.random.default_rng(1)).sample_matrix(
            edge_route, 40)
        b = LatencyModel(np.random.default_rng(2)).sample_matrix(
            edge_route, 40)
        assert not np.array_equal(a, b)


class TestBatchScalarEquivalence:
    def test_mean_agrees_with_scalar_path(self, edge_route):
        """Batch and scalar draws share the per-cell distributions."""
        scalar_model = LatencyModel(np.random.default_rng(3))
        scalar = np.array([scalar_model.sample(edge_route).total_ms
                           for _ in range(4000)])
        batch = LatencyModel(np.random.default_rng(4)).sample_matrix(
            edge_route, 4000).sum(axis=1)
        assert batch.mean() == pytest.approx(scalar.mean(), rel=0.02)

    def test_mean_matches_route_expectation(self, cloud_route):
        samples = LatencyModel(np.random.default_rng(5)).sample_many(
            cloud_route, 6000)
        # Spikes push the sample mean slightly above the noise-free mean.
        assert samples.mean() >= cloud_route.mean_rtt_ms * 0.98
        assert samples.mean() <= cloud_route.mean_rtt_ms * 1.25

    def test_mean_and_cv_consistent(self, edge_route):
        mean, cv = LatencyModel(np.random.default_rng(6)).mean_and_cv(
            edge_route, 5000)
        assert mean > 0
        assert 0 < cv < 1


class TestRouteBatch:
    def test_split_matches_block(self, edge_route, cloud_route):
        routes = [edge_route, cloud_route, edge_route]
        block, starts = LatencyModel(
            np.random.default_rng(8)).sample_routes_block(routes, 12)
        assert block.shape == (12, sum(r.hop_count for r in routes))
        assert starts.tolist() == [0, edge_route.hop_count,
                                   edge_route.hop_count
                                   + cloud_route.hop_count]
        # Splitting at ``starts`` gives each route its own hop columns,
        # and ``reduceat`` sums them without the split.
        split = np.split(block, starts[1:], axis=1)
        assert [m.shape for m in split] == [(12, r.hop_count)
                                            for r in routes]
        np.testing.assert_allclose(
            np.add.reduceat(block, starts, axis=1),
            np.stack([m.sum(axis=1) for m in split], axis=1))

    def test_empty_routes(self, rng):
        block, starts = LatencyModel(rng).sample_routes_block([], 5)
        assert block.shape == (5, 0)
        assert starts.size == 0

    def test_zero_count_rejected(self, rng, edge_route):
        with pytest.raises(MeasurementError):
            LatencyModel(rng).sample_routes_block([edge_route], 0)
