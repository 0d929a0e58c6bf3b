"""Differential tests: the buffered LRU solve against the plain Newton loop.

``_reference_curve`` is the Che solve written with a fresh temporary per
operation, exactly as the solver read before it reused its per-block
buffers.  The buffered solver, which sweeps each block in
:data:`SOLVER_SLICE_ROWS`-row slices, must agree with it bit for bit on
both sides of every :data:`SOLVER_SITE_BLOCK` and slice boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn import lru_hit_ratio_curve
from repro.cdn.model import (
    SOLVER_ITERATIONS,
    SOLVER_SITE_BLOCK,
    SOLVER_SLICE_ROWS,
)


def _reference_curve(alphas, catalog, capacity):
    alphas = np.asarray(alphas, dtype=np.float64)
    if capacity >= catalog:
        return np.ones_like(alphas)
    ranks = np.arange(1, catalog + 1, dtype=np.float64)
    out = np.empty(alphas.size, dtype=np.float64)
    for start in range(0, alphas.size, SOLVER_SITE_BLOCK):
        block = alphas[start:start + SOLVER_SITE_BLOCK]
        weights = ranks[None, :] ** -block[:, None]
        weights /= weights.sum(axis=1, keepdims=True)
        x = np.full(block.size, float(capacity))
        for _ in range(SOLVER_ITERATIONS):
            decay = np.exp(-weights * x[:, None])
            filled = np.sum(1.0 - decay, axis=1)
            slope = np.sum(weights * decay, axis=1)
            step = (capacity - filled) / slope
            x = x + step
            if float(np.max(np.abs(step))) <= 1e-12 * float(np.min(x)):
                break
        hits = 1.0 - np.exp(-weights * x[:, None])
        out[start:start + SOLVER_SITE_BLOCK] = np.sum(weights * hits,
                                                      axis=1)
    return out


#: One site, both sides of one block boundary, and two full blocks plus
#: a partial third (1, 255, 256, 257 and 520 sites at a 256-site block);
#: then both sides of one row slice, and a block plus a partial slice
#: (3, 4, 5 and 259 sites at a 4-row slice).
SITE_COUNTS = [1, SOLVER_SITE_BLOCK - 1, SOLVER_SITE_BLOCK,
               SOLVER_SITE_BLOCK + 1, 2 * SOLVER_SITE_BLOCK + 8,
               SOLVER_SLICE_ROWS - 1, SOLVER_SLICE_ROWS,
               SOLVER_SLICE_ROWS + 1,
               SOLVER_SITE_BLOCK + SOLVER_SLICE_ROWS - 1]


class TestBufferedSolve:
    @settings(max_examples=25, deadline=None)
    @given(sites=st.sampled_from(SITE_COUNTS),
           catalog=st.integers(1, 1500),
           fill=st.floats(0.001, 0.999),
           seed=st.integers(0, 2**16))
    def test_bit_equal_to_reference(self, sites, catalog, fill, seed):
        alphas = np.random.default_rng(seed).uniform(0.3, 1.6, sites)
        capacity = fill * catalog
        got = lru_hit_ratio_curve(alphas, catalog, capacity)
        assert got.tobytes() == _reference_curve(alphas, catalog,
                                                 capacity).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(sites=st.sampled_from(SITE_COUNTS),
           catalog=st.integers(1, 200),
           over=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**16))
    def test_capacity_at_or_above_catalog(self, sites, catalog, over, seed):
        alphas = np.random.default_rng(seed).uniform(0.3, 1.6, sites)
        capacity = catalog * (1.0 + over)
        got = lru_hit_ratio_curve(alphas, catalog, capacity)
        assert got.tobytes() == _reference_curve(alphas, catalog,
                                                 capacity).tobytes()
        assert np.all(got == 1.0)

    @pytest.mark.parametrize("sites", SITE_COUNTS)
    def test_every_site_count(self, sites):
        alphas = np.random.default_rng(sites).uniform(0.3, 1.6, sites)
        got = lru_hit_ratio_curve(alphas, 700, 35.0)
        assert got.tobytes() == _reference_curve(alphas, 700,
                                                 35.0).tobytes()

    def test_scenario_sized_catalog(self):
        # The default scenario's catalog and cache size, over two blocks.
        alphas = np.random.default_rng(7).uniform(0.6, 1.0,
                                                  SOLVER_SITE_BLOCK + 1)
        got = lru_hit_ratio_curve(alphas, 20_000, 128.0)
        assert got.tobytes() == _reference_curve(alphas, 20_000,
                                                 128.0).tobytes()
