"""The AR(1) filter loaded from scipy's compiled module, against ``lfilter``.

``repro.workload.patterns`` calls ``scipy.signal._sigtools._linear_filter``
by file instead of importing ``scipy.signal``.  These tests pin that the
direct call and every fallback produce ``scipy.signal.lfilter``'s output
bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import repro
from repro.workload import patterns

#: Finite float64 innovations to plant in a row, signed zeros included.
SPECIAL = st.sampled_from([0.0, -0.0]) | st.floats(
    allow_nan=False, allow_infinity=False, width=64)


@st.composite
def innovations(draw) -> np.ndarray:
    """A ``(rows, points)`` float64 array with drawn values planted."""
    rows = draw(st.integers(1, 40))
    points = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e150]))
    values = np.random.default_rng(seed).standard_normal((rows, points))
    values *= scale
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.integers(0, rows - 1))
        point = draw(st.integers(0, points - 1))
        values[row, point] = draw(SPECIAL)
    return values


RHO = st.floats(0.0, 1.0, exclude_max=True)


def _lfilter_ar1(values: np.ndarray, rho: float) -> np.ndarray:
    return lfilter([1.0], [1.0, -rho], values, axis=1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def fallback(tmp_path_factory):
    """The loader pointed at a directory with no ``_sigtools`` file."""
    empty = tmp_path_factory.mktemp("no_sigtools")
    return patterns._load_ar1_filter(str(empty))


class TestLoader:
    def test_default_path_is_direct(self):
        assert patterns._ar1_filter.__name__ == "sigtools_ar1"

    def test_missing_file_falls_back(self, tmp_path):
        assert patterns._load_ar1_filter(str(tmp_path)).__name__ \
            == "lfilter_ar1"

    def test_missing_symbol_falls_back(self, monkeypatch):
        monkeypatch.setattr(patterns, "_load_sigtools",
                            lambda _dir: types.ModuleType("_sigtools"))
        assert patterns._load_ar1_filter().__name__ == "lfilter_ar1"

    @pytest.mark.parametrize("linear_filter", [
        lambda b, a, x, axis: 1 / 0,
        lambda b, a, x, axis: np.zeros_like(x),
    ], ids=["raises", "wrong-answer"])
    def test_failed_probe_falls_back(self, monkeypatch, linear_filter):
        module = types.ModuleType("_sigtools")
        module._linear_filter = linear_filter
        monkeypatch.setattr(patterns, "_load_sigtools", lambda _dir: module)
        assert patterns._load_ar1_filter().__name__ == "lfilter_ar1"


class TestBitIdentity:
    @given(values=innovations(), rho=RHO)
    @settings(max_examples=60, deadline=None)
    def test_direct_matches_lfilter(self, values, rho):
        expected = _lfilter_ar1(values, rho)
        assert _same_bits(patterns._ar1_filter(values, rho), expected)

    @given(values=innovations(), rho=RHO)
    @settings(max_examples=20, deadline=None)
    def test_fallback_matches_lfilter(self, fallback, values, rho):
        expected = _lfilter_ar1(values, rho)
        assert _same_bits(fallback(values, rho), expected)

    @given(count=st.integers(1, 40), points=st.integers(1, 5000),
           rho=RHO, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_noise_batch_same_on_both_paths(self, fallback, count, points,
                                            rho, seed):
        direct = patterns.ar1_noise_batch(
            count, points, np.random.default_rng(seed), rho=rho)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(patterns, "_ar1_filter", fallback)
            public = patterns.ar1_noise_batch(
                count, points, np.random.default_rng(seed), rho=rho)
        assert _same_bits(direct, public)


_LATER_IMPORT = """
import sys
import numpy as np
from repro.workload import patterns
assert "scipy.signal" not in sys.modules
x = np.random.default_rng(7).standard_normal((300, 4000))
before = patterns._ar1_filter(x, 0.9)
import scipy.signal
after = patterns._ar1_filter(x, 0.9)
expected = scipy.signal.lfilter([1.0], [1.0, -0.9], x, axis=1)
print(before.tobytes() == expected.tobytes() == after.tobytes())
"""


def test_later_scipy_signal_import_agrees():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LATER_IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "True"
