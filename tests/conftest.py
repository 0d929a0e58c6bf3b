"""Shared fixtures: one smoke-scale study reused across the whole suite.

Generating platforms/traces/campaigns is the expensive part of testing
this library, so everything derived from the smoke scenario is
session-scoped and computed lazily through the EdgeStudy facade.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Scenario, study_for


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Keep the suite hermetic: never touch the user's ~/.cache/repro."""
    root = tmp_path_factory.mktemp("artifact-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield root
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def study():
    """The shared reduced-scale study."""
    return study_for("smoke")


@pytest.fixture(scope="session")
def faulty_study():
    """The shared reduced-scale study with the paper fault profile on."""
    return study_for("smoke", faults="paper")


@pytest.fixture(scope="session")
def scenario(study) -> Scenario:
    return study.scenario


@pytest.fixture(scope="session")
def nep_workload(study):
    return study.nep


@pytest.fixture(scope="session")
def nep_dataset(nep_workload):
    return nep_workload.dataset


@pytest.fixture(scope="session")
def nep_platform(nep_workload):
    return nep_workload.platform


@pytest.fixture(scope="session")
def azure_workload(study):
    return study.azure


@pytest.fixture(scope="session")
def azure_dataset(azure_workload):
    return azure_workload.dataset


@pytest.fixture(scope="session")
def latency_results(study):
    return study.latency_results


@pytest.fixture(scope="session")
def throughput_results(study):
    return study.throughput_results


@pytest.fixture(scope="session")
def per_user(study):
    return study.per_user


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)
