"""Every paper claim holds, and EXPERIMENTS.md is their current rendering."""

from __future__ import annotations

import functools

import pytest
from claims import CLAIMS, EXPERIMENTS, render, stale_message


@pytest.fixture(scope="session")
def outcome_of(study):
    """Claim id -> outcome, each computed once per session."""
    return functools.cache(lambda name: CLAIMS[name](study))


@pytest.mark.parametrize("name", CLAIMS)
def test_claim_holds(name, outcome_of):
    outcome = outcome_of(name)
    failed = [c.render() for c in outcome.checks if not c.holds]
    assert not failed, "\n".join([outcome.text, "", *failed])


def test_experiments_md_is_current(outcome_of):
    rendered = render({name: outcome_of(name) for name in CLAIMS})
    message = stale_message(rendered, EXPERIMENTS.read_text(encoding="utf-8"))
    assert message is None, message
