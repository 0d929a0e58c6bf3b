"""Deterministic failpoints: named fault-injection sites for chaos runs.

The paper's core finding is that edge infrastructure fails far more
often than cloud — and a harness that reproduces it must itself survive
torn cache writes, dying workers, and hung jobs.  This module provides
the *injection* half of that story: a registry of named **sites** wired
into the I/O and pool boundaries (cache commit/read, shard write/read,
series rendering, sweep cells, worker kills).  Each instrumented code path calls :func:`failpoint` with its
site name; when a configured rule fires, the call raises
:class:`~repro.errors.InjectedFault` (or, for supervisor-side sites,
:func:`fire` returns ``True`` and the supervisor kills a worker).

Spec grammar
------------

A failpoint spec is a ``;``-separated list of site rules::

    site ':' param (',' param)*

with parameters

* ``nth=N`` — fire on the Nth hit of the site (1-based, per process);
* ``p=F`` — else fire each hit with probability ``F``, drawn from a
  dedicated deterministic stream (seeded, so a given spec always fires
  on the same hit sequence);
* ``times=M`` — stop firing after M firings (default: 1 for ``nth``
  rules, unlimited for ``p`` rules);
* ``seed=S`` — the stream seed for ``p`` rules (default 0).

Example: ``cache.commit:p=0.05,seed=11;pool.kill_worker:nth=2,times=1``
fails ~5% of cache commit attempts and kills the worker holding the
second dispatched task, once.

Activation
----------

The active registry comes from the ``REPRO_FAILPOINTS`` environment
variable (re-read whenever its value changes, so tests and forked
workers see a consistent view) or an explicit :func:`install` — the
CLI's ``--chaos PROFILE`` installs one of :data:`CHAOS_PROFILES` and
exports the env var so forked sweep cells inherit it.  Hit counters are
per-process; forked children start from the parent's counts at fork
time, which keeps a chaos run deterministic for a fixed topology.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

from ..errors import ConfigurationError, InjectedFault

#: Environment variable holding the active failpoint spec.
FAILPOINTS_ENV = "REPRO_FAILPOINTS"

#: Every instrumented site.  Specs naming anything else are rejected —
#: a typo'd site would otherwise silently never fire.
SITES = frozenset({
    "cache.commit",       # ArtifactCache entry write (staging -> rename)
    "cache.read",         # ArtifactCache entry load
    "shard.write",        # a series task writing its rows into one shard
    "shard.read",         # shard header/size verification at load
    "series.render",      # one series job render (worker or serial)
    "sweep.cell",         # one sweep cell execution
    "pool.kill_worker",   # supervisor-side: SIGKILL the dispatched worker
    "qoe.chunk",          # one vectorized session-chunk simulation
    "live.tick",          # one live-engine tick step (probed pre-mutation)
})

#: Named chaos profiles behind ``--chaos PROFILE``.  ``ci`` is the CI
#: chaos gate: ~5% cache-write failures plus one injected worker death,
#: recoverable well inside the default retry budgets.
CHAOS_PROFILES = {
    "ci": ("cache.commit:p=0.05,seed=11;pool.kill_worker:nth=2,times=1;"
           "qoe.chunk:p=0.05,seed=14;live.tick:p=0.02,seed=15"),
    "cache": "cache.commit:p=0.2,seed=7;cache.read:p=0.05,seed=8",
    "pool": "series.render:p=0.05,seed=9;pool.kill_worker:nth=3,times=1",
    "harsh": ("cache.commit:p=0.1,seed=11;shard.write:p=0.02,seed=12;"
              "series.render:p=0.05,seed=13;qoe.chunk:p=0.05,seed=14;"
              "pool.kill_worker:nth=2,times=2;live.tick:p=0.05,seed=15"),
}


@dataclass(frozen=True)
class FailpointRule:
    """One parsed site rule: when (and how often) the site fires."""

    site: str
    nth: int | None = None
    p: float | None = None
    times: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown failpoint site {self.site!r}; expected one of "
                f"{', '.join(sorted(SITES))}")
        if (self.nth is None) == (self.p is None):
            raise ConfigurationError(
                f"failpoint {self.site}: exactly one of nth=/p= required")
        if self.nth is not None and self.nth < 1:
            raise ConfigurationError(
                f"failpoint {self.site}: nth must be >= 1, got {self.nth}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ConfigurationError(
                f"failpoint {self.site}: p must be in (0, 1], got {self.p}")
        if self.times is not None and self.times < 1:
            raise ConfigurationError(
                f"failpoint {self.site}: times must be >= 1, "
                f"got {self.times}")

    @property
    def max_fires(self) -> int | None:
        """Firing budget: explicit ``times``, else 1 for nth, unlimited."""
        if self.times is not None:
            return self.times
        return 1 if self.nth is not None else None


def _hit_uniform(seed: int, site: str, hit: int) -> float:
    """A deterministic uniform in [0, 1) for one (seed, site, hit)."""
    digest = hashlib.sha256(
        f"failpoint|{seed}|{site}|{hit}".encode()).digest()
    return struct.unpack(">Q", digest[:8])[0] / 2.0 ** 64


class FailpointRegistry:
    """Hit counting and firing decisions for a set of site rules."""

    def __init__(self, rules: dict[str, FailpointRule] | None = None
                 ) -> None:
        self.rules = dict(rules or {})
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        """Whether any rule is configured (fast-path check)."""
        return bool(self.rules)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been evaluated in this process."""
        return self._hits.get(site, 0)

    def fired(self, site: str) -> int:
        """How many times ``site`` has fired in this process."""
        return self._fired.get(site, 0)

    def fire(self, site: str) -> bool:
        """Record one hit of ``site``; ``True`` when the rule fires.

        The non-raising form used by supervisor-side sites
        (``pool.kill_worker``); data-path sites go through
        :meth:`trip`, which raises instead.
        """
        if site not in SITES:
            raise ConfigurationError(f"unknown failpoint site {site!r}")
        rule = self.rules.get(site)
        if rule is None:
            return False
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        fired = self._fired.get(site, 0)
        budget = rule.max_fires
        if budget is not None and fired >= budget:
            return False
        if rule.nth is not None:
            fires = hit >= rule.nth
        else:
            fires = _hit_uniform(rule.seed, site, hit) < rule.p
        if fires:
            self._fired[site] = fired + 1
        return fires

    def trip(self, site: str, detail: str = "") -> None:
        """Raise :class:`InjectedFault` when ``site`` fires, else no-op."""
        if self.fire(site):
            suffix = f" ({detail})" if detail else ""
            raise InjectedFault(
                f"failpoint {site} fired on hit {self._hits[site]}"
                f"{suffix}")


def parse_failpoints(spec: str) -> FailpointRegistry:
    """Parse a spec string into a registry.

    Raises:
        ConfigurationError: on grammar errors, unknown sites, or
            out-of-range parameters.
    """
    rules: dict[str, FailpointRule] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, sep, params = chunk.partition(":")
        site = site.strip()
        if not sep or not params.strip():
            raise ConfigurationError(
                f"failpoint rule {chunk!r} needs 'site:param,...'")
        if site in rules:
            raise ConfigurationError(f"duplicate failpoint site {site!r}")
        fields: dict[str, object] = {}
        for param in params.split(","):
            name, sep, value = param.partition("=")
            name, value = name.strip(), value.strip()
            if not sep or not value:
                raise ConfigurationError(
                    f"failpoint {site}: malformed parameter {param!r}")
            try:
                if name in ("nth", "times", "seed"):
                    fields[name] = int(value)
                elif name == "p":
                    fields[name] = float(value)
                else:
                    raise ConfigurationError(
                        f"failpoint {site}: unknown parameter {name!r} "
                        f"(expected nth/p/times/seed)")
            except ValueError:
                raise ConfigurationError(
                    f"failpoint {site}: bad value for {name}: {value!r}"
                ) from None
        rules[site] = FailpointRule(site=site, **fields)
    return FailpointRegistry(rules)


def chaos_spec(profile: str) -> str:
    """The failpoint spec behind a named chaos profile.

    Raises:
        ConfigurationError: on an unknown profile name.
    """
    try:
        return CHAOS_PROFILES[profile]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos profile {profile!r}, expected one of "
            f"{', '.join(sorted(CHAOS_PROFILES))}") from None


#: The process-wide active registry plus the spec string it was parsed
#: from, so a changed ``REPRO_FAILPOINTS`` value is picked up lazily.
_active: FailpointRegistry = FailpointRegistry()
_active_spec: str = ""


def active() -> FailpointRegistry:
    """The process-wide registry, synced with ``REPRO_FAILPOINTS``.

    Re-parses (and resets hit counters) only when the environment value
    differs from the one the current registry was built from, so
    repeated calls on hot paths cost one string compare.
    """
    global _active, _active_spec
    spec = os.environ.get(FAILPOINTS_ENV, "")
    if spec != _active_spec:
        _active = parse_failpoints(spec)
        _active_spec = spec
    return _active


def install(spec: str, *, export: bool = True) -> FailpointRegistry:
    """Install a spec as the active registry (and export the env var).

    ``export`` keeps ``REPRO_FAILPOINTS`` in sync so forked children —
    sweep cells, pool workers — inherit the same configuration.
    """
    global _active, _active_spec
    registry = parse_failpoints(spec)
    _active, _active_spec = registry, spec
    if export:
        if spec:
            os.environ[FAILPOINTS_ENV] = spec
        else:
            os.environ.pop(FAILPOINTS_ENV, None)
    return registry


def reset() -> None:
    """Clear the active registry and the exported env var (tests)."""
    install("", export=True)


def failpoint(site: str, detail: str = "") -> None:
    """Evaluate a data-path site: raises :class:`InjectedFault` on fire.

    The no-rules fast path is one attribute check, so instrumented hot
    paths (per-shard flushes, per-job renders) stay effectively free
    when chaos is off.
    """
    registry = active()
    if registry.enabled:
        registry.trip(site, detail)


def fire(site: str) -> bool:
    """Evaluate a supervisor-side site; ``True`` when it fires."""
    registry = active()
    return registry.enabled and registry.fire(site)
