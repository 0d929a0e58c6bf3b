"""What importing the library loads, checked in a fresh interpreter.

``scipy.signal`` (and the ``scipy.stats`` stack it imports) must stay
off the import path: it used to be most of the library's start-up.
``numpy.random`` and ``numpy.ma``, which numpy 2 loads lazily, must load
with the library, so that no timed section pays for them on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_IMPORT = """
import json, sys
import repro, repro.study, repro.reports, repro.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_library_import_loads_only_what_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules = set(json.loads(out))
    assert not {"scipy.signal", "scipy.stats"} & modules
    assert {"numpy.random", "numpy.ma"} <= modules


_RUN_CLI = """
import json, sys
from repro.cli import main
status = main(sys.argv[1:])
print(json.dumps([status, sorted(sys.modules)]))
"""


def _cli_modules(*argv: str) -> set[str]:
    """The modules a fresh ``repro`` CLI loaded for ``argv`` (which
    must exit 0)."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    status, modules = json.loads(out.splitlines()[-1])
    assert status == 0, argv
    return set(modules)


def test_trace_and_cache_commands_skip_numpy_and_the_simulation(tmp_path):
    """``repro trace`` reads journals and ``repro cache`` reads entry
    metadata: neither needs numpy, a study, the analyses, the reports or
    a workload."""
    from repro.cache import ArtifactCache
    from repro.config import Scenario
    from repro.obs import RunJournal

    journal_path = tmp_path / "run.jsonl"
    journal = RunJournal(journal_path)
    journal.emit("phase_start", phase="workload_nep")
    journal.emit("phase_end", phase="workload_nep", status="ok")
    journal.close(status="ok")
    cache_dir = tmp_path / "cache"
    ArtifactCache(cache_dir).put_object("campaign", Scenario.smoke_scale(),
                                        {"rtts": [1.0, 2.0]})
    journal_arg = str(journal_path)
    commands = [("trace", "show", journal_arg),
                ("trace", "summary", journal_arg),
                ("trace", "diff", journal_arg, journal_arg)]
    commands += [("cache", action, "--cache-dir", str(cache_dir))
                 for action in ("ls", "info", "verify", "clear")]
    for argv in commands:
        loaded = _cli_modules(*argv)
        heavy = {name for name in loaded
                 if name.split(".")[0] == "numpy"
                 or name.startswith(("repro.workload", "repro.study",
                                     "repro.reports", "repro.shards",
                                     "repro.core"))}
        assert not heavy, (argv, sorted(heavy)[:5])
