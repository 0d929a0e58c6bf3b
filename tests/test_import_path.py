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
