"""Module layering: importing a module loads only the package modules it uses.

Each case imports one module in a fresh interpreter and lists the
redqsim modules that import loaded.  The package root binds no name, so
a re-export there, or a stray import in a module, would make the
gatekeeper or the endpoints pull in the simulator and fail a case here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

LIST_LOADED = ("import sys, importlib\n"
               "importlib.import_module('redqsim.' + sys.argv[1])\n"
               "print(*sorted(name.removeprefix('redqsim.') for name in sys.modules\n"
               "              if name.startswith('redqsim.')))")


# Module -> the package modules importing it loads, sorted.
LOADS = {
    "config": ["config"],
    "red": ["config", "red"],
    "tcp": ["tcp"],
    "metrics": ["metrics"],
    "parallel": ["parallel"],
    "droplaw": ["config", "droplaw", "red"],
    "engine": ["config", "engine", "metrics", "red", "tcp"],
}


@pytest.mark.parametrize("module, loaded", LOADS.items(), ids=list(LOADS))
def test_importing_a_module_loads_only_what_it_uses(module, loaded):
    done = subprocess.run([sys.executable, "-c", LIST_LOADED, module],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.stdout.split() == loaded, done.stderr
