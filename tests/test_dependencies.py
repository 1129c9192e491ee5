"""The runtime dependency list is numpy alone, and stays that way.

networkx used to be imported for one function (cycle equivalence) and
cost every process 20 MiB and 0.14 s; these tests fail if it, or any
other package, becomes a requirement of importing ``repro`` again.
"""

import json
import os
import re
import subprocess
import sys

import repro

ROOT = os.path.join(os.path.dirname(__file__), "..")

IMPORT_ALL = """
import sys
sys.modules["networkx"] = None      # any import of it now raises
sys.path.insert(0, %r)
import importlib, pkgutil, repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL % src],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert int(result.stdout) > 100


def test_runtime_dependencies_are_numpy_only():
    with open(os.path.join(ROOT, "pyproject.toml")) as handle:
        text = handle.read()
    declared = re.search(r"^dependencies = (\[.*\])$", text, re.MULTILINE)
    assert json.loads(declared.group(1)) == ["numpy"]
