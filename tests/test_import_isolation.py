"""Every ``repro`` module imports with only its declared dependencies.

A fresh interpreter installs a ``sys.meta_path`` finder that refuses
every top-level module outside the standard library, numpy, scipy and
``repro``, then imports each module ``pkgutil.walk_packages`` finds.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "repro"}

class BlockUndeclared:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ImportError(f"undeclared module {name!r} imported")

sys.meta_path.insert(0, BlockUndeclared())
import repro

def fail(name):
    raise ImportError(f"cannot import package {name!r}")

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.",
                                               onerror=fail)]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_with_undeclared_modules_blocked():
    completed = subprocess.run([sys.executable, "-c", SCRIPT], cwd=SRC,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    # One module per source file below the top-level package.
    assert int(completed.stdout) == len(list(SRC.rglob("repro/**/*.py"))) - 1
