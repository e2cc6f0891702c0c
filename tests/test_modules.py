"""The shape of src/latkit as modules: their size and their imports.

Run without bytecode (PYTHONDONTWRITEBYTECODE=1 and no __pycache__), a
latkit process compiles every module it imports, and the parser's and
compiler's scratch for the largest one stays resident: compiled alone,
a 1,100-line module left about +2.5 MB of RSS, and heyting.py (661
lines) +1.4 MB.  So no module may grow past heyting.py's length, and a
module split to stay under it must not add an import cycle.
"""

import pathlib
import subprocess
import sys

import pytest

LATKIT = pathlib.Path(__file__).resolve().parents[1] / "src" / "latkit"
MODULES = sorted(p.stem for p in LATKIT.glob("*.py") if p.stem != "__init__")
MAX_LINES = 661  # heyting.py when the larger modules were split to its size


def test_no_module_is_longer_than_heyting():
    long = {
        p.name: n
        for p in sorted(LATKIT.glob("*.py"))
        if (n := len(p.read_text(encoding="utf-8").splitlines())) > MAX_LINES
    }
    assert not long, (
        f"modules longer than {MAX_LINES} lines: {long}.  Without bytecode "
        "the compile scratch of the largest module stays in every latkit "
        "process's RSS; split the module along a seam it already has"
    )


# the package's __init__ is not run, so each module loads only what it
# imports itself; the poset layer must not load order
CHILD = """
import importlib, sys, types
pkg = types.ModuleType("latkit")
pkg.__path__ = [sys.argv[1]]
sys.modules["latkit"] = pkg
importlib.import_module("latkit." + sys.argv[2])
print(" ".join(sorted(m for m in sys.modules if m.startswith("latkit."))))
"""


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(LATKIT), module],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert f"latkit.{module}" in loaded
    if module in ("bitset", "errors", "poset"):
        assert "latkit.order" not in loaded, loaded
