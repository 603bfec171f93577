"""The package root binds no names: each public name is imported from the
module that defines it (``from geomint.so3 import Rotation``).

So ``import geomint`` costs nothing, and ``import geomint.so3`` loads so3 and
what so3 itself imports, not the whole package.
"""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def test_import_geomint_binds_no_name_and_loads_no_submodule():
    # a fresh process: in this one, other tests have imported submodules,
    # which also binds them as attributes of the package
    script = (
        "import sys, geomint; "
        "print(sorted(n for n in dir(geomint) if not n.startswith('_')), "
        "sorted(m for m in sys.modules if m.startswith('geomint.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[] []\n"
