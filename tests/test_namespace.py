"""The package namespace: each public name loads its home module on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import planarext

SRC = str(Path(planarext.__file__).resolve().parents[1])


def _python(code: str) -> str:
    """Standard output of code run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_import_loads_no_submodule():
    code = "import sys, planarext; print(sorted(m for m in sys.modules if m.startswith('planarext.')))"
    assert _python(code) == "[]\n"


def test_every_public_name_is_the_attribute_of_its_home_module():
    out = _python(
        "import sys, planarext\n"
        "for name in planarext.__all__:\n"
        "    obj = getattr(planarext, name)\n"
        "    print(name, obj.__module__, obj is getattr(sys.modules[obj.__module__], name))\n"
    )
    rows = [line.split() for line in out.splitlines()]
    assert [name for name, _home, _same in rows] == planarext.__all__
    assert len(planarext.__all__) == 50
    for name, home, same in rows:
        assert home.startswith("planarext.") and same == "True", name


def test_dir_covers_all():
    out = _python("import planarext; print(sorted(set(planarext.__all__) - set(dir(planarext))))")
    assert out == "[]\n"


def test_unknown_name_raises_attribute_error_naming_it():
    out = _python(
        "import planarext\n"
        "try:\n"
        "    planarext.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'planarext' has no attribute 'no_such_name'\n"


def test_star_import_binds_all():
    out = _python(
        "import planarext\n"
        "ns = {}\n"
        "exec('from planarext import *', ns)\n"
        "print(all(ns[name] is getattr(planarext, name) for name in planarext.__all__))\n"
        "print(sorted(set(ns) - set(planarext.__all__)))\n"
    )
    assert out == "True\n['__builtins__']\n"
