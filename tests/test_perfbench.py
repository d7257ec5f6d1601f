"""The benchmark's layer tracer and self-tests still fit the library.

``perfbench/layertrace.py`` wraps library functions by name, so renaming a
traced function would silently drop its layer from traced runs.  This file
only reads ``perfbench/``.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", PERFBENCH / "layertrace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    targets = _layertrace().TARGETS
    assert targets
    missing = []
    for name, (modname, path) in targets.items():
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(mod, path, None))
        if not found:
            missing.append(name)
    assert not missing, missing


def test_selftest_exits_zero():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
