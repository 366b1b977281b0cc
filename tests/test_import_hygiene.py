"""Every module of the package imports with numpy as the only third-party
dependency, which is all ``pyproject.toml`` declares.

The check runs in a fresh interpreter whose import system refuses any
top-level package outside the standard library, numpy and ``repro``
itself, so an undeclared import anywhere in the package fails here even
on a host that happens to have the package installed.
"""

import os
import subprocess
import sys
import textwrap

import repro

SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


    class RefuseUndeclared:
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            if top not in ALLOWED:
                raise ModuleNotFoundError(
                    f"{name!r} is not a declared dependency", name=name
                )
            return None


    sys.meta_path.insert(0, RefuseUndeclared())
    import repro

    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rpartition(".")[2] != "__main__"
    ]
    for name in names:
        importlib.import_module(name)
    print(len(names))
    """
)


def test_every_module_imports_with_numpy_only():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 50  # the walk really covered the package
