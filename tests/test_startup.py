"""Start-up contract: no ``repro`` entry point imports scipy before it needs it.

scipy costs about a second of import time, and every coordinator, socket
worker daemon and warm point-store rerun is a fresh process.  So scipy is
imported only inside the functions that call it (confidence intervals,
bit-cell tail probabilities, yield inversion).  Each check runs in a fresh
interpreter, since this test process has long since imported scipy.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SCIPY_MODULES = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
)


def _scipy_modules_after(code: str, cwd: Path = ROOT) -> list:
    """scipy modules loaded once *code* has run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_SCIPY_MODULES}"],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro.runner.cli",
        "repro.runner.backends.socket_backend",
        "repro.runner.tasks",
    ],
)
def test_entry_imports_leave_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == []


def test_fig6_smoke_run_never_imports_scipy(tmp_path):
    out = tmp_path / "fig6.json"
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['repro', 'run', 'fig6', '--scale', 'smoke', '--no-cache', "
        f"'--out', {str(out)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
    )
    assert _scipy_modules_after(code, cwd=tmp_path) == []
    assert filecmp.cmp(out, ROOT / "tests" / "golden" / "fig6.json", shallow=False)
