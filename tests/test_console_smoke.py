import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_console_smoke_script(tmp_path):
    # The end-to-end checks CI runs against the installed entry point, here
    # against the sources: `f4search` and `python` on PATH are this interpreter,
    # and PYTHONPATH lets the script's own Python snippets import the package.
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, args in (("f4search", " -m f4search.cli"), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}"{args} "$@"\n')
        shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    run = subprocess.run(["bash", str(TESTS / "console_smoke.sh")], cwd=work, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, f"exit {run.returncode}\n{run.stdout}\n{run.stderr}"
