"""How the benchmark reaches the program: in process through ``cli.main``,
or as a fresh ``python -m spiderweb`` child.  Both use the sources under
``src/`` of the checkout the benchmark sits in, never an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"


class MissingProgram(RuntimeError):
    pass


def require_checkout() -> None:
    if not (SRC / "spiderweb" / "__init__.py").is_file():
        raise MissingProgram(f"no spiderweb sources under {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_cli():
    """Import ``spiderweb.cli`` from this checkout's ``src``."""
    require_checkout()
    sys.path.insert(0, str(SRC))
    from spiderweb import cli
    if Path(cli.__file__).resolve().parent != SRC / "spiderweb":
        raise MissingProgram(f"spiderweb was imported from {cli.__file__}, not {SRC}")
    return cli


@contextlib.contextmanager
def workdir():
    """A private directory under ``bench/_work`` for one run's input files."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_inproc(cli, argv) -> tuple[float, object, str, str]:
    """Call ``cli.main(argv)`` with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a failed op, not a crash of the run
            code = None
            traceback.print_exc(file=err)
        seconds = perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def run_cold(argv, env: dict[str, str], directory: Path) -> tuple[float, int, str, str, int]:
    """Run ``python -m spiderweb argv`` to completion.

    Returns wall seconds, exit code, stdout, stderr and the child's peak RSS
    in KiB.  Output goes to files, so a large output cannot block the child.
    """
    with tempfile.TemporaryFile(dir=directory) as out, tempfile.TemporaryFile(dir=directory) as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "spiderweb", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (seconds, proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), usage.ru_maxrss)


def run_python(code: str, env: dict[str, str], python_args: tuple[str, ...] = ()) -> tuple[float, str]:
    """Wall seconds and stderr of a fresh ``python -c code``; raises if it fails."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *python_args, "-c", code], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python -c failed with exit {proc.returncode}: {proc.stderr[-500:]}")
    return seconds, proc.stderr
