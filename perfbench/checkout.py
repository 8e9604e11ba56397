"""Where the program under test lives, and a stamp of what and where it ran.

The benchmark measures the symcomp sources of the checkout it sits in
(`<root>/src`), never an installed copy: `require_sources` puts that
directory first on the import path and refuses to go on without it.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def require_sources() -> None:
    """Make `import symcomp` load `<root>/src/symcomp`, or exit with status 2."""
    package = SRC / "symcomp" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no symcomp sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("symcomp")
    if spec is None or Path(spec.origin).resolve() != package.resolve():
        print(f"perfbench: symcomp resolves to {spec and spec.origin}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for a child Python that must import the checkout's symcomp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def source_digest() -> str:
    """SHA-256 over the relative paths and bytes of every file under src/symcomp."""
    h = hashlib.sha256()
    base = SRC / "symcomp"
    for path in sorted(p for p in base.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(base).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is the top of a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_to_current_cpu() -> None:
    """Keep this process, and the processes it starts, on the CPU it runs
    on now, so that gauge samples and measured work share one CPU (the
    virtual CPUs of a shared machine change speed independently).  Does
    nothing where the kernel does not report the CPU."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def env_stamp() -> dict:
    """Facts that make two results comparable; load is read again at the end."""
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "loadavg_start": loadavg(),
    }
