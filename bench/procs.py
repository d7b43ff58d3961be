"""Fresh-process operations: run one child, time it, read its own rusage.

The child is reaped with ``os.wait4`` so its CPU time and peak RSS come
from its own resource usage; ``RUSAGE_CHILDREN`` would accumulate across
every child of the benchmark.  A timeout is delivered by SIGALRM while the
benchmark blocks in ``wait4``, so no polling loop or thread is involved.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool = False


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_child(argv: list[str], cwd: str, env: dict, workdir: str,
              timeout: float) -> ChildResult:
    """Run argv to completion with stdout/stderr captured in files."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    previous = signal.signal(signal.SIGALRM, _alarm)
    timed_out = False
    try:
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo,
                                    stderr=fe, stdin=subprocess.DEVNULL)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            # wait4 reaped the child; tell Popen so it does not wait again
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.signal(signal.SIGALRM, previous)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return ChildResult(proc.returncode, out, err, wall,
                       usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, timed_out)
