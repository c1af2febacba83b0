"""Child processes of the benchmark: spawn, time, reap with rusage, clean up.

Every child is reaped with ``os.wait4``, whose rusage covers the child and
every descendant it reaped (pool workers included), so ``maxrss`` is the
peak of the largest process of that command.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

PYTHON = sys.executable or "python3"


def repro_env(root: str) -> dict:
    """The environment children run in: ``src/`` importable, tracing off."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_FAULTS", None)
    return env


def repro_argv(*args: str) -> List[str]:
    return [PYTHON, "-m", "repro", *args]


@dataclass
class Finished:
    argv: List[str]
    returncode: int
    started: float  # perf_counter at spawn
    ended: float  # perf_counter at reap
    maxrss_mb: float
    output: str

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class Child:
    """One spawned child; output goes to a file so nothing blocks on pipes."""

    def __init__(self, argv: List[str], cwd: str, env: dict, log_path: str):
        self.argv = argv
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.finished: Optional[Finished] = None

    def exited(self) -> bool:
        """Whether the child has exited, without reaping it."""
        if self.finished is not None:
            return True
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.proc.pid, flags) is not None

    def signal(self, signum: int) -> None:
        if self.finished is None:
            try:
                os.kill(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def wait(self, timeout: float) -> Finished:
        """Reap the child (killing it after ``timeout`` seconds)."""
        if self.finished is not None:
            return self.finished
        watchdog = threading.Timer(timeout, self.signal, (signal.SIGKILL,))
        watchdog.daemon = True
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code  # reaped here, not by Popen
        self._log.close()
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
            output = handle.read()
        self.finished = Finished(
            self.argv, code, self.started, ended, usage.ru_maxrss / 1024.0, output
        )
        return self.finished

    def stop(self, timeout: float = 20.0) -> Finished:
        """Interrupt (the CLI's clean-shutdown path), then reap."""
        self.signal(signal.SIGINT)
        return self.wait(timeout)


def run(argv: List[str], cwd: str, env: dict, log_path: str, timeout: float = 170.0) -> Finished:
    return Child(argv, cwd, env, log_path).wait(timeout)
