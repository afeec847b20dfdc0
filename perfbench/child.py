"""One operation in a child process under caps, and what became of it.

The caps bind the child only: an address-space limit and, for a
one-operation child, a CPU-time backstop are set by setrlimit between
fork and exec, and the parent kills
the child's process group when the wall cap passes.  Per-operation peak
RSS comes from that child's own wait4 rusage, because RUSAGE_CHILDREN is a
maximum over every child the harness ever reaped.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field

SOLVED, REFUSED, FAILED = "solved", "refused", "failed"

# Seconds a traced child gets after SIGTERM to write its spans.
TERM_GRACE = 3.0


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    returncode: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool
    status: str = FAILED
    reason: str = ""
    extra: dict = field(default_factory=dict)


def _limits(as_bytes: int, cpu_s: int | None):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (as_bytes, as_bytes))
        if cpu_s is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 5))

    return apply


def run_capped(argv, env, cwd, as_bytes: int, wall_s: float, out_path, err_path,
               graceful: bool = False) -> Outcome:
    """Run argv to completion or to the wall cap; stdout and stderr go to
    files so a child that floods them cannot block on a full pipe."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=cwd,
            preexec_fn=_limits(as_bytes, int(wall_s + TERM_GRACE) + 2), start_new_session=True,
        )
        reaped = {}

        def reap():
            reaped["result"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(wall_s)
        timed_out = waiter.is_alive()
        if timed_out:
            if graceful:
                _signal_group(proc.pid, signal.SIGTERM)
                waiter.join(TERM_GRACE)
            if waiter.is_alive():
                _signal_group(proc.pid, signal.SIGKILL)
            waiter.join()
    _, status, usage = reaped["result"]
    wall = reaped["end"] - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4 above, so Popen must not wait again
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    # ru_maxrss is in KiB on Linux
    return Outcome(wall, usage.ru_maxrss / 1024.0, code, stdout, stderr, timed_out)


def _signal_group(pid: int, sig):
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        pass


def classify(outcome: Outcome, check) -> Outcome:
    """Exit codes alone are not trusted: an uncaught MemoryError exits 1,
    like an analysis-negative result.  Solved means exit 0 and stdout that
    passes ``check`` (which returns an error string or None); refused means
    exit 3 with the documented cap message; everything else failed."""
    err = outcome.stderr.decode("utf-8", "replace")
    if outcome.timed_out:
        outcome.status, outcome.reason = FAILED, "wall_cap"
    elif outcome.returncode is not None and outcome.returncode < 0:
        outcome.status, outcome.reason = FAILED, f"signal_{-outcome.returncode}"
    elif _last_exception_name(err, "") == "MemoryError":
        outcome.status, outcome.reason = FAILED, "MemoryError"
    elif outcome.returncode == 3 and "cap exceeded" in err:
        outcome.status, outcome.reason = REFUSED, "cap_exceeded"
        outcome.extra["message"] = err.strip().splitlines()[-1]
    elif outcome.returncode == 0:
        problem = check(outcome.stdout)
        if problem is None:
            outcome.status, outcome.reason = SOLVED, "ok"
        else:
            outcome.status, outcome.reason = FAILED, "wrong_output"
            outcome.extra["problem"] = problem
    else:
        outcome.status = FAILED
        outcome.reason = f"exit_{outcome.returncode}_" + _last_exception_name(err, "error")
    return outcome


def _last_exception_name(err: str, default: str) -> str:
    """Name of the exception in the child's last traceback line, if any."""
    for line in reversed(err.strip().splitlines()):
        head = line.split(":", 1)[0].strip()
        if head.isidentifier() and (head.endswith("Error") or head.endswith("Exceeded")):
            return head
    return default


class LongLived:
    """A child under an address-space cap answering one JSON line per
    request line.  It gets no CPU-time limit, because that would bind its
    whole lifetime rather than one call; the wall cap per request bounds
    each call instead.

    ``request`` returns (reply, elapsed seconds), with reply None when the
    child did not answer within the wall cap or died; the child is then
    killed and must be restarted.  ``close`` ends input, reaps the child
    with wait4 and returns its peak RSS in MiB."""

    def __init__(self, argv, env, cwd, as_bytes: int, err_path):
        self._err = open(err_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
            env=env, cwd=cwd, preexec_fn=_limits(as_bytes, None), start_new_session=True,
        )

    def request(self, payload: dict, wall_s: float):
        start = time.perf_counter()
        try:
            self.proc.stdin.write((json.dumps(payload) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None, time.perf_counter() - start
        ready, _, _ = select.select([self.proc.stdout], [], [], wall_s)
        line = self.proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if not line:
            _signal_group(self.proc.pid, signal.SIGKILL)
            return None, elapsed
        return json.loads(line), elapsed

    def close(self, grace_s: float = 30.0) -> float:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        reaped = {}
        waiter = threading.Thread(target=lambda: reaped.update(r=os.wait4(self.proc.pid, 0)))
        waiter.start()
        waiter.join(grace_s)
        if waiter.is_alive():
            _signal_group(self.proc.pid, signal.SIGKILL)
            waiter.join()
        _, status, usage = reaped["r"]
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._err.close()
        return usage.ru_maxrss / 1024.0
