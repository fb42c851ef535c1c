"""Drive the program the way its users do: ``repro validate`` and ``repro serve``.

Both run as fresh child processes of the benchmark with production
defaults.  Peak memory is the program's own: ``wait4`` reports the batch
child's, and a server's is the sum of the peak RSS of the server and every
process under it (resident shard workers, if it runs any), read before it
stops.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["Program", "BatchPass", "ServeProcess", "parse_csv"]

_KIB_PER_MIB = 1024.0


class Program:
    """Where the program lives and how to start it."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def command(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "repro", *args]


def parse_csv(text: str) -> Dict[Tuple[str, str], bool]:
    """``repro validate --format csv`` output → ``{(node, shape): conforms}``."""
    rows = csv.reader(io.StringIO(text))
    header = next(rows, None)
    if header is None or header[:3] != ["node", "shape", "conforms"]:
        raise ValueError(f"unexpected CSV header {header!r}")
    table = {}
    for row in rows:
        if row[2] not in ("true", "false"):
            raise ValueError(f"bad conforms column in {row!r}")
        table[(row[0], row[1])] = row[2] == "true"
    return table


class BatchPass:
    """One fresh ``repro validate --all-nodes --format csv`` process."""

    def __init__(self, seconds: float, peak_rss_mb: float, exit_code: int,
                 csv_text: str, stderr: str):
        self.seconds = seconds
        self.peak_rss_mb = peak_rss_mb
        self.exit_code = exit_code
        self.csv_text = csv_text
        self.stderr = stderr

    @classmethod
    def run(cls, program: Program, data: Path, schema: Path,
            timeout: float = 120.0) -> "BatchPass":
        out_path = program.work / "report.csv"
        err_path = program.work / "batch.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                program.command("validate", "--data", str(data),
                                "--data-format", "ntriples",
                                "--schema", str(schema), "--all-nodes",
                                "--format", "csv"),
                stdout=out, stderr=err, env=program.env, cwd=program.root)
            try:
                _, status, usage = _wait4(proc, timeout)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return cls(seconds, usage.ru_maxrss / _KIB_PER_MIB, proc.returncode,
                   out_path.read_text(), err_path.read_text())


def _wait4(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` with a deadline (the rusage is the point)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return pid, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"{proc.args[3]} did not finish in {timeout}s")
        time.sleep(0.002)


class ServeProcess:
    """A ``repro serve`` child in its own process group."""

    def __init__(self, program: Program, schema: Path):
        self.log = program.work / f"serve-{time.monotonic_ns()}.err"
        self._log_handle = self.log.open("w")
        self.proc = subprocess.Popen(
            program.command("serve", "--schema", str(schema), "--port", "0"),
            stdout=subprocess.DEVNULL,
            stderr=self._log_handle, env=program.env, cwd=program.root,
            start_new_session=True)

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the server prints its listening line; return the port."""
        deadline = time.monotonic() + timeout
        marker = "serve: listening on http://"
        while time.monotonic() < deadline:
            text = self.log.read_text()
            at = text.find(marker)
            if at >= 0 and "\n" in text[at:]:
                address = text[at + len(marker):].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early: {text[-500:]}")
            time.sleep(0.002)
        raise TimeoutError(f"repro serve not ready after {timeout}s")

    def _tree(self) -> List[int]:
        """The server's pid and every descendant's."""
        found, queue = [], [self.proc.pid]
        while queue:
            pid = queue.pop()
            found.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                try:
                    queue.extend(int(child) for child in task.read_text().split())
                except OSError:
                    continue
        return found

    def peak_rss_mb(self) -> float:
        """Sum of each live process's peak RSS (``VmHWM``) in the tree."""
        total_kib = 0
        for pid in self._tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / _KIB_PER_MIB

    def stop(self, timeout: float = 20.0) -> None:
        """Interrupt the server (it closes its fleet), then reap the group."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            _reap_group(self.proc.pid, timeout)
        finally:
            self._log_handle.close()


def _reap_group(pgid: int, timeout: float) -> None:
    """Kill whatever is left in the group and wait until it is gone.

    A killed process that nobody reaps still answers ``killpg(pgid, 0)``,
    so the wait is bounded and ends with a warning, not an error.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    print(f"perfbench: process group {pgid} still listed after SIGKILL",
          file=sys.stderr)
