"""The system under test, always in its own process, and the host around it.

Boots ``repro serve-daemon`` or ``repro gateway`` through the public CLI
(``--ready-file``), reads the child's CPU time and peak RSS from
``/proc``, and reaps it by terminate -> kill.  Every server is also given
``--max-seconds`` so a generator that dies without cleaning up leaves
nothing behind for long.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "GATEWAY_API_KEY",
    "GATEWAY_QUOTA",
    "GATEWAY_TENANT",
    "KeepAwake",
    "NODES",
    "REPO_ROOT",
    "SCRATCH",
    "ServerProcess",
    "UNIVERSE_SEED",
    "fingerprint",
    "host_ticks",
    "write_artifact",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
#: Everything the benchmark writes (temp dirs, artifacts) stays in here.
SCRATCH = REPO_ROOT / ".stackbench"
KEEPAWAKE_PY = Path(__file__).resolve().parent / "keepawake.py"

# The fixed set-up of every workload.
NODES = 50_000
UNIVERSE_SEED = 7
SHARDS = 2
INDEX = "vptree"
CACHE_ENTRIES = 8192
ADMISSION_LIMIT = 8192

GATEWAY_TENANT = "bench"
GATEWAY_API_KEY = "stackbench-key-1"
#: Every request spends one token and every 8 requests return 8, so the
#: quota code runs on each request and never sheds.
GATEWAY_QUOTA = {"capacity": 4096, "refill_amount": 8, "refill_every": 8}

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT_S = 120.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of the whole VM since boot.

    Steal is time a virtual CPU was runnable while the hypervisor ran
    someone else: the one direct measure of interference from outside
    this machine that the guest can read.
    """
    with open("/proc/stat", "rb") as stat:
        fields = [int(field) for field in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def _reap(proc: subprocess.Popen) -> None:
    """Terminate, then kill; returns once the process has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class KeepAwake:
    """One ``keepawake.py`` spinner per CPU for as long as the block runs."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(
                    subprocess.Popen(
                        [sys.executable, str(KEEPAWAKE_PY), str(cpu), str(os.getpid())],
                        stdin=subprocess.DEVNULL,
                    )
                )
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        procs, self.procs = self.procs, []
        for proc in procs:
            _reap(proc)


class ServerProcess:
    """One daemon or gateway subprocess and its temp directory."""

    def __init__(self, transport: str, *, max_seconds: float = 170.0) -> None:
        if transport not in ("tcp", "http"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        self.max_seconds = max_seconds
        self.proc: Optional[subprocess.Popen] = None
        self.workdir: Optional[Path] = None
        self.address: Optional[Tuple[str, int]] = None
        self.spawned_at = 0.0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Spawn the server and block until its ready file names a port."""
        SCRATCH.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="sut-", dir=SCRATCH))
        ready = self.workdir / "ready.txt"
        command = [sys.executable, "-m", "repro.analysis.cli"]
        if self.transport == "tcp":
            command += [
                "serve-daemon",
                "--synthetic", str(NODES),
                "--seed", str(UNIVERSE_SEED),
                "--shards", str(SHARDS),
                "--index", INDEX,
                "--cache-entries", str(CACHE_ENTRIES),
                "--admission-limit", str(ADMISSION_LIMIT),
            ]
        else:
            config = self.workdir / "gateway.json"
            config.write_text(json.dumps(self._gateway_config()))
            command += ["gateway", "--config", str(config)]
        command += [
            "--port", "0",
            "--ready-file", str(ready),
            "--max-seconds", str(self.max_seconds),
        ]
        log = open(self.workdir / "server.log", "wb")
        try:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                command,
                cwd=self.workdir,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        deadline = self.spawned_at + _READY_TIMEOUT_S
        while True:
            # The ready file briefly exists empty while being written.
            fields = ready.read_text().split() if ready.exists() else []
            if len(fields) == 2:
                self.address = (fields[0], int(fields[1]))
                return self.address
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.transport} server exited with code "
                    f"{self.proc.returncode} before it was ready:\n{self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"{self.transport} server not ready after {_READY_TIMEOUT_S}s"
                )
            time.sleep(0.005)

    @staticmethod
    def _gateway_config() -> Dict[str, Any]:
        return {
            "tenants": [
                {
                    "name": GATEWAY_TENANT,
                    "api_key": GATEWAY_API_KEY,
                    "shards": SHARDS,
                    "index": INDEX,
                    "cache_entries": CACHE_ENTRIES,
                    "admission_limit": ADMISSION_LIMIT,
                    "quota": GATEWAY_QUOTA,
                    "data": {"synthetic": NODES, "seed": UNIVERSE_SEED},
                }
            ]
        }

    def stop(self) -> None:
        """Reap the server (terminate, then kill) and remove its temp dir."""
        proc, self.proc = self.proc, None
        if proc is not None:
            _reap(proc)
        workdir, self.workdir = self.workdir, None
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    # -- observation from outside ---------------------------------------
    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far (all threads)."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        # The command name may contain spaces; fields are counted after it.
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM is missing from /proc/<pid>/status")

    def log_tail(self, lines: int = 20) -> str:
        if self.workdir is None:
            return ""
        try:
            text = (self.workdir / "server.log").read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def base_url(self) -> str:
        assert self.address is not None
        return f"http://{self.address[0]}:{self.address[1]}"


# -- the artifact ---------------------------------------------------------
def fingerprint() -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def write_artifact(result: Dict[str, Any]) -> Path:
    """One schema for every mode: fingerprint first, then the mode's result."""
    name = "-".join(str(result[key]) for key in ("workload", "seed", "mode") if key in result)
    path = SCRATCH / "artifacts" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"schema": "stackbench/1", "fingerprint": fingerprint(), **result}
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    return path
