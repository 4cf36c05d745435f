"""Drive ``repro-butterfly serve`` as a separate process from one client process.

:class:`ServerProcess` owns the server's lifetime: spawn, wait until it
answers ``/healthz``, read its memory from ``/proc``, stop it with
SIGTERM so the drain path runs.  :func:`open_loop` sends a schedule at
fixed due times from two sender threads and times every request from
its due time; :func:`closed_loop` measures capacity with two senders
that each send the next request when the last one returns.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve import ServeClient

#: Sender threads and connections: one per core of the 2-core reference box.
SENDERS = 2
#: Long-poll leg and socket timeout; a request that needs longer has failed.
REQUEST_TIMEOUT_S = 30.0
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``serve`` process on a free loopback port with its own cache."""

    def __init__(self, argv_prefix: list[str], workdir: Path, cache_dir: Path,
                 env: dict[str, str]) -> None:
        self._argv_prefix = argv_prefix
        self._workdir = workdir
        self.cache_dir = cache_dir
        self._env = env
        self.proc: subprocess.Popen | None = None
        self.client: ServeClient | None = None

    def start(self) -> "ServerProcess":
        port_file = self._workdir / f"port-{time.monotonic_ns()}.txt"
        argv = self._argv_prefix + [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--cache", str(self.cache_dir),
        ]
        log = open(self._workdir / "server.log", "ab")
        try:
            self.proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                         env=self._env)
        finally:
            log.close()
        try:
            self._wait_until_serving(port_file)
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_until_serving(self, port_file: Path) -> None:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} at start")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening in time")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                break
            time.sleep(0.002)
        self.client = ServeClient("127.0.0.1", int(text), timeout=REQUEST_TIMEOUT_S)
        while True:
            try:
                self.client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)

    def proc_status_kb(self) -> dict[str, int]:
        """``VmHWM`` and ``VmRSS`` of the server process, in kB."""
        assert self.proc is not None
        out = {}
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(value.split()[0])
        return out

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used so far."""
        assert self.proc is not None
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def counters(self) -> dict[str, float]:
        """The unlabelled samples of ``GET /metrics``, by metric name."""
        assert self.client is not None
        out: dict[str, float] = {}
        for line in self.client.metrics().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self) -> int:
        """SIGTERM, wait for the drain to finish; kill only if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError("server ignored SIGTERM") from None
        return proc.returncode


@dataclass
class Request:
    """The client-side record of one request's three round trips."""

    spec: dict[str, Any]
    job: str = ""
    due: float = 0.0
    post_start: float = 0.0
    post_end: float = 0.0
    wait_end: float = 0.0
    end: float = 0.0
    status: dict[str, Any] = field(default_factory=dict)
    body: str = ""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    @property
    def tier(self) -> str:
        return str(self.status.get("tier"))

    @property
    def digest_prefix(self) -> str:
        """The edge-digest prefix the server puts in every job id."""
        return self.job.rsplit("-", 1)[-1]


def send(client: ServeClient, req: Request) -> Request:
    """POST, long-poll GET, result GET; failures are recorded, not raised."""
    req.post_start = time.perf_counter()
    try:
        code, raw = client.request("POST", "/v1/solve", {"network": req.spec})
        req.post_end = time.perf_counter()
        if code != 202:
            req.error = f"POST {code}"
            return req
        req.job = job = json.loads(raw)["job"]
        code, raw = client.request("GET", f"/v1/jobs/{job}?wait={REQUEST_TIMEOUT_S}")
        req.wait_end = time.perf_counter()
        req.status = json.loads(raw) if code == 200 else {}
        if code != 200 or req.status.get("state") != "done":
            req.error = f"GET job {code} state={req.status.get('state')}"
            return req
        code, raw = client.request("GET", f"/v1/results/{job}")
        if code != 200:
            req.error = f"GET result {code}"
            return req
        req.body = raw.decode("utf-8")
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        req.error = f"{type(exc).__name__}: {exc}"
    finally:
        req.end = time.perf_counter()
    return req


def _join_all(threads: list[threading.Thread]) -> None:
    # The client's own collector pauses would show up as server latency.
    gc.collect()
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gc.enable()


def open_loop(client: ServeClient, window: list[tuple[float, dict]]) -> list[Request]:
    """Send each spec at its due offset from the first; sender k takes every
    k-th request."""
    reqs = [Request(spec) for _, spec in window]
    t0 = time.perf_counter() + 0.05 - (window[0][0] if window else 0.0)

    def sender(k: int) -> None:
        for i in range(k, len(reqs), SENDERS):
            due = t0 + window[i][0]
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            reqs[i].due = due
            send(client, reqs[i])

    _join_all([threading.Thread(target=sender, args=(k,)) for k in range(SENDERS)])
    return reqs


def closed_loop(client: ServeClient, specs: list[dict]) -> tuple[list[Request], float]:
    """Send all specs back to back from the senders; ``(requests, seconds)``."""
    reqs = [Request(spec) for spec in specs]
    lock = threading.Lock()
    nxt = iter(reqs)

    def sender() -> None:
        while True:
            with lock:
                req = next(nxt, None)
            if req is None:
                return
            req.due = time.perf_counter()
            send(client, req)

    start = time.perf_counter()
    _join_all([threading.Thread(target=sender) for _ in range(SENDERS)])
    return reqs, time.perf_counter() - start


def server_argv(traced_spans: Path | None) -> list[str]:
    """How to launch the CLI: plain, or under the benchmark's shim launcher."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro"]
    launcher = Path(__file__).with_name("serve_traced.py")
    return [sys.executable, str(launcher), str(traced_spans)]


def child_env(src: Path, tmp: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_CACHE_DIR", None)
    return env
