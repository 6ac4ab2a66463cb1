"""Boot and stop the service under test as real subprocesses.

Three topologies, all on loopback with tracing off:

* ``thread``: one ``python -m repro.serve`` node, thread workers;
* ``rules``: the same node with a write-behind ``--rules`` file;
* ``fleet``: a ``python -m repro.fleet`` coordinator in front of two
  ``--workers-mode process --workers 1 --corpus`` nodes.

Set-up time is measured from the first spawn until every process of the
topology answers ``GET /readyz`` with 200.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def free_ports(count: int) -> list[int]:
    """``count`` distinct OS-assigned free TCP ports on loopback."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class Deployment:
    """The running processes of one topology."""

    processes: list[subprocess.Popen[bytes]]
    #: Where clients connect: the node, or the fleet coordinator.
    port: int
    ready_seconds: float
    logs: list[IO[bytes]]
    log_paths: list[Path]


def launch(topology: str, src: Path, workdir: Path, workers: int) -> Deployment:
    """Spawn ``topology`` and wait until every process is ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH", "")) if part
    )
    env["TMPDIR"] = str(workdir)
    serve = [sys.executable, "-m", "repro.serve", "--no-tracing", "--host", "127.0.0.1"]
    if topology == "fleet":
        *node_ports, port = free_ports(3)
        commands = [
            serve + ["--port", str(node_port), "--workers-mode", "process",
                     "--workers", "1", "--corpus", str(workdir / "corpus")]
            for node_port in node_ports
        ]
        members = [
            arg for node_port in node_ports
            for arg in ("--member", f"http://127.0.0.1:{node_port}")
        ]
        commands.append(
            [sys.executable, "-m", "repro.fleet", "--host", "127.0.0.1",
             "--port", str(port), *members]
        )
        ports = [*node_ports, port]
    elif topology in ("thread", "rules"):
        (port,) = ports = free_ports(1)
        command = serve + ["--port", str(port), "--workers", str(workers)]
        if topology == "rules":
            rules = workdir / "rules.json"
            rules.unlink(missing_ok=True)
            command += ["--rules", str(rules)]
        commands = [command]
    else:
        raise ValueError(f"unknown topology {topology!r}")

    log_paths = [workdir / f"server-{index}.log" for index in range(len(commands))]
    logs = [path.open("wb") for path in log_paths]
    start = time.perf_counter()
    processes = [
        subprocess.Popen(
            command, env=env, cwd=workdir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log,
        )
        for command, log in zip(commands, logs, strict=True)
    ]
    deployment = Deployment(processes, port, 0.0, logs, log_paths)
    try:
        _await_ready(deployment, ports, start)
    except BaseException:
        stop(deployment)
        raise
    deployment.ready_seconds = time.perf_counter() - start
    return deployment


def _ready(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
    try:
        conn.request("GET", "/readyz")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


def _await_ready(deployment: Deployment, ports: list[int], start: float) -> None:
    pending = list(ports)
    while pending:
        pending = [port for port in pending if not _ready(port)]
        if not pending:
            return
        for process, log in zip(deployment.processes, deployment.log_paths, strict=True):
            if process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {process.returncode} before it was "
                    f"ready:\n{log.read_text(errors='replace')[-2000:]}"
                )
        if time.perf_counter() - start > BOOT_TIMEOUT:
            raise TimeoutError(f"servers on ports {pending} never became ready")
        time.sleep(0.005)


def stop(deployment: Deployment) -> None:
    """SIGTERM every process (front first), wait, kill stragglers."""
    for process in reversed(deployment.processes):
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in deployment.processes:
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for log in deployment.logs:
        log.close()


def _parents() -> dict[int, int]:
    """pid -> parent pid for every process visible in /proc."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def peak_rss_mib(deployment: Deployment) -> float:
    """Summed VmHWM of every server process and its descendants, MiB."""
    parents = _parents()
    pids = [process.pid for process in deployment.processes]
    for pid in pids:  # grows while iterating: a breadth-first walk
        pids.extend(child for child, parent in parents.items() if parent == pid)
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0
