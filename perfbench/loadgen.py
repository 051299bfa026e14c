"""The benchmark's open-loop generator for ``gateway-open``.

The gateway runs in a child process (:class:`GatewayProcess`); this
module drives it from the benchmark process through the program's own
client, :class:`repro.gateway.client.GatewayClient`, over exactly two
connections: the client's pool of one keep-alive HTTP connection, which
carries every submit, and one WebSocket session (``client.stream()``)
that watches every accepted seq.

Open loop: request *i* is due at ``start + at_i`` whatever happened to
earlier requests.  Submits share one connection, so a slow server makes
later requests go out late; each request is timed from when it was due,
and how late it actually went out is reported separately.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.gateway.client import GatewayClient, GatewayError, StreamSession
from repro.gateway.wire import WireError

_perf = time.perf_counter
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: the CPUs this process may use, read before :func:`pin_apart` narrows them
_CPUS = sorted(os.sched_getaffinity(0))
_STARTED = re.compile(rb"perfbench-t0 ([0-9.]+)")
_LISTENING = re.compile(rb"listening on ([^\s:]+):(\d+)")
#: errors of the connection itself, as opposed to an HTTP error status
TRANSPORT_ERRORS = (WireError, OSError, asyncio.IncompleteReadError)
#: how long results may trail the last send before they count as missing
RESULT_GRACE_S = 20.0
STOP_TIMEOUT_S = 30.0


def pin_apart(server_pid: int) -> None:
    """Give the gateway one CPU and this process, the load generator,
    another, so that neither waits for the other to be descheduled.  In
    five alternating pairs on two CPUs, pinned runs read latency_p99_ms
    78 to 101 ms and unpinned ones 79 to 135 ms."""
    if len(_CPUS) >= 2:
        os.sched_setaffinity(server_pid, {_CPUS[-1]})
        os.sched_setaffinity(0, {_CPUS[0]})


class GatewayProcess:
    """``udc gateway`` in a child process, observed from outside."""

    def __init__(self, root: str, out_dir: str, label: str,
                 trace_out: Optional[str] = None,
                 summary_out: Optional[str] = None):
        self.root = root
        self.stderr_path = os.path.join(out_dir, f"{label}.stderr")
        self.trace_out = trace_out
        self.summary_out = summary_out
        self.proc: Optional[asyncio.subprocess.Process] = None
        self._stderr = None

    async def start(self) -> Tuple[str, int, float]:
        """Spawn the gateway; returns its address and the
        ``time.monotonic()`` reading it took before importing the
        program, where its set-up starts."""
        argv = [os.path.join(self.root, "perfbench", "gateway_child.py")]
        if self.trace_out:
            argv += ["--trace-out", self.trace_out,
                     "--summary-out", self.summary_out]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self._stderr = open(self.stderr_path, "wb")
        self.proc = await asyncio.create_subprocess_exec(
            "python3", *argv, stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE, stderr=self._stderr, env=env,
            cwd=self.root,
        )
        pin_apart(self.proc.pid)
        started = await self._expect(_STARTED)
        listening = await self._expect(_LISTENING)
        return (listening.group(1).decode(), int(listening.group(2)),
                float(started.group(1)))

    async def _expect(self, pattern: "re.Pattern[bytes]") -> "re.Match":
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60.0)
        match = pattern.search(line)
        if match is None:
            raise RuntimeError(f"gateway did not start: {line!r}")
        return match

    def cpu_s(self) -> float:
        """User + system CPU of the gateway process so far."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as stat:
            fields = stat.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    async def wait(self, timeout: float = STOP_TIMEOUT_S) -> int:
        """Wait for exit (killing it after ``timeout``); returns the code."""
        try:
            code = await asyncio.wait_for(self.proc.wait(), timeout)
        except asyncio.TimeoutError:
            self.proc.kill()
            code = await self.proc.wait()
        if self._stderr is not None:
            self._stderr.close()
        return code

    def tracebacks(self) -> int:
        with open(self.stderr_path, "rb") as err:
            return err.read().count(b"Traceback (most recent call last)")


@dataclass
class LoadResult:
    """What the generator saw; the basis of the end-to-end metrics."""

    attempted: int = 0
    sent: int = 0
    #: seq -> request index, for every 202
    accepted: Dict[int, int] = field(default_factory=dict)
    #: failure kind -> count, for every request not accepted
    rejected: Dict[str, int] = field(default_factory=dict)
    results: Dict[int, int] = field(default_factory=dict)
    result_at: Dict[int, float] = field(default_factory=dict)
    result_payload: Dict[int, Dict] = field(default_factory=dict)
    not_done: List[int] = field(default_factory=list)
    event_seqs: Dict[int, List[int]] = field(default_factory=dict)
    late_ms: List[float] = field(default_factory=list)
    rtt_ms: List[float] = field(default_factory=list)
    start: float = 0.0
    last_result: float = 0.0
    #: serving-process CPU at 0, 1/4, 1/2, 3/4 of the schedule and end
    cpu_marks: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def report(self) -> Dict[str, Any]:
        """The shape :func:`stats.check_gateway_report` checks."""
        return {
            "attempted": self.attempted,
            "accepted": list(self.accepted),
            "rejected": dict(self.rejected),
            "results": dict(self.results),
            "not_done": list(self.not_done),
            "event_seqs": self.event_seqs,
        }


def _failure_kind(error: GatewayError) -> str:
    payload = error.payload
    reason = payload.get("error") if isinstance(payload, dict) else None
    if error.status == 429:
        return "quota" if reason == "quota-exceeded" else "shed"
    if error.status == 422:
        return "lint"
    return f"http-{error.status}"


async def run_open_loop(proc: GatewayProcess, client: GatewayClient,
                        stream: StreamSession,
                        requests: List[Dict[str, Any]],
                        ) -> Tuple[LoadResult, asyncio.Task]:
    """Send ``requests`` on schedule and collect every result.

    Returns the observations and the stream's receiver task, which keeps
    reading: the gateway is left running, stream open, for
    :func:`finish` to shut down.
    """
    out = LoadResult(attempted=len(requests))
    all_in = asyncio.Event()
    sending_done = False

    def settled() -> bool:
        return sending_done and len(out.result_at) >= len(out.accepted)

    async def receive() -> None:
        while True:
            event = await stream.next_event()
            if event is None:
                return
            seq = event.get("seq")
            if not isinstance(seq, int):
                continue
            out.event_seqs.setdefault(seq, []).append(event.get("event_seq"))
            if event.get("event") != "result":
                continue
            out.results[seq] = out.results.get(seq, 0) + 1
            payload = event.get("payload") or {}
            if not payload.get("done"):
                out.not_done.append(seq)
            if seq not in out.result_at:
                out.result_at[seq] = _perf()
                out.result_payload[seq] = payload
            if settled():
                all_in.set()

    async def sample_cpu(duration: float) -> None:
        for quarter in (1, 2, 3):
            await asyncio.sleep(max(0.0, out.start + duration * quarter / 4
                                    - _perf()))
            out.cpu_marks.append(proc.cpu_s())

    receiver = asyncio.create_task(receive())
    duration = requests[-1]["at"] + (requests[1]["at"] if len(requests) > 1
                                     else 0.0)
    out.cpu_marks.append(proc.cpu_s())
    out.start = _perf()
    sampler = asyncio.create_task(sample_cpu(duration))
    try:
        for index, request in enumerate(requests):
            due = out.start + request["at"]
            delay = due - _perf()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = _perf()
            out.late_ms.append((sent - due) * 1e3)
            out.sent += 1
            try:
                body = await client.submit(request["tenant"], request["app"],
                                           inputs=request["inputs"])
            except GatewayError as exc:
                kind = _failure_kind(exc)
            except TRANSPORT_ERRORS as exc:
                # The client drops a broken connection; the next submit
                # opens a fresh one, so there is never more than one.
                kind = f"transport-{type(exc).__name__}"
            else:
                out.rtt_ms.append((_perf() - sent) * 1e3)
                seq = body.get("seq") if isinstance(body, dict) else None
                if isinstance(seq, int) and not body.get("done"):
                    out.accepted[seq] = index
                    await stream.watch(seq)
                    continue
                # Every input is unique, so a finished answer here is a
                # cache hit that should not exist.
                kind = "unexpected-cache-hit"
            out.rejected[kind] = out.rejected.get(kind, 0) + 1
        sending_done = True
        if settled():
            all_in.set()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(all_in.wait(), RESULT_GRACE_S)
        out.last_result = max(out.result_at.values(), default=_perf())
        await sampler
        out.cpu_marks.append(proc.cpu_s())
        out.peak_rss_mb = proc.peak_rss_mb()
    except BaseException:
        receiver.cancel()
        raise
    finally:
        sampler.cancel()
    return out, receiver


async def finish(proc: GatewayProcess, client: GatewayClient,
                 stream: Optional[StreamSession],
                 receiver: Optional[asyncio.Task]) -> int:
    """Shut the gateway down with the stream still open, wait for it to
    exit, close our ends; returns the child's exit code."""
    with contextlib.suppress(GatewayError, *TRANSPORT_ERRORS):
        await client.shutdown_server()
    code = await proc.wait()
    if receiver is not None:
        # A receiver that died early left results missing, which the
        # correctness check reports; its error adds nothing here.
        with contextlib.suppress(Exception, asyncio.CancelledError):
            await asyncio.wait_for(receiver, 5.0)
    await client.close()
    if stream is not None:
        # The server is gone: closing our end may fail to say goodbye.
        with contextlib.suppress(Exception):
            await stream.close()
    return code
