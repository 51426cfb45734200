"""Host-speed sampling, so that times can be stated at a fixed speed.

A shared 2-vCPU host changes speed by up to 1.7x, in bursts of
seconds and regimes of minutes, with the same code and the same
inputs: a pass of the reproduction took anywhere from 10 to 18 s back
to back.  No run length averages that out.  So every measured process
runs a short fixed probe (:func:`probe`, about 0.2 ms of interpreter
work) every :data:`PERIOD_S` of its own CPU time, on its own core, in
between the program's work, and a time is reported at the reference
speed::

    reference seconds = (raw seconds - own probe seconds) * mean speed

where a probe's speed is :data:`REFERENCE_S` divided by its duration,
the mean runs over every probe inside the measured interval, and the
measuring process's own probes, which ran in between its work, are
taken out first.  The probe does the same work in every version of
the program, so a change that makes the program faster lowers
reference seconds; one that only lands on a faster host does not.

The timer is ``ITIMER_PROF`` (``SIGPROF``), which the program does not
use; the handler runs the probe in the process's main thread, between
two bytecodes of the program's own work, on the core that work runs
on.  Timers are not inherited across ``fork``, so an at-fork hook arms
a fresh one in every process the measuring process forks (the service
workload's job children and their pool workers).  Each process
appends its samples to its own file, one unbuffered write per sample,
so samples survive a child that leaves through ``os._exit``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Tuple

#: seconds of CPU time between two probes
PERIOD_S = 0.02
#: seconds one probe takes at the reference speed (speed 1.0)
REFERENCE_S = 0.0002


def probe() -> float:
    """A fixed piece of interpreter work; returns the seconds it took."""
    started = time.perf_counter()
    table = {"a": 1.0, "b": 2.0, "c": 3.0}
    total = 0.0
    for i in range(1200):
        x = table["a"] * i + table["b"]
        if x > 100.0:
            x -= table["c"]
        total += x
    return time.perf_counter() - started


class SpeedSampler:
    """Probes the speed of this process and of every process it forks.

    Samples are ``(monotonic end time, probe seconds)``, kept in
    ``<directory>/<pid>.txt``.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.pid = os.getpid()
        self._fd = None
        self._running = False

    def start(self) -> "SpeedSampler":
        os.makedirs(self.directory, exist_ok=True)
        self._running = True
        self._arm()
        os.register_at_fork(after_in_child=self._arm)
        return self

    def _arm(self) -> None:
        if not self._running:
            return
        if self._fd is not None:
            os.close(self._fd)  # the parent's file, inherited
        self._fd = os.open(
            os.path.join(self.directory, f"{os.getpid()}.txt"),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def _sample(self, *_) -> None:
        took = probe()
        os.write(self._fd, f"{time.monotonic()!r} {took!r}\n".encode())

    def stop(self) -> None:
        """Stops sampling here and in processes forked from now on."""
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def samples(self) -> Tuple[List[Tuple[float, float]],
                               List[Tuple[float, float]]]:
        """``(own samples, samples of forked processes)``."""
        own: List[Tuple[float, float]] = []
        forked: List[Tuple[float, float]] = []
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name), "r",
                      encoding="ascii") as handle:
                rows = [
                    (float(stamp), float(took))
                    for stamp, took in (line.split() for line in handle
                                        if line.endswith("\n"))
                ]
            (own if name == f"{self.pid}.txt" else forked).extend(rows)
        return own, forked

    def at_reference(self, raw_s: float, start: float, end: float
                     ) -> Tuple[float, float]:
        """``(reference seconds, mean speed)`` of an interval that took
        *raw_s* host seconds between the monotonic times *start* and
        *end*."""
        own, forked = self.samples()
        mine = [took for stamp, took in own if start <= stamp <= end]
        inside = mine + [took for stamp, took in forked
                         if start <= stamp <= end]
        if not inside:
            raise RuntimeError("no host-speed probe ran in the interval")
        speed = sum(REFERENCE_S / took for took in inside) / len(inside)
        return (raw_s - sum(mine)) * speed, speed
