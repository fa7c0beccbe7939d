"""Machine-speed sampling for the end-to-end times.

On the shared 2-vCPU host this benchmark was tuned on, a core flips
between a fast and a slow state within seconds; the slow state runs about
1.75x slower, so unscaled pass times spread 21-37% over six seeds.
Raw wall times cannot be made steady by repeating passes.

So a run pins itself and every command it starts to one CPU. While a
command runs, a thread in the benchmark times a fixed probe on that CPU
every PERIOD_S seconds. The probe is about 1 ms of gate-like
small-array work and uses no qkflow code. A command's time is scaled by
REFERENCE_S x mean(1 / probe time) over the probes taken during it. The
result is the seconds the command would take on a core where the probe
takes REFERENCE_S. A change to qkflow cannot move the probe, so a real
slowdown shows in full.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 0.001  # probe time that defines the reference core


def probe() -> float:
    """Seconds taken by one fixed probe: strided 2x2 updates and interpreter arithmetic."""
    start = time.perf_counter()
    amps = np.zeros(16, dtype=np.complex128)
    amps[0] = 1.0
    for layer in range(6):
        for q in range(4):
            c, s = math.cos(0.1 * layer), math.sin(0.1 * q)
            view = amps.reshape(-1, 2, 1 << q)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = c * a0 - s * a1
            view[:, 1, :] = s * a0 + c * a1
    total = 0
    for i in range(6000):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Background probe timings; use as a context manager around a run's timed commands."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            self.samples.append((start, probe()))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> SpeedSampler:
        self.samples.append((time.perf_counter(), probe()))  # factor() always has one
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured over [start, end]: REFERENCE_S x mean(1 / probe)."""
        inside = [d for t, d in list(self.samples) if start <= t <= end]
        if not inside:  # shorter than one period: use the nearest probe
            inside = [min(list(self.samples), key=lambda s: abs(s[0] - start))[1]]
        return REFERENCE_S * statistics.fmean(1.0 / d for d in inside)
