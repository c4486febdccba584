"""Host-speed calibration.

The speed of a shared host drifts: on the 2-core machine this benchmark was
written on, the same 1 ms pure-Python loop took 0.6 ms or 1.05 ms, switching
within seconds and holding for minutes.  So every time the benchmark reports
is scaled to a reference speed:

    reported = raw * reference / (calibration time measured next to it)

The calibration loops never call the package under test.  The pure-Python
loop tracks pure-Python ops.  Dense numpy work drifts less than it does (a
Kronecker product of 76 MB slowed 1.3x while the loop slowed 1.7x), so the
workload that mixes tree code with dense fine-graining is scaled by the
Python loop followed by a small dense Kronecker product.  The reference
constants live in record.json so that two commits are scaled alike.
"""

from __future__ import annotations

import statistics
import time


def calibration_loop() -> int:
    """A fixed pure-Python workload of about a millisecond."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 63] = acc
        acc = (acc + table.get((i * 7) & 63, i)) & 0xFFFF
    return acc


_DENSE = None


def dense_loop() -> complex:
    """A fixed 729 x 729 complex Kronecker product times a vector (8 MiB)."""
    global _DENSE
    import numpy as np

    if _DENSE is None:
        m = (np.arange(729).reshape(27, 27) % 7 + 1j).astype(complex)
        _DENSE = (m, np.eye(27, dtype=complex), np.ones(729, dtype=complex))
    m, eye, v = _DENSE
    return (np.kron(m, eye) @ v)[0]


def mixed_loop() -> None:
    calibration_loop()
    dense_loop()


LOOPS = {"python": calibration_loop, "mixed": mixed_loop}


class Calibrator:
    """Calibration samples taken between ops, and the scale they imply."""

    def __init__(self, reference: float, kind: str = "python", interval: float = 0.1):
        self.loop = LOOPS[kind]
        self.reference = reference
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        """Take a sample if none was taken in the last `interval` seconds."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def factor(self, window: int | None = None) -> float:
        """reference / median of the last `window` samples (all by default)."""
        recent = self.samples if window is None else self.samples[-window:]
        return self.reference / statistics.median(s for _, s in recent)

    def factor_around(self, start: float, end: float, margin: float = 0.5) -> float:
        """reference / mean of the samples taken within `margin` seconds of
        [start, end], or of the three nearest samples if there are none.

        The host switches between speeds within seconds, so an op is scaled by
        the samples around it rather than by a run-wide figure, and by their
        mean, which follows the mix of speeds the op ran at, where a median
        would pick one of them.
        """
        near = [s for t, s in self.samples if start - margin <= t <= end + margin]
        if not near:
            mid = (start + end) / 2
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:3]]
        return self.reference / statistics.mean(near)

    def samples_since(self, t0: float) -> list[list[float]]:
        return [[t - t0, s] for t, s in self.samples]


def measure_reference(kind: str, count: int = 400) -> float:
    """Median calibration time over `count` back-to-back samples."""
    cal = Calibrator(1.0, kind)
    for _ in range(count):
        cal.sample()
    return statistics.median(s for _, s in cal.samples)
