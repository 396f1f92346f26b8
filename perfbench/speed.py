"""Machine-speed reference: a fixed stdlib loop timed between units.

The host this benchmark was tuned on gives it two vCPUs of a shared
machine whose speed drifts by tens of percent within seconds and from one
minute to the next (NOTES.md, noise floor). Every timing the runner
reports is therefore scaled to a nominal machine speed: after each unit,
outside the timed region, the runner times one chunk of a fixed Fraction
loop that never touches credal, and each unit's time is multiplied by
NOMINAL_S over the mean chunk time around it (WINDOW chunks on either
side). A change to credal moves the scaled times exactly as it moves the
raw ones; a change in machine speed moves the chunk as well and cancels.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Scaled times are those of a machine on which one chunk takes 5 ms.
NOMINAL_S = 0.005
# Chunks on either side of a unit that set its local speed.
WINDOW = 5


def _chunk() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return total


class Reference:
    """Chunk times of one run, one per unit, in the order taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one chunk; the collector is off so credal's heap cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            _chunk()
            self.samples.append(perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """NOMINAL_S over the mean chunk time of the whole run."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def scaled(self, times: list[float]) -> list[float]:
        """Each time scaled by the chunks taken around it; one chunk per time."""
        if len(times) != len(self.samples):
            raise ValueError(f"{len(times)} times but {len(self.samples)} chunks")
        return [
            t * NOMINAL_S / statistics.fmean(self.samples[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(times)
        ]
