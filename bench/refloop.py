"""The fixed pure-Python loop that request and set-up times are scaled by.

It imports only `math` and `time`, so a fresh interpreter can time it
around a cold import of the package without importing anything the
package needs.  See "Scaling by a reference loop" in README.md.
"""

import math
import time


def reference_loop() -> float:
    """A fixed pure-Python loop (float math, calls, formatting, big integers)."""
    total = 0.0
    for i in range(1, 3000):
        x = math.sqrt(i) * 0.5
        total += math.atan2(x, 1.0) + len(format(x, ".17g")) + math.comb(40, i % 40) % 7
    return total


def reference_seconds() -> float:
    """Median wall time of three reference loops."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]
