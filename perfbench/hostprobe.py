"""Host-speed probe: fixed pure-numpy loops that do not touch pxkirchhoff.

The benchmark host switches between a fast and a slow state every few
seconds, and drifts over minutes; one task runs up to 1.5x slower in the
slow state while thread CPU time stays equal to wall time.  A plain wall
time then measures the host as much as the program, and the median of a
run jumps between the two states.  So each timed step (one set-up, one
task) is scaled by the mean of the probes timed right before and after it,
to a host on which one probe takes ``PROBE_REF_S`` seconds:

    scaled = measured * PROBE_REF_S / mean(probe times around it)

A change to pxkirchhoff cannot change the probe, so the scaled time moves
with the program only.
"""

import statistics
import time

import numpy as np

# About one probe's time on the 2-core Xeon (2.1 GHz) host the benchmark
# was written on; it fixes the scale of the reported times, nothing else.
PROBE_REF_S = 0.021

_X = np.linspace(0.1, 2.0, 4096)

# A random 2-D "mesh" the size of eig2d's: 4608 triangles on 2401 vertices.
_RNG = np.random.default_rng(0)
_ELEMENTS = _RNG.integers(0, 2401, (4608, 3))
_HAT = _RNG.random((4608, 3, 2))
_P = 2.0 + 0.2 * _RNG.random(4608)
_NODAL = _RNG.random(2401)


def probe() -> float:
    """Seconds for two fixed loops, about 10 ms each on the reference host:
    600 small numpy calls from Python (the per-call overhead of the 1-D
    workloads) and 13 gradient/assembly passes over a random 2-D mesh with
    a variable exponent (the array-bound work of the 2-D ones)."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(600):
        acc += float(np.dot(_X ** 2.2, _X)) / (1.0 + k)
    for _ in range(13):
        g = np.einsum("evd,ev->ed", _HAT, _NODAL[_ELEMENTS])
        w = np.linalg.norm(g, axis=1) ** (_P - 2.0)
        np.add.at(np.zeros(2401), _ELEMENTS, np.einsum("ed,evd->ev", w[:, None] * g, _HAT))
    return time.perf_counter() - t0


def probes(seconds: float) -> list[float]:
    """Probe times, for about ``seconds`` seconds and at least 3 probes."""
    times = []
    while len(times) < 3 or sum(times) < seconds:
        times.append(probe())
    return times


def scaled(seconds: float, probe_times: list[float]) -> float:
    """``seconds`` as it would read on the reference host."""
    return seconds * PROBE_REF_S / statistics.fmean(probe_times)
