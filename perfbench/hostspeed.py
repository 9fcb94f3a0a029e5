"""Host-speed probe: scales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host.  Load from other
tenants slows the same job by up to half, for periods from seconds to
minutes, and a slow period can cover a whole run.  No statistic over one
run's samples removes that, so every timed job is followed at once by a
probe: a fixed piece of work that uses numpy only, never the program.
Its parts feel the kinds of contention the workloads feel:

- ``loop``: an interpreter-bound loop of small-array numpy calls and
  dict stores, like the per-call work of ``compile`` and ``verify``;
- ``copy``: strided copies between two 4 MiB buffers, made once;
- ``alloc``: fresh 8 MiB arrays, written once each, like the states that
  ``wide`` allocates gate after gate.

Each workload names the parts that track its own slowdowns best
(WORKLOAD_PARTS).  The interpreter-bound part slows much more under load
than ``wide``'s large-array work, so ``wide`` uses ``alloc`` alone.

A job's scaled time is ``seconds * reference / probe_seconds``, where the
reference is the sum of REFERENCE_S over the probe's parts: the time the
job would take on a host where the probe takes its reference time.  A
change to the program moves the job's time and not the probe's, so it
shows in full in the scaled time.
"""

from __future__ import annotations

import time

import numpy as np

# The median time of each part on the 2-vCPU Intel Xeon cloud VM on which
# the benchmark was written; they only set the scale of the scaled times.
REFERENCE_S = {"loop": 0.015, "copy": 0.009, "alloc": 0.02}
WORKLOAD_PARTS = {
    "compile": ("loop", "copy"),
    "verify": ("loop", "copy"),
    "wide": ("alloc",),
}
LOOP_STEPS = 1500
COPY_AMPLITUDES = 1 << 18
COPIES = 8
ALLOC_AMPLITUDES = 1 << 19
ALLOCS = 16


class Probe:
    def __init__(self, parts: tuple[str, ...]) -> None:
        rng = np.random.default_rng(0)
        self.parts = [getattr(self, "_" + part) for part in parts]
        self.reference = sum(REFERENCE_S[part] for part in parts)
        self.small = rng.standard_normal(81) + 0j
        if "copy" in parts:
            self.big = rng.standard_normal(COPY_AMPLITUDES) + 0j
            self.spare = np.empty_like(self.big)
        self.samples: list[float] = []  # every probe time, in order

    def _loop(self) -> None:
        s, seen = self.small, {}
        for i in range(LOOP_STEPS):
            phases = np.exp(1j * s[:9].real)
            s = (s.reshape(9, 9) * phases).ravel() / np.linalg.norm(s)
            seen[i % 97] = s[i % 81]

    def _copy(self) -> None:
        a, b = self.big, self.spare
        for _ in range(COPIES):
            np.copyto(b.reshape(-1, 2, 2), a.reshape(2, -1, 2)[:, :, ::-1].transpose(1, 0, 2))
            a, b = b, a

    def _alloc(self) -> None:
        for _ in range(ALLOCS):
            fresh = np.ones(ALLOC_AMPLITUDES, dtype=np.complex128)
            fresh *= 2.0
            del fresh

    def measure(self) -> float:
        """Seconds the probe took this time."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Probe now, and scale ``seconds`` measured just before."""
        probe_s = self.measure()
        self.samples.append(probe_s)
        return seconds * self.reference / probe_s
