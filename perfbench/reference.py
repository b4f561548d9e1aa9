"""A fixed reference computation, timed next to every benchmark operation.

The speed of a shared host drifts: the same operation can take a third more
or less time from one stretch of seconds to the next, in CPU time as much as
in wall time.  Dividing each operation's time by the time of this fixed
computation, run on the same core just before and just after it, takes most
of that drift out, so that what is left is the cost of the program.

The computation does the same kinds of work as the workloads (canonical JSON
writing and parsing, list-to-array conversion, SHA-256 and a Python-level
loop) on data built from a fixed seed.  It never calls ``dprsim``, so no
change to the simulator changes it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time

import numpy as np

SIZE = 200_000


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20240613)
        self.data = {
            "amplitudes": [rng.random() for _ in range(SIZE)],
            "bits": [rng.randrange(4) for _ in range(SIZE)],
        }
        self.expected = self._compute()

    def _compute(self) -> tuple[str, float, int]:
        text = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        back = json.loads(text)
        amplitudes = np.asarray(back["amplitudes"], dtype=np.float64)
        bits = np.asarray(back["bits"], dtype=np.int8)
        total = 0
        for b in back["bits"]:
            if b & 1:
                total += b
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return digest, float(amplitudes.sum()), int(bits.sum()) + total

    def timed(self) -> float:
        """Wall time of one reference computation, checked against the first."""
        gc.collect()
        start = time.perf_counter()
        value = self._compute()
        elapsed = time.perf_counter() - start
        if value != self.expected:
            raise RuntimeError("the reference computation gave a different result")
        return elapsed
