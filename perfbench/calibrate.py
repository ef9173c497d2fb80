"""Host-speed calibration kernel.

A fixed mix of interpreter work (attribute updates, a dict build, ``min``
and ``sorted`` over 64 small objects) and small numpy kernels (a 64x128 by
128x128 matmul with ReLU): the kinds of work the repro hot paths do, without
importing repro.  How long it takes measures how fast the host runs such
code at the moment.  On a shared host that speed drifts by tens of percent
over tens of seconds; timing the kernel next to each measured call lets the
benchmark express its times in *reference seconds*, in which the kernel
takes exactly ``REFERENCE_S``.  A change to repro code cannot move the
kernel, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's duration, by definition, in reference seconds (about its
#: duration on a 2-core 2.1 GHz x86-64 host with one BLAS thread).
REFERENCE_S = 0.2
ROUNDS = 2500


class _Item:
    __slots__ = ("key", "load", "capacity")

    def __init__(self, key: int) -> None:
        self.key = key
        self.load = 0.0
        self.capacity = 1.0 + key % 7


def kernel_seconds() -> float:
    """Host seconds one run of the kernel takes now."""
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((64, 128))
    weights = rng.standard_normal((128, 128))
    vector = rng.standard_normal(128)
    items = [_Item(key) for key in range(64)]
    checksum = 0.0
    start = time.perf_counter()
    for step in range(ROUNDS):
        hidden = np.maximum(batch @ weights, 0.0)
        checksum += float(hidden[step % 64] @ vector)
        shares = {}
        for item in items:
            item.load = (item.load + step * 0.5) % item.capacity
            shares[item.key] = item.load / item.capacity
        checksum += min(shares, key=shares.get)
        checksum += sorted(shares.values())[32]
    return time.perf_counter() - start


def reference_seconds(host_seconds: float, kernel_s: float) -> float:
    """``host_seconds`` measured next to a kernel run of ``kernel_s``."""
    return host_seconds * REFERENCE_S / kernel_s
