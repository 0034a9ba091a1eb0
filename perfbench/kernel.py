"""A fixed reference kernel that measures the host's speed at the moment.

    import kernel; seconds = kernel.run()

On a shared host the same code runs at a speed that drifts by a third
within minutes. The kernel does a fixed amount of the kind of work the
program spends most of its time on (connected-component labeling of
128 x 128 masks with scipy.ndimage, and numpy mask arithmetic), using none
of the program's code. run.py times it before every scenario and divides
scenario times by it, which cancels most of the drift.

NOMINAL_S only fixes the scale of the ref_s unit: a time in ref_s is the
time the scenario would take on a host where one run() takes NOMINAL_S.
It was rounded from the kernel's median on the 2-CPU Xeon host the
benchmark was built on. It never changes, so ratios between commits do not
depend on it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

NOMINAL_S = 0.030
ROUNDS = 24

_MASKS = [np.random.default_rng(20061202).random((128, 128)) < p
          for p in (0.35, 0.45, 0.55, 0.65)]
_STRUCTURE = ndimage.generate_binary_structure(2, 1)


def run() -> float:
    """Seconds one fixed batch of labeling and mask arithmetic takes now."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        for mask in _MASKS:
            labels, n = ndimage.label(mask, structure=_STRUCTURE)
            np.bincount(labels.ravel(), minlength=n + 1)
            mask & ~np.roll(mask, 1, axis=0)
    return time.perf_counter() - t0
