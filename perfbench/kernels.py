"""Kernel table: ``linalg.expm_hermitian`` on seeded Hermitian exponents.

Each exponent is scaled to an operator norm drawn from [0.01, 0.1], the
range of the Magnus steps the engine takes.  ``flops_computed`` is an
operation count computed from the dimension for the eigendecomposition
path (36 d^3 for a complex Hermitian eigensolve with vectors, 4 x the real
9 d^3 of Golub & Van Loan; 8 d^3 for the complex product V diag V^dag;
10 d^2 for the Hermitian check and the phases).  It is not measured.
d = 256 is the row a dry-run cost predictor needs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from aqc_shield import linalg

# dimension -> calls per timed batch, about 0.1 s each at the seed
KERNEL_DIMS = {16: 1000, 32: 400, 64: 150, 256: 6}
BATCHES = 5


def flops_computed(d: int) -> int:
    return 44 * d**3 + 10 * d**2


def _exponents(rng: np.random.Generator, d: int, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (m + m.conj().T) / 2
        out.append(h * (rng.uniform(0.01, 0.1) / np.linalg.norm(h, 2)))
    return out


def kernel_table(seed: int) -> dict:
    """µs per call (median over batches) and computed flops per dimension."""
    rng = np.random.default_rng(seed)
    out = {}
    for d, calls in KERNEL_DIMS.items():
        exponents = _exponents(rng, d, min(calls, 50))
        per_call = []
        for _ in range(BATCHES):
            start = time.perf_counter()
            for i in range(calls):
                linalg.expm_hermitian(exponents[i % len(exponents)], 1.0)
            per_call.append((time.perf_counter() - start) / calls)
        out[f"linalg.expm.d{d}.kernel_us"] = 1e6 * statistics.median(per_call)
        out[f"linalg.expm.d{d}.flops_computed"] = flops_computed(d)
    return out
