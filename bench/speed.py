"""A fixed reference computation that reads the machine's current speed.

On a shared host the same fixed work runs up to 40% faster or slower from
one stretch of seconds to the next, so wall clock alone drifts by more than
any bound worth gating on.  The benchmark therefore times this
computation between consecutive instances and divides each instance's wall
by the reference wall around it: the quotient is the instance's cost in
reference units, and it moves with the program far more than with the
neighbours (not perfectly: the two do not slow down by the same factor).

The computation mimics the mix the library spends its time in (the bundled
revised simplex): a sparse LU factorization, triangular solves, short numpy
vector operations and a Python loop around them.  It uses only numpy and
scipy, never the package under test, so no change to the program moves it.
It must not change once a baseline has been measured with it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SIZE = 800
FACTORIZATIONS = 2
SOLVES = 16


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20230210)
        a = sp.random(SIZE, SIZE, density=4.0 / SIZE, random_state=rng, format="csc")
        self.matrix = (a + sp.identity(SIZE, format="csc") * 4.0).tocsc()
        self.vectors = rng.standard_normal((SOLVES, SIZE))

    def work(self) -> float:
        acc = 0.0
        for _ in range(FACTORIZATIONS):
            lu = spla.splu(self.matrix, permc_spec="COLAMD")
            for v in self.vectors:
                z = lu.solve(v)
                z = np.where(z > 0.0, z, -z)
                q = int(np.argmax(z))
                acc += float(z[q]) + q
                for k in range(32):
                    acc += k * 0.5
        return acc

    def time(self) -> float:
        """Wall seconds of one pass of the reference work."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0
