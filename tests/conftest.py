"""Shared fixtures."""

import math
import random

import pytest

from thetamod.modgroup import Sl2Matrix


@pytest.fixture(scope="session")
def huge_matrices():
    """50 seeded SL(2,Z) matrices, c log-uniform in [10^6, 10^18], c > 0.

    d is drawn coprime to c with either sign, a is the inverse of d mod c
    shifted by a few multiples of c, and b = (ad - 1)/c.
    """
    rng = random.Random(2024)
    out = []
    while len(out) < 50:
        c = int(10 ** rng.uniform(6, 18))
        d = rng.randint(-c, c)
        if d == 0 or math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, c) + c * rng.randint(-3, 3)
        out.append(Sl2Matrix(a, (a * d - 1) // c, c, d))
    return out
