"""Exact integer arithmetic for the closed-form expressions.

The closed forms pivot on perfect-square tests and ceilings of
``(a + sqrt(D)) / b``; everything here stays in integer arithmetic so
boundary cases are decided exactly.
"""

from math import isqrt


def is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def ceil_sqrt_ratio(a: int, disc: int, b: int) -> int:
    """Smallest integer t with t >= (a + sqrt(disc)) / b, for b > 0, disc >= 0.

    Uses the equivalence t >= (a + sqrt(disc))/b  <=>  t*b - a >= 0 and
    (t*b - a)^2 >= disc, so no floating point is involved.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    if disc < 0:
        raise ValueError("disc must be nonnegative")
    t = (a + isqrt(disc)) // b  # at most the true ceiling
    while t * b - a < 0 or (t * b - a) ** 2 < disc:
        t += 1
    return t

