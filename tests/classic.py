"""Classic sums and products that the tests check the package against.

These are closed forms from the paper's setting rather than parts of the
package: the alternating binomial power sum behind the root-sum identity, the
vanishing sum of the Chebyshev cosine zeros, the binomial sum of the general
Lucas numbers, and the two cosine product forms of the classic Fibonacci
numbers.
"""

import math
from typing import Tuple

from seqfam.families import FIB, X


def gould_sum(n: int) -> int:
    """Alternating binomial power sum  sum_{l=1..n} (-1)^l C(n,l) l^(n+1).

    Closed form: (-1)^n * n! * n(n+1)/2.  The sign of this sum is load-bearing
    for the root-sum identity of the catalog, so the closed form is re-checked
    on every call.
    """
    if n < 1:
        raise ValueError(f"gould_sum requires n >= 1, got {n}")
    total = sum((-1) ** l * math.comb(n, l) * l ** (n + 1) for l in range(1, n + 1))
    closed = (-1) ** n * math.factorial(n) * (n * (n + 1) // 2)
    if total != closed:
        raise ArithmeticError(f"gould_sum closed form mismatch at n={n}: {total} != {closed}")
    return total


def chebyshev_zero_sum(n: int) -> float:
    """sum_{l=1..n} cos(l*pi/(n+1)); symmetric zeros, so ~0 to rounding."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(math.cos(l * math.pi / (n + 1)) for l in range(1, n + 1))


def lucas_binomial_sum(q: int, n: int, m: int) -> int:
    """General Lucas number L[n+1] of L[k] = m*L[k-1] - q*L[k-2], L[0] = 0, L[1] = 1:

        sum_{k=0..floor(n/2)} C(n-k, k) (-q)^k m^(n-2k).
    """
    return sum(math.comb(n - k, k) * (-q) ** k * m ** (n - 2 * k) for k in range(n // 2 + 1))


def classic_fibonacci_products(n: int) -> Tuple[float, float]:
    """Both product forms for the classic Fibonacci number F_n, n >= 2.

    Returns (real_form, complex_form): the product of (3 + 2cos(2*l*pi/n))
    over l = 1..floor((n-1)/2), and the real part of the product of
    (1 - 2i*cos(l*pi/n)) over l = 1..n-1.  Both equal F_n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    real_form = 1.0
    for l in range(1, (n - 1) // 2 + 1):
        real_form *= 3.0 + 2.0 * math.cos(2.0 * l * math.pi / n)
    complex_form = complex(1.0, 0.0)
    for l in range(1, n):
        complex_form *= complex(1.0, -2.0 * math.cos(l * math.pi / n))
    return real_form, complex_form.real


def classic_fibonacci(n: int) -> int:
    """Exact F_n (F_0 = 0, F_1 = 1) via the generalized Fibonacci family."""
    if n == 0:
        return 0
    return X(FIB, n - 1, 1)
