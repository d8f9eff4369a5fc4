"""Derive the constants of ``aqc_shield.linalg.expm_antihermitian``'s polynomial.

Run from the root of a checkout (needs mpmath, which the package does not
depend on):

    python3 tools/derive_expm8.py

For A = -i t h with Hermitian h, A is normal with eigenvalues i x, x real,
so ||p(A) - e^A||_2 = max over those x of |p(i x) - e^{i x}|.  The kernel
bounds |x| by theta = sqrt(||A^2||_1) and needs p only on the imaginary
segment [-i theta_8, i theta_8].  There p is the degree-8 interpolant of
e^{i x} at the nine Chebyshev nodes of [-theta_8, theta_8], whose error is
at most 2 (theta_8 / 2)^9 / 9!.  Written in powers of A, p(A) = sum_k b_k A^k
with real b_k (cos x is even and sin x odd in the nodes' symmetric layout).

Sastre's formula (J. Sastre, Linear Algebra Appl. 539, 229 (2018)) takes
three matrix products for any degree-8 polynomial:

    y0 = A^2 (c4 A^2 + c3 A)
    p  = (y0 + d2 A^2 + d1 A)(y0 + e2 A^2) + e0 y0 + f2 A^2 + f1 A + f0 I.

Matching powers gives c4 = sqrt(b8), c3 = b7 / (2 c4), d2 + e2 =
(b6 - c3^2) / c4, d1 = (b5 - (d2 + e2) c3) / c4, one quadratic for e2 from
the A^4 and A^3 terms, then e0 = (b3 - d1 e2) / c3, and (f2, f1, f0) =
(b2, b1, b0).  The root with the smaller |e0| is kept.

The constants are rounded to float64, expanded back exactly
(:mod:`fractions`), and the stored polynomial's error max |p(i x) - e^{i x}|
on [-theta_8, theta_8] is bounded: its largest value on a 401-point grid
plus a curvature term that covers the gaps (:func:`error_bound`).  theta_8 is the largest design
point, to four digits, whose stored polynomial stays within 2^-53.  The
script prints theta_8, b_0..b_8, the nine constants with ``repr`` in the
layout of ``linalg.EXPM8_CONSTANTS`` and the bound, and asserts the bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 60
UNIT = 2.0**-53
NAMES = ("c4", "c3", "d2", "d1", "e2", "e0", "f2", "f1", "f0")


def monomial_coefficients(theta):
    """b_0..b_8 of the interpolant of e^{ix} at the Chebyshev nodes of
    [-theta, theta], as coefficients of powers of A = i x."""
    nodes = [theta * mp.cos((2 * j + 1) * mp.pi / 18) for j in range(9)]
    vander = mp.matrix([[mp.mpc(1j * x) ** k for k in range(9)] for x in nodes])
    b = mp.lu_solve(vander, mp.matrix([mp.exp(1j * x) for x in nodes]))
    assert max(abs(c.imag) for c in b) < mp.mpf(10) ** -50
    return [c.real for c in b]


def factorization(b):
    c4 = mp.sqrt(b[8])
    c3 = b[7] / (2 * c4)
    s = (b[6] - c3**2) / c4
    d1 = (b[5] - s * c3) / c4
    # e2^2 - B e2 - C = 0, from the A^4 and A^3 terms with d2 = s - e2
    big_b = s - c4 * d1 / c3
    big_c = d1 * c3 + c4 * b[3] / c3 - b[4]
    root = mp.sqrt(big_b**2 + 4 * big_c)
    best = None
    for e2 in ((big_b + root) / 2, (big_b - root) / 2):
        e0 = (b[3] - d1 * e2) / c3
        if best is None or abs(e0) < abs(best[5]):
            best = (c4, c3, s - e2, d1, e2, e0, b[2], b[1], b[0])
    return best


def expand(constants):
    """Exact monomial coefficients of Sastre's formula for ``constants``."""
    c4, c3, d2, d1, e2, e0, f2, f1, f0 = (Fraction(c) for c in constants)
    y0 = [0, 0, 0, c3, c4]
    left = [0, d1, d2, c3, c4]
    right = [0, 0, e2, c3, c4]
    p = [Fraction(0)] * 9
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            p[i + j] += u * v
    for k, c in enumerate((f0, f1, f2)):
        p[k] += c
    for k, c in enumerate(y0):
        p[k] += e0 * c
    return p


def error_bound(coefficients, theta, points=401):
    """An upper bound on max |e(x)|, e(x) = p(i x) - e^{i x}, over |x| <= theta.

    e(x) = sum_k s_k (i x)^k with s_k = b_k - 1/k! (b_k = 0 for k > 8).  On
    each gap of a grid of spacing h, e differs from its chord by at most
    max |e''| h^2 / 8, and the chord is no larger than e at an end; max |e''|
    is bounded term by term.  |e| is even, so half the grid is evaluated.
    """
    theta = mp.mpf(theta)
    s = [mp.mpf(c.numerator) / c.denominator - 1 / mp.factorial(k)
         for k, c in enumerate(coefficients)]
    s += [-1 / mp.factorial(k) for k in range(9, 60)]
    h = 2 * theta / (points - 1)
    grid = max(abs(sum(c * (1j * j * h) ** k for k, c in enumerate(s)))
               for j in range(points // 2 + 1))
    curvature = sum(k * (k - 1) * abs(c) * theta ** (k - 2) for k, c in enumerate(s) if k > 1)
    return grid + curvature * h**2 / 8


def stored(theta):
    constants = tuple(float(c) for c in factorization(monomial_coefficients(mp.mpf(theta))))
    return constants, error_bound(expand(constants), theta)


def main():
    # The interpolation bound alone reaches 2^-53 at 2 (9! 2^-54)^(1/9).
    limit = 2 * (math.factorial(9) * 2.0**-54) ** (1 / 9)
    print(f"interpolation bound 2 (theta/2)^9 / 9! = 2^-53 at theta = {limit:.6f}")
    theta = math.floor(limit * 1e4) / 1e4
    constants, bound = stored(theta)
    while bound > UNIT:
        theta = round(theta - 1e-4, 4)
        constants, bound = stored(theta)
    print(f"EXPM8_THETA = {theta!r}")
    for k, c in enumerate(monomial_coefficients(mp.mpf(theta))):
        print(f"b{k} = {mp.nstr(c, 25)}    (1/{k}! = {mp.nstr(1 / mp.factorial(k), 25)})")
    print("EXPM8_CONSTANTS = (  # " + ", ".join(NAMES))
    for name, c in zip(NAMES, constants):
        print(f"    {c!r},  # {name}")
    print(")")
    print(f"stored polynomial: max |p(ix) - e^(ix)| on |x| <= theta_8 is at most "
          f"{mp.nstr(bound, 6)} = {mp.nstr(bound / UNIT, 4)} * 2^-53")
    assert bound <= UNIT
    print(f"theta_8 + 1e-4 reaches {mp.nstr(stored(round(theta + 1e-4, 4))[1] / UNIT, 4)} * 2^-53")


if __name__ == "__main__":
    main()
