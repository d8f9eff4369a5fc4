"""Derive the coefficients of the engine's embedded Magnus 8(6) pair.

Run from the root of a checkout (needs sympy, which the package does not
depend on):

    python3 tools/derive_magnus86.py

Over one step of length dt write t = t0 + dt (1/2 + s), s in [-1/2, 1/2],
and A = -iH = dt (X + g(s) Y) with X = -iP, Y = -iQ and g the cubic
g0 + g1 s + g2 s^2 + g3 s^3 through f at the four Gauss-Legendre nodes.  The
Magnus exponent Omega(s) of A solves Omega' = sum_n B_n / n! ad_Omega^n A
(B_1 = -1/2), Omega(-1/2) = 0.  The script expands Omega(1/2) in the free
associative algebra on {X, Y}, one word length at a time (a word of length
l carries dt^l), keeping terms of order l + g1-degree + 2 g2-degree +
3 g3-degree <= 7; g_k = f^(k) dt^k / k! + ..., so this is the order in dt.
Each length is projected on the Lyndon basis with standard bracketing.

It prints the node-to-coefficient matrix (the inverse of the Vandermonde
matrix of the nodes) and, per Lyndon word, the Omega6 row (order <= 5) and
the Omega8 - Omega6 row (order 7), in the layout of
``aqc_shield.engine._COMMUTATOR_WORDS`` and ``engine._magnus86_rows``.
It asserts that the even orders vanish.
"""

from __future__ import annotations

import itertools

import sympy as sp
from sympy import QQ
from sympy.polys.rings import ring

MAX_ORDER = 7
R, S, *G = ring("s,g0,g1,g2,g3", QQ)


def order(monomial, length):
    """The dt-order of a term: word length plus k per factor g_k."""
    return length + sum(k * e for k, e in enumerate(monomial[1:]))


def truncate(poly, length):
    return R.from_dict({m: c for m, c in poly.terms() if order(m, length) <= MAX_ORDER})


def add(a, b, scale=1):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, R.zero) + scale * c
    return {w: c for w, c in out.items() if c}


def commutator(a, b):
    """[a, b] of two homogeneous elements, truncated by order."""
    out = {}
    for (u, cu), (v, cv) in itertools.product(a.items(), b.items()):
        c = cu * cv
        out[u + v] = out.get(u + v, R.zero) + c
        out[v + u] = out.get(v + u, R.zero) - c
    length = len(next(iter(out))) if out else 0
    out = {w: truncate(c, length) for w, c in out.items()}
    return {w: c for w, c in out.items() if c}


def integrate(element):
    """s -> int_{-1/2}^{s} of every coefficient."""
    out = {}
    for w, c in element.items():
        terms = {}
        for (es, *eg), coef in c.terms():
            k = es + 1
            terms[(k, *eg)] = terms.get((k, *eg), 0) + coef / k
            # minus the value at s = -1/2
            lower = (0, *eg)
            terms[lower] = terms.get(lower, 0) - coef / k * QQ(-1, 2) ** k
        poly = R.from_dict({m: v for m, v in terms.items() if v})
        if poly:
            out[w] = poly
    return out


def magnus_by_length():
    """Omega(s) split by word length 1..MAX_ORDER, as dicts word -> poly."""
    g = G[0] + G[1] * S + G[2] * S**2 + G[3] * S**3
    a = {"X": R.one, "Y": truncate(g, 1)}
    # B_n / n!, with the sign convention B_1 = -1/2
    weights = [sp.bernoulli(n) / sp.factorial(n) for n in range(MAX_ORDER)]
    weights = [QQ(int(w.p), int(w.q)) for w in weights]
    weights[1] = QQ(-1, 2)
    omega = {1: integrate(a)}
    # ad[(l, n)]: the length-l part of ad_Omega^n A
    ad = {(1, 0): a}
    for length in range(2, MAX_ORDER + 1):
        for n in range(1, length):
            total = {}
            for m in range(1, length - n + 1):
                inner = ad.get((length - m, n - 1))
                if inner and omega.get(m):
                    total = add(total, commutator(omega[m], inner))
            if total:
                ad[(length, n)] = total
        deriv = {}
        for n in range(1, length):
            if (length, n) in ad:
                deriv = add(deriv, ad[(length, n)], weights[n])
        omega[length] = integrate(deriv)
    return omega


def lyndon_words(length):
    """Lyndon words over X < Y of one length, in increasing lexicographic order."""
    words = []
    for letters in itertools.product("XY", repeat=length):
        w = "".join(letters)
        if all(w < w[i:] + w[:i] for i in range(1, length)):
            words.append(w)
    return words


def standard_factors(w):
    """(u, v) with w = uv and v the longest proper Lyndon suffix."""
    for i in range(1, len(w)):
        v = w[i:]
        if all(v < v[j:] + v[:j] for j in range(1, len(v))):
            return w[:i], v
    raise ValueError(w)


def bracket_text(w):
    if len(w) == 1:
        return w
    u, v = standard_factors(w)
    return f"[{u}, {v}]"


def expansion(w, cache={}):
    """The standard bracketing of a Lyndon word as a polynomial in words."""
    if w not in cache:
        if len(w) == 1:
            cache[w] = {w: 1}
        else:
            u, v = standard_factors(w)
            out = {}
            for (x, cx), (y, cy) in itertools.product(expansion(u).items(), expansion(v).items()):
                out[x + y] = out.get(x + y, 0) + cx * cy
                out[y + x] = out.get(y + x, 0) - cx * cy
            cache[w] = {k: c for k, c in out.items() if c}
    return cache[w]


def lyndon_coordinates(element, length):
    """Coefficients on the bracketed Lyndon words; asserts nothing is left.

    The bracketing of w is w plus lexicographically larger words, so taking
    the words in increasing order makes the projection triangular.
    """
    rest = {w: c for w, c in element.items() if c}
    coords = {}
    for w in lyndon_words(length):
        c = rest.get(w, R.zero)
        if c:
            coords[w] = c
            for word, k in expansion(w).items():
                rest[word] = rest.get(word, R.zero) - k * c
        rest = {x: y for x, y in rest.items() if y}
    assert not rest, f"length {length} is not a Lie element: {rest}"
    return coords


def at_half(poly):
    """The coefficient at the end of the step, s = 1/2."""
    terms = {}
    for (es, *eg), c in poly.terms():
        terms[(0, *eg)] = terms.get((0, *eg), 0) + c * QQ(1, 2) ** es
    return R.from_dict({m: c for m, c in terms.items() if c})


def split_by_order(poly, length):
    parts = {}
    for m, c in poly.terms():
        parts.setdefault(order(m, length), {})[m] = c
    return {k: R.from_dict(v) for k, v in parts.items()}


def text(poly):
    if not poly:
        return "0"
    return str(poly.as_expr()).replace("**", "^")


def node_matrix():
    root = sp.sqrt(sp.Rational(6, 5))
    a = sp.sqrt(sp.Rational(3, 7) - sp.Rational(2, 7) * root) / 2
    b = sp.sqrt(sp.Rational(3, 7) + sp.Rational(2, 7) * root) / 2
    nodes = [-b, -a, a, b]
    vander = sp.Matrix(4, 4, lambda i, j: nodes[i] ** j)
    return nodes, vander.inv()


def main():
    nodes, inverse = node_matrix()
    print("nodes s on [-1/2, 1/2]:", ", ".join(repr(float(sp.N(x, 30))) for x in nodes))
    print("_NODE_TO_CUBIC = (")
    for i in range(4):
        row = ", ".join(repr(float(sp.N(sp.nsimplify(inverse[i, j]), 30))) for j in range(4))
        print(f"    ({row}),")
    print(")")
    omega = magnus_by_length()
    print(f"\n{'word':<8} {'bracket':<14} {'Omega6 row (order <= 5)':<34} Omega8 - Omega6 row (order 7)")
    words = 0
    for length in range(1, MAX_ORDER + 1):
        coords = lyndon_coordinates({w: at_half(c) for w, c in omega[length].items()}, length)
        for w in lyndon_words(length):
            parts = split_by_order(coords.get(w, R.zero), length)
            assert all(k % 2 == 1 for k in parts), f"even order in {w}: {parts}"
            low = sum((p for k, p in parts.items() if k <= 5), R.zero)
            high = parts.get(7, R.zero)
            if low or high:
                words += 1
                print(f"{w:<8} {bracket_text(w):<14} {text(low):<34} {text(high)}")
    print(f"\n{words} words")


if __name__ == "__main__":
    main()
