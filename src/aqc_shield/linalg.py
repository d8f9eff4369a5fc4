"""Dense complex-matrix kernel: norms, exponentials, logarithms, partial trace.

Everything here works on plain ``numpy.ndarray`` values.  The exponential
of an anti-Hermitian exponent is one fixed degree-8 polynomial taken in
three matrix products, with scaling and squaring, within unit roundoff of
the exponential on the exponent's imaginary spectrum
(:func:`expm_antihermitian`); :func:`expm_hermitian` checks a Hermitian h
and hands it -i t h.  The unitary logarithm goes through the unitary's
eigenvectors, taken from a Hermitian Cayley transform with NumPy's
eigensolvers, rather than a series expansion, which is exact to roundoff
and makes the principal branch explicit.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-10

# Sastre's three-product form (Linear Algebra Appl. 539, 229 (2018)) of p:
# p(A) = (y0 + d2 A^2 + d1 A)(y0 + e2 A^2) + e0 y0 + f2 A^2 + f1 A + f0 I
# with y0 = A^2 (c4 A^2 + c3 A).  tools/derive_expm8.py derives the constants
# and bounds |p(ix) - e^{ix}| <= 0.98 * 2^-53 for |x| <= EXPM8_THETA.
EXPM8_THETA = 0.127
EXPM8_CONSTANTS = (  # c4, c3, d2, d1, e2, e0, f2, f1, f0
    0.0049791152340849555, 0.01991445315899858, 0.0767170224969426,
    0.8765651650210435, 0.12257608012663052, 2.9737570137925804,
    0.49999999999999933, 0.9999999999999934, 1.0,
)
_C4, _C3, _D2, _D1, _E2, _E0, _F2, _F1, _F0 = EXPM8_CONSTANTS
# Real rows over (A, A^2) for y0's right factor, over (A, A^2, y0) for p's.
_Y0_ROW = np.array([_C3, _C4])
_P_ROWS = np.array([[_D1, _D2, 1.0], [0.0, _E2, 1.0], [_F1, _F2, _E0]])


class BranchCutError(ArithmeticError):
    """A unitary has an eigenphase at the +/- pi branch boundary."""


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def op_norm(a: np.ndarray) -> float:
    """Operator norm: the largest singular value."""
    return float(np.linalg.norm(a, 2))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1 = Tr|A|: the sum of singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a``'s real part as a contiguous float64 array when its imaginary part
    is exactly zero, else ``a`` itself: the values are unchanged either way."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL, what: str = "operator") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} is not a square matrix (shape {a.shape})")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian within {tol:g} (deviation {dev:.3e})")


def require_unitary(u: np.ndarray, tol: float = DEFAULT_TOL, what: str = "operator") -> None:
    d = u.shape[0]
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if dev > tol:
        raise ValueError(f"{what} is not unitary within {tol:g} (deviation {dev:.3e})")


def real_combination(weights: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The real combination(s) ``weights @ entries`` of (k, d, d) complex
    entries: one real product, since real weights act on the real and
    imaginary parts alike.  A (k,) weight vector gives one (d, d) matrix,
    a (r, k) array r of them."""
    d = entries.shape[-1]
    combined = weights @ entries.reshape(len(entries), -1).view(float)
    return combined.view(complex).reshape(*weights.shape[:-1], d, d)


def expm_hermitian(h: np.ndarray, t: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i t h) for Hermitian h: :func:`expm_antihermitian` of -i t h.

    ``h`` must be a square matrix, Hermitian within ``tol``, and is
    replaced by its Hermitian part, so the exponent is anti-Hermitian.
    """
    require_hermitian(h, tol, "exponent")
    return expm_antihermitian(-1j * t * (0.5 * (h + h.conj().T)))


def expm_antihermitian(a: np.ndarray) -> np.ndarray:
    """exp(a) for anti-Hermitian a, taken as given, by a fixed degree-8
    polynomial p.

    A^2 is formed first and theta = sqrt(||A^2||_1), the square root of its
    largest column sum: an upper bound on ||A||_2, since ||A||_2^2 =
    ||A^2||_2 for anti-Hermitian A, and never above ||A||_1.  A is normal,
    so ||p(A) - e^A||_2 is the largest |p(ix) - e^{ix}| at its eigenvalues
    ix, |x| <= theta: p, the Chebyshev interpolant of e^{ix} on
    |x| <= :data:`EXPM8_THETA`, is within 2^-53 there.  Above that A is
    scaled by 2^-s and p squared s times.  p takes three products, its sums
    being real row combinations of one buffer holding A, A^2 and y0.  The
    result is unitary to roundoff.  ``a`` is not checked: an exponent that
    is not anti-Hermitian loses the bound above, and one with a non-finite
    norm raises ``ValueError``.
    """
    d = a.shape[0]
    powers = np.empty((3, d, d), dtype=complex)
    powers[0] = a
    np.matmul(powers[0], powers[0], out=powers[1])
    theta = math.sqrt(float(np.abs(powers[1]).sum(axis=0).max()))
    if not math.isfinite(theta):
        raise ValueError(f"exponent has non-finite norm {theta}")
    squarings = math.ceil(math.log2(theta / EXPM8_THETA)) if theta > EXPM8_THETA else 0
    if squarings:
        powers[0] *= 2.0**-squarings
        powers[1] *= 4.0**-squarings
    np.matmul(powers[1], real_combination(_Y0_ROW, powers[:2]), out=powers[2])
    left, right, rest = real_combination(_P_ROWS, powers)
    p = left @ right
    p += rest
    p.flat[:: d + 1] += _F0
    for _ in range(squarings):
        p = p @ p
    return p


def logm_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H on the principal branch with exp(-iH) = u.

    The eigenvectors come from the Hermitian Cayley transform
    C = i(I - w)(I + w)^-1 of w = e^{i(pi - m)} u, where m is the middle of
    the widest gap between u's eigenphases: C has eigenvalues tan(phi/2)
    for the eigenphases phi of w, which stay clear of pi and are strictly
    monotone in phi, so distinct eigenphases of u never mix.  With Q the
    eigenvectors of C, Q^dag u Q is diagonal for a (numerically) unitary
    input and H = Q diag(-angle) Q^dag is Hermitian by construction.
    ``u`` must be unitary within :data:`DEFAULT_TOL`.  Raises
    :class:`BranchCutError` when an eigenphase of u falls within 1e-10 of
    the +/- pi boundary, where the principal branch is ambiguous.
    """
    require_unitary(u, DEFAULT_TOL, "log argument")
    d = u.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    w = u * np.exp(1j * (np.pi - phases[widest] - gaps[widest] / 2))
    eye = np.eye(d)
    cayley = np.linalg.solve(eye + w, 1j * (eye - w))
    _, q = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    t_mat = q.conj().T @ u @ q
    diag = np.diag(t_mat)
    off = float(np.max(np.abs(t_mat - np.diag(diag)))) if d > 1 else 0.0
    if off > 100 * DEFAULT_TOL:
        raise ValueError(f"Q^dag u Q not diagonal (off-diagonal {off:.3e}); input not normal?")
    phases = np.angle(diag)
    if np.any(np.abs(np.abs(phases) - np.pi) < 1e-10):
        raise BranchCutError("eigenphase at the +/- pi boundary; principal branch is ambiguous")
    h = (q * (-phases)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """The marginal of a two-factor operator on the factor ``keep`` names.

    Args:
        rho: density matrix (or any operator) on the product space.
        dims: (d_a, d_b), the two factors' dimensions in kron order.
        keep: (0,) for the first factor's marginal, (1,) for the second's.
    """
    if len(dims) != 2 or tuple(keep) not in ((0,), (1,)):
        raise ValueError(f"need two factors and keep (0,) or (1,), got dims {dims}, keep {keep}")
    d_a, d_b = (int(d) for d in dims)
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    traced = 1 - keep[0]
    return np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=traced, axis2=traced + 2)
