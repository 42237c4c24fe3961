"""Reference values computed apart from qpquant.

Closed forms are evaluated at 50 significant digits with mpmath, directly
from their Gamma products.  The eigenspace functions phi and the kernel test
function f are evaluated from their definitions, the complex bilinear
pairing <X, A>_C = tr(rho(X) A^sharp) / 2 with A^sharp = J A^t J^(-1), using
a quaternion-to-2x2 embedding written out here rather than imported.
Nothing in this module imports qpquant.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath as mp

mp.mp.dps = 50

PI = mp.pi
LOG2 = mp.log(2)
LOGPI = mp.log(mp.pi)
A_S = mp.mpc(0, -1)
B_S = mp.mpc(0, 1)
DET_THETA = mp.mpf(1) / 8
B_H = -1 / (mp.sqrt(2) * PI ** 2)


def a_h(n):
    """Holomorphic-volume ratio constant of the cotangent model, 2^(n-2)."""
    return mp.mpf(2) ** (n - 2)


def lg(x):
    return mp.loggamma(mp.mpf(x))


def dim_eigenspace(n, l):
    """Exact dimension (2n/(2n+1)) (l+1)/(l+2n) (2l+2n+1) [(l+2n)! / ((2n)! (l+1)!)]^2."""
    c = Fraction(factorial(l + 2 * n), factorial(2 * n) * factorial(l + 1))
    val = Fraction(2 * n, 2 * n + 1) * Fraction(l + 1, l + 2 * n) * (2 * l + 2 * n + 1) * c * c
    if val.denominator != 1:
        raise ArithmeticError("eigenspace dimension is not an integer")
    return int(val)


def vol_sphere(m):
    """Volume of the unit sphere S^m, 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    return 2 * PI ** (mp.mpf(m + 1) / 2) / mp.gamma(mp.mpf(m + 1) / 2)


def vol_pnh(n):
    """Volume of the quaternion projective space, pi^(2n) / (2n+1)!."""
    return PI ** (2 * n) / mp.factorial(2 * n + 1)


def log_moment_s7(l):
    return 4 * LOGPI + lg(l + 1) + lg(1.5) - LOG2 - lg(l + 2.5)


def i_coeff(n, l):
    """I_l, the normalized projective-space moment of |<P, A>|^(2l)."""
    return mp.exp(-3 * l * LOG2 - LOG2 - 2 * LOGPI + (2 * n - 2) * LOGPI
                  + lg(2 * l + 4) - lg(2 * l + 2 * n + 2) + log_moment_s7(l))


def b_coeff(n, l):
    """b_l, the squared-norm ratio of the eigenspace embedding."""
    q = mp.mpf(6 * n)
    return mp.exp(mp.log(a_h(n)) / 2 - n * LOG2 / 2 + (-4 * l - 3) * LOGPI
                  - 2 * mp.log(2 * l + 2 * n + 1)
                  + 2 * lg(l + 1) + 2 * lg(l + 2)
                  - lg(l + n + mp.mpf(1) / 2) - lg(l + n + 1) - lg(l + 2 * n) - lg(l + 2 * n + 1)
                  + lg(l + (q + 2) / 4) + lg(l + (q + 3) / 4)
                  + lg(l + (q + 4) / 4) + lg(l + (q + 5) / 4))


def a_coeff(n, l):
    """a_l, the eigenvalue of the mixed-pairing operator T on H_l."""
    return mp.exp(mp.log(abs(B_H)) / 2 + 3 * LOG2 / 4 - (2 * l + mp.mpf(3) / 2) * LOGPI
                  + lg(l + 1) + lg(l + 2) + lg(l + 2 * n + mp.mpf(1) / 2)
                  - mp.log(2 * l + 2 * n + 1) - lg(l + 2 * n))


def c_coeff(n, l):
    """c_l, the eigenvalue of the sphere-descended operator on H_l."""
    k = 2 * l + 4 * n + mp.mpf(5) / 2
    return mp.exp(mp.log(abs(B_S)) / 2 + mp.log(vol_pnh(n)) - mp.log(dim_eigenspace(n, l))
                  + LOGPI / 2 - mp.log(4) + mp.log(vol_sphere(2)) + mp.log(vol_sphere(4 * n - 1))
                  - mp.log(l + 2 * n + mp.mpf(1) / 2) + lg(l + 2 * n) - lg(l + 2 * n + 0.5)
                  - LOG2 / 2 + lg(k) - k * mp.log(2 * PI))


def t_norm(n, l):
    """Operator norm of T on H_l, a_l / sqrt(b_l)."""
    return a_coeff(n, l) / mp.sqrt(b_coeff(n, l))


def kernel_diag(n, norm_a, rel=mp.mpf(10) ** -45):
    """Diagonal of the reproducing kernel, sum_l I_l |A|^(2l) / b_l, to convergence."""
    total, l = mp.mpf(0), 0
    norm_a = mp.mpf(norm_a)
    while True:
        term = i_coeff(n, l) * norm_a ** (2 * l) / b_coeff(n, l)
        total += term
        if l > 4 and term < rel * total:
            return total
        l += 1


# ------------------------------------------------ pairings from definitions

def _rho(x):
    """2x2 complex matrix of the quaternion x0 + x1 e1 + x2 e2 + x3 e3."""
    x0, x1, x2, x3 = (mp.mpc(v) for v in x)
    return mp.matrix([[x0 + 1j * x1, x2 + 1j * x3],
                      [-x2 + 1j * x3, x0 - 1j * x1]])


def _qmul(a, b):
    """Hamilton product with e1 e2 = e3, e2 e3 = e1, e3 e1 = e2."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def projector(p):
    """rho of the quaternion matrix (p_i theta(p_j)) for p of shape (m, 4)."""
    m = len(p)
    pts = [tuple(mp.mpf(float(v)) for v in row) for row in p]
    out = mp.matrix(2 * m, 2 * m)
    for i in range(m):
        for j in range(m):
            conj = (pts[j][0], -pts[j][1], -pts[j][2], -pts[j][3])
            blk = _rho(_qmul(pts[i], conj))
            for a in range(2):
                for b in range(2):
                    out[2 * i + a, 2 * j + b] = blk[a, b]
    return out


def _to_mp(a):
    rows, cols = len(a), len(a[0])
    out = mp.matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            v = complex(a[i][j])
            out[i, j] = mp.mpc(v.real, v.imag)
    return out


def sharp(a):
    """A^sharp = J A^t J^(-1), J block-diagonal with blocks [[0, 1], [-1, 0]]."""
    size = a.rows
    j = mp.matrix(size, size)
    for k in range(0, size, 2):
        j[k, k + 1] = 1
        j[k + 1, k] = -1
    return j * a.T * (-j)


def cpair(x, a):
    """<X, A>_C = tr(X A^sharp) / 2 for complex (2m, 2m) matrices."""
    prod = x * sharp(a)
    return sum(prod[k, k] for k in range(prod.rows)) / 2


def phi_value(p, amats, coeffs, l):
    """phi(p) = sum_k c_k <P(p), A_k>^l at a unit vector p of shape (m, 4)."""
    proj = projector(p)
    return sum(mp.mpc(complex(c)) * cpair(proj, _to_mp(a)) ** l for c, a in zip(coeffs, amats))


def f_value(c0, amats, coeffs, a_prime):
    """f(A') = c0 + sum_k c_k <A', A_k>_C."""
    ap = _to_mp(a_prime)
    return mp.mpc(complex(c0)) + sum(mp.mpc(complex(c)) * cpair(ap, _to_mp(a))
                                     for c, a in zip(coeffs, amats))
