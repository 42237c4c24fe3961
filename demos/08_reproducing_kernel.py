"""The reproducing kernel of the holomorphic Hilbert space.

The diagonal kernel is an entire power series whose terms decay
superexponentially; the sum stops where its proven tail bound is below half
an ulp of the value, low-degree
functions are reproduced by the weighted pairing, and evaluations are
bounded by the diagonal.
"""

import math

import numpy as np

from qpquant import quantization as qz
from qpquant import spaces as sp
from qpquant.numerics import MCConfig

rng = np.random.default_rng(6)

norm_a = 2.0 * math.sqrt(2.0)
print("diagonal kernel terms at |A| =", norm_a)
for l in range(7):
    print(f"  l={l}: {math.exp(qz.log_kernel_term(1, l, norm_a)):.6g}")
val, tail = qz.kernel_diag(1, norm_a)
print("diagonal value:", val, " proven tail bound:", tail)

# term ratios fall superexponentially: the series is entire in |A|
ratios = [math.exp(qz.log_kernel_term(1, l + 1, norm_a)
                   - qz.log_kernel_term(1, l, norm_a)) for l in range(6)]
print("term ratios:", np.round(ratios, 5))

# reproduction of a low-degree function by the weighted pairing
a1 = sp.tau_h(sp.random_eh(1, math.sqrt(2.0), rng)).A
aprime = sp.tau_h(sp.random_eh(1, 1.5, rng)).A
fval, rec = qz.kernel_reproduce_check(0.7, [a1], [0.4 - 0.3j], aprime, 1,
                                      MCConfig(samples=400_000, seed=11))
print("\nf(A')          =", fval)
print("<f, R(., A')>  =", rec.value, "+-", rec.stderr)

# evaluation bound |f(A')| <= sqrt(R(A', A')) ||f||
lhs, bound, slack = qz.kernel_norm_bound_check(0.7, [a1], [0.4 - 0.3j], aprime, 1,
                                               MCConfig(samples=200_000, seed=12))
print("\n|f(A')| =", lhs, " <= ", bound, " (MC slack", slack, ")")

# growth rate of the norm constants underlying the entire-function claim
l0 = 10_000
growth = math.exp(qz.log_b_coeff(1, l0) - qz.log_b_coeff(1, l0 + 1)) * l0 ** 4 / math.pi ** 4
print("\nnorm-constant growth l^4/pi^4 ratio at l = 10^4:", growth)
