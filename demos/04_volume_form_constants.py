"""Recovery of the five pairing constants from determinant ratios.

The holomorphic volume forms, Liouville forms (as Hermitian determinants
of the symplectic form on the complex tangent frame), and pullback volume
forms are evaluated on numerically computed complex tangent frames; their
pointwise ratios recover the constants that normalize the quantization
pairings.
"""

import math

import numpy as np

from qpquant import geometry as geo

rng = np.random.default_rng(3)

cons = geo.recover_constants(1, rng, npoints=6, det_points=60)
print("n = 1 recovered constants:")
print("  a_S        =", cons["a_S"], " (spread %.1e)" % cons["a_S_spread"])
print("  b_S        =", cons["b_S"], " (spread %.1e)" % cons["b_S_spread"])
print("  a_H        =", cons["a_H"], " (spread %.1e)" % cons["a_H_spread"])
print("  det theta' =", cons["det_theta"], " (spread %.1e)" % cons["det_theta_spread"])
print("  b_H        =", cons["b_H"], "  [-1/(sqrt(2) pi^2) =",
      -1.0 / (math.sqrt(2) * math.pi ** 2), "]")
print("  sphere orientation sign vs source conventions:", cons["orientation_sign"])

cons2 = geo.recover_constants(2, rng, npoints=4, det_points=10)
print("\nn = 2: a_H =", cons2["a_H"], " (2^(n-2) = 1)")

# the five constants satisfy the substitution identity, both sides -pi^2/4
lhs = 2 * math.pi ** 2 * (cons["a_S"] / cons["b_S"]) * cons["det_theta"]
rhs = (1 / math.sqrt(2)) ** 3 * cons["a_H"] / cons["b_H"]
print("\nsubstitution identity:", lhs, "=", rhs, "= -pi^2/4 =", -math.pi ** 2 / 4)

# away from the horizontal locus the dual-frame determinant moves
from qpquant import spaces as sp
vals = [geo.det_theta_prime(sp.tau_s(sp.random_es_generic(1, rng)))
        for _ in range(3)]
print("\ndet theta' off the horizontal locus:", np.round(vals, 6))
