"""The quantization constants and their independent oracles.

Every closed-form Gamma product is cross-checked: moments by sphere Monte
Carlo, the norm constant by two assemblies and by MC of its defining
integral, the operator constants by 1-D adaptive quadrature (c_l as the
product of its radial and angular factors).
"""

import math

from qpquant import quantization as qz
from qpquant.numerics import MCConfig

print("moment I_0(n=1) =", qz.i_coeff(1, 0), "= vol =", qz.vol_pnh(1))
print("seven-sphere moment at l=1:", qz.moment_s7(1), "= 2 pi^4/15 =",
      2 * math.pi ** 4 / 15)

est = qz.i_coeff_mc(1, 2, MCConfig(samples=500_000, seed=0))
print("I_2(n=1): closed", qz.i_coeff(1, 2), " MC", est.value, "+-", est.stderr)

print("\nconstants table (n = 1):")
print(f"{'l':>2} {'I_l':>12} {'b_l':>12} {'a_l':>12} {'c_l':>12} "
      f"{'a/sqrt(b)':>10} {'c/a':>8}")
for row in qz.constants_table(1, range(4)):
    print(f"{row.l:>2} {row.i_coeff:>12.6g} {row.b_coeff:>12.6g} "
          f"{row.a_coeff:>12.6g} {row.c_coeff:>12.6g} {row.t_norm:>10.6f} "
          f"{row.ratio_c_over_a:>8.5f}")

print("\noracles:")
print("b_1 semianalytic rel err:",
      abs(qz.b_coeff(1, 1) - qz.b_coeff_semianalytic(1, 1)) / qz.b_coeff(1, 1))
best = qz.b_coeff_mc(1, 1, MCConfig(samples=400_000, seed=1))
print("b_1 defining-integral MC:", best.value, "+-", best.stderr)
print("a_3 quadrature rel err:",
      abs(qz.a_coeff(1, 3) - qz.a_coeff_quadrature(1, 3)) / qz.a_coeff(1, 3))
print("c_3 radius x angle quadrature rel err:",
      abs(qz.c_coeff(1, 3) - qz.c_coeff_quadrature(1, 3)) / qz.c_coeff(1, 3))

print("\nlimits (computed at l = 10^6 through log-gamma):")
print("operator norm a_l/sqrt(b_l)  ->", qz.t_norm_limit(1),
      "  [2/pi =", 2 / math.pi, "]")
print("printed-variant constant sqrt(2)/pi =", qz.t_norm_prefactor(1, 1),
      " (differs by sqrt 2; see README)")
print("ratio c_l/a_l ->", qz.c_over_a(1, 10 ** 6), "  [pi/2 =", math.pi / 2, "]")
