"""The pairing operators applied to eigenspace functions.

The direct operator reproduces eigenfunctions up to the constant a_l, the
sphere-descended operator up to c_l, and both intertwine the classical
phase flow with the quantum phase e^(-it(2l+2n+1)).
"""

import numpy as np

from qpquant import quantization as qz
from qpquant import spaces as sp
from qpquant import spectral as spl
from qpquant.numerics import MCConfig

rng = np.random.default_rng(5)
cfg = MCConfig(samples=300_000, seed=42)

for l in (0, 1):
    phi = spl.random_hl_function(1, l, 2, rng)
    pprime = sp.random_es0(1, 1.0, rng).p
    base = complex(phi.eval_sphere(pprime[None])[0])

    est = qz.t_apply_eigenfunction(phi, pprime, cfg)
    print(f"l={l}: T(embedded phi)      = {est.value:.6g}")
    print(f"      a_l phi(P')          = {qz.a_coeff(1, l) * base:.6g}")

    est2 = qz.t_tilde_apply_eigenfunction(phi, pprime, cfg)
    print(f"      descended operator   = {est2.value:.6g}")
    print(f"      c_l phi(P')          = {qz.c_coeff(1, l) * base:.6g}")

# the operator applied to a constant is constant: the l = 0 embedding of
# phi = 1 is the constant vol(P^1 H), so T(1) is T of that embedding over vol
p1 = sp.random_es0(1, 1.0, rng).p
p2 = sp.random_es0(1, 1.0, rng).p
one = spl.HlFunction(n=1, l=0, amats=phi.amats[:1], coeffs=(1.0,))
v1 = qz.t_apply_eigenfunction(one, p1, MCConfig(samples=2000, seed=7))
v2 = qz.t_apply_eigenfunction(one, p2, MCConfig(samples=2000, seed=7))
print("\nT(1) at two base points:", (v1.value / qz.vol_pnh(1)).real,
      (v2.value / qz.vol_pnh(1)).real)

# flow commutation: the scalar phases agree exactly, and the operator-level
# identity holds pointwise within the Monte Carlo tolerance
print("\nscalar phase identity residual:", qz.flow_commutation_scalar(1, 1, 0.7))
phi = spl.random_hl_function(1, 1, 2, rng)
resid, stderr = qz.flow_commutation_operator_check(
    phi, p1, 0.7, MCConfig(samples=100_000, seed=9))
print("operator-level residual:", resid, "(stderr", stderr, ")")
print("phase at t=pi (classical period) :",
      np.exp(-1j * np.pi * 5), " -- quantum period is 2 pi")
