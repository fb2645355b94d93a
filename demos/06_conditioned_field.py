"""Exact conditioning of a finite-N Gaussian energy landscape.

Conditions one sampled field on the critical-point event (energy at the
start point, energy and full gradient at a pinned point) by the mean-swap
construction, and verifies the interpolation anchors plus rotation
equivariance of a short Langevin run.
"""

import numpy as np

from glassdyn import (
    ConditioningSpec, InitCondition, LangevinConfig, Mixture,
    sample_band_point, sample_system,
)
from glassdyn.hamiltonian import conditioned_field
from glassdyn.langevin import random_orthogonal, rotation_invariance_test

N = 40
m = Mixture({2: 1.0, 3: 0.5})
ic = InitCondition(q_star=0.7, E=0.4, E_star=-0.3, G_star=0.25, q_o=0.3)

# the spec pins x_star on the first axis and draws x0 on the band from ic
spec = ConditioningSpec(ic, N, seed=11)
x_star, x0 = spec.x_star, spec.x_0
field = conditioned_field(sample_system(m, N, seed=12), spec)

# one batch call evaluates the field at the anchors and at a fresh band point
probe = sample_band_point(ic, N, seed=13)
H0, Hs, Hp = field.value_batch(np.stack([x0, x_star, probe]))
print("interpolation anchors of the conditioned field:")
print(f"  H^c(x0)      = {H0:+.10f}   target -N E  = {-N * ic.E:+.10f}")
print(f"  H^c(x*)      = {Hs:+.10f}   target -N E* = {-N * ic.E_star:+.10f}")
grad_gap = np.abs(field.gradient_batch(x_star[None])[0] + ic.G_star * x_star).max()
print(f"  |grad H^c(x*) + G* x*|_inf = {grad_gap:.2e} (gradient pinned radially)")

# a generic point keeps its randomness, only the mean is shifted
print(f"  H^c at a fresh band point  = {Hp:+.4f} (not pinned)")

# the whole construction is equivariant under global rotations, pathwise
cfg = LangevinConfig(beta=0.3, T=0.5, h_obs=0.05)
ok, dev = rotation_invariance_test(field, random_orthogonal(N, 14), x0, x_star,
                                   cfg, seed=15)
print(f"\nrotation equivariance of a short run: deviation {dev:.2e} "
      f"({'pass' if ok else 'FAIL'})")
ok2, dev2 = rotation_invariance_test(field, random_orthogonal(N, 14), x0,
                                     x_star, cfg, seed=15, rotate_noise=False)
print(f"negative control (noise left unrotated): deviation {dev2:.2e} "
      f"({'breaks as expected' if not ok2 else 'UNEXPECTED'})")
