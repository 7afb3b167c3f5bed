"""Exploring the discrete quotient landscape with the TV solver.

The solver performs one projected subgradient descent on the discrete
quotient: every iterate is shifted back onto the constraint set and
renormalized, so each reported value is the exact quotient of a
feasible grid function, a rigorous upper bound for the discrete
problem.  Seeded with the best two-valued profile, it then explores
whether smoother candidates do better.
"""

import math

import numpy as np

from bvsharp import (
    DomainSpec,
    GridFunction,
    build_domain,
    grid_quotient,
    half_space_constant,
    minimize_quotient,
)

domain = build_domain(DomainSpec.disk(1.0), 1.0 / 128)
estimate = minimize_quotient(domain, 1.0, budget=80)

print(f"seed: two-valued profile at eps = {estimate.seed_eps:.4f} "
      f"(exact quotient {estimate.seed_value:.6f})")
print(f"solver estimate after {estimate.history.shape[0]} iterations: {estimate.value:.6f}")
print(f"threshold {half_space_constant(2):.6f} -> below: {estimate.below_threshold}")
print("best-quotient trace (every 10th iteration):")
for row in estimate.history[::10]:
    print(f"  iter {int(row[0]):>4d}   best {row[1]:.6f}   tv {row[3]:.6f}")

# Hand-crafted candidates can beat the boundary-cap family: splitting the
# disk along a diameter jumps by 2 across a chord of length 2, giving the
# quotient 4/sqrt(pi) ~ 2.2568, well below the cap-profile optimum.  Any
# feasible grid function is a legitimate upper bound.
gx, _ = domain.cell_centers()
split = GridFunction(domain, np.clip(gx / (4.0 * domain.h), -0.5, 0.5) * 2.0)
print(f"\ndiameter-split candidate: grid quotient {grid_quotient(split, 1.0):.6f} "
      f"(closed form 4/sqrt(pi) = {4.0 / math.sqrt(math.pi):.6f})")
