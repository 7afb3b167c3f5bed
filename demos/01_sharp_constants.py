"""The special constants behind the sharp BV inequalities.

The isoperimetric constant c*_n = pi^(1/2) n / Gamma(n/2+1)^(1/n)
measures the sharp trade-off between perimeter and L^{n/(n-1)} mass on
all of R^n; its half-space counterpart c*_n / 2^(1/n) is the relevant
threshold on a domain boundary.  Both come from the half-integer Gamma
recurrence, and the identity c*_n = n omega_n^(1/n) gives a free
cross-check.
"""

from bvsharp import (
    euler_beta,
    half_space_constant,
    sharp_sobolev_constant,
    unit_ball_volume,
)

print("n    omega_n         c*_n            c*_n / 2^(1/n)   cross-check")
for n in range(2, 11):
    omega_n, c_star = unit_ball_volume(n), sharp_sobolev_constant(n)
    alt = n * omega_n ** (1.0 / n)
    print(f"{n:<4d} {omega_n:<15.10f} {c_star:<15.10f} "
          f"{half_space_constant(n):<16.10f} |c* - n w^(1/n)| = {abs(c_star - alt):.2e}")

print()
print(f"c*_2 = 2 sqrt(pi)         -> {sharp_sobolev_constant(2):.10f}")
print(f"half-space constant (n=2) -> {half_space_constant(2):.10f}")
print(f"Euler beta B(1/2, 1/2)    -> {euler_beta(0.5, 0.5):.10f}  (= pi)")
print(f"Euler beta B(1/2, 1)      -> {euler_beta(0.5, 1.0):.10f}  (= 2)")
