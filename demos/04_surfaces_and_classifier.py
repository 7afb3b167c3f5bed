"""Closed surfaces: geodesic balls, curvature thresholds, verdicts.

On a closed surface the certificate threshold is the full sharp
constant c*_2 and the curvature enters at second order through the
geodesic-ball expansion.  The round sphere is the borderline case: its
scalar curvature equals the critical threshold 8 pi / area exactly, the
eps^2 coefficient of the quotient cancels, and a separate argument (the
hemisphere profile, which hits c*_2 on the nose) settles it.
"""

from bvsharp import (
    SurfaceModel,
    classify_achievability,
    critical_curvature_threshold,
    gauss_bonnet_check,
    geodesic_ball_area,
    gray_expansion,
    hemisphere_certificate,
    scalar_curvature,
    sharp_sobolev_constant,
    surface_two_valued_quotient,
)

sphere = SurfaceModel.sphere(1.0)
spheroid = SurfaceModel.spheroid(1.0, 1.3)
torus = SurfaceModel.flat_torus(1.0, 1.0)
c_star = sharp_sobolev_constant(2)

print("Gauss-Bonnet audit (integral of S vs 4 pi chi):")
for name, surface in (("sphere", sphere), ("spheroid", spheroid), ("torus", torus)):
    integral, target = gauss_bonnet_check(surface)
    print(f"  {name:<9} integral {integral:>12.8f}   target {target:>12.8f}")

print("\ngeodesic balls at the spheroid pole vs the small-ball expansion:")
S_pole = scalar_curvature(spheroid, (0.0, 0.0))
for eps in (0.1, 0.2, 0.3):
    ball = geodesic_ball_area(spheroid, (0.0, 0.0), eps)
    print(f"  eps {eps}: area {ball:.8f}   expansion {gray_expansion(S_pole, eps, 2):.8f}")

print(f"\ncritical threshold on the spheroid: {critical_curvature_threshold(2, spheroid.area):.4f}; "
      f"pole curvature S = {S_pole:.4f} exceeds it")
qv = surface_two_valued_quotient(spheroid, (0.0, 0.0), 0.3, 1.0)
print(f"two-valued quotient at the pole (eps = 0.3): {qv.value:.6f} < c*_2 = {c_star:.6f}")

cert = hemisphere_certificate(1.0)
print(f"\nhemisphere profile on the round sphere: quotient {cert.value:.10f}, "
      f"plateau beta = {cert.beta}, gap to c*_2: {cert.gap_to_threshold:.1e}")

print("\nclassifier verdicts at q = 1.5:")
for name, surface in (("round sphere", sphere), ("spheroid", spheroid), ("flat torus", torus)):
    verdict = classify_achievability(surface, 1.5)
    print(f"  {name:<13} -> {verdict.verdict:<13} ({verdict.justification})")
