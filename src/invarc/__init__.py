"""Exact derivation and numeric validation of the inverse elliptic-arc
approximation.

The pipeline: the perimeter series for an ellipse gives the excess
h(lambda^2); its compositional inverse is the true inverse lambda^2(h),
built from the hypergeometric ODE the perimeter series satisfies; expanding
that as a regular C-fraction and freezing the near-constant tail at 3/4
collapses to the closed form 4h - 3h^2/(2 + sqrt(1 - 3h)), whose error
against the true inverse is -h^6/32 + O(h^7).  Everything symbolic runs
over exact rationals; the numeric layer validates the result against two
independent floating-point perimeter engines.
"""
