"""Static response: point-force Green's function, Poisson solves, and the
regularized |k|^alpha kernel family.

The displacement under a unit point force is the power law
g0 |x|^(delta-1); a localized force distribution therefore produces the
same far field as its total force concentrated at a point.  The kernel
family b_alpha generalizes the point source: localized at even integer
orders, nonlocal power laws otherwise, with closed-form tail integrals.

Run:  python demos/02_static_response.py
"""

import math

import numpy as np

from selfsim import (
    Grid1D,
    greens_prefactor,
    greens_static,
    laplacian_power_kernel,
    make_params,
    poisson_solve,
    riesz_kernel,
    riesz_tail_integral,
)

# ----------------------------------------------------------------------
# Green's function across the exponent band (delta = 1 is a pole).
# ----------------------------------------------------------------------
print("point-force response g(x) = g0 |x|^(delta-1)")
for delta in (0.25, 0.5, 0.75, 1.25, 1.5):
    p = make_params(delta, 1.0, 1.0)
    vals = ", ".join(f"g({x:g})={greens_static(p, x):.5f}" for x in (0.5, 1.0, 2.0))
    print(f"  delta={delta:5}: g0={greens_prefactor(p):+.5f}   {vals}")

p = make_params(0.5, 1.0, 1.0)
print(f"\n  delta=0.5 at x=1: {greens_static(p, 1.0):.10f}  (1/(4 pi) = {1/(4*math.pi):.10f})")

# ----------------------------------------------------------------------
# Poisson solve: a narrow unit bump looks like a point force from afar.
# ----------------------------------------------------------------------
grid = Grid1D.centered(1 << 19, 0.02)
w = 0.05
force = grid.sample(lambda x: np.exp(-x * x / (2 * w * w)) / (math.sqrt(2 * math.pi) * w))
u = poisson_solve(p, force, project=True)
x_ref = 40.0
print("\nfar field of a narrow unit bump vs the point-force response")
print("  (differences remove the zero-mode gauge)")
for x in (0.5, 1.0, 2.0, 5.0):
    du = u.value_near(x) - u.value_near(x_ref)
    dg = greens_static(p, x) - greens_static(p, x_ref)
    print(f"  x={x:4}: solve={du:.6f}  greens={dg:.6f}")

# ----------------------------------------------------------------------
# The kernel family: localized at even integers, nonlocal otherwise.
# ----------------------------------------------------------------------
print("\nkernel family b_alpha at x = 1")
for alpha in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0):
    print(f"  alpha={alpha:4}: b={riesz_kernel(alpha, 1.0):+.6f}")

print("\niterated point-source kernels (h = zeta = 1, so the first power is -|x|^-1-delta)")
for n in (-1, 1, 2):
    print(f"  n={n:+d}: value at x=1: {laplacian_power_kernel(p, n, 1.0):+.6f}")

# ----------------------------------------------------------------------
# Tail integrals int_a^inf b_alpha dx: they scale as a^(-alpha).
# ----------------------------------------------------------------------
print("\ntail integrals of b_alpha beyond the cut a")
for alpha, a in ((0.5, 0.5), (0.5, 2.0), (1.5, 1.0)):
    print(f"  alpha={alpha}, cut={a}: tail={riesz_tail_integral(alpha, a):+.6f}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
else:
    xs = np.linspace(0.05, 4.0, 400)
    for delta in (0.25, 0.5, 0.75):
        pd = make_params(delta, 1.0, 1.0)
        plt.loglog(xs, greens_static(pd, xs), label=f"delta={delta}")
    plt.xlabel("x")
    plt.ylabel("g(x)")
    plt.legend()
    plt.title("static point-force response")
    plt.savefig("demo02_greens.png", dpi=120)
    print("\nwrote demo02_greens.png")
