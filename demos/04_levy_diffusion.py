"""Heavy-tailed diffusion: stable propagators, jump statistics, moments.

Density spreads by jumps of every length, so the propagator is a
symmetric stable law with |x|^-(1+delta) tails and infinite variance.
delta = 1 is the Lorentzian in closed form.  Monte Carlo sampling of the
jump displacements reproduces the numeric distribution function.

Run:  python demos/04_levy_diffusion.py
"""

import math

import numpy as np

from selfsim import (
    Grid1D,
    diffuse,
    fit_tail_exponent,
    ks_distance,
    make_params,
    numeric_cdf,
    propagator,
    propagator_cauchy,
    propagator_series,
    sample_levy,
    truncated_moment,
)

# ----------------------------------------------------------------------
# delta = 1: the propagator is exactly a Lorentzian.
# ----------------------------------------------------------------------
p1 = make_params(1.0, 1.0, 1.0)
grid = Grid1D.centered(1 << 18, 0.04)
w = propagator(p1, grid, 1.0)
print("delta = 1 propagator vs the closed form (1/pi) s/(x^2 + s^2), s = a_1 t")
for x in (0.0, 2.0, 10.0):
    print(f"  x={x:4}: grid={w.value_near(x):.8f}  closed={propagator_cauchy(p1, x, 1.0):.8f}")
print(f"  peak value 1/pi^2 = {1.0 / math.pi**2:.8f}")
print(f"  discrete mass: {w.mass()!r}")

# ----------------------------------------------------------------------
# Spreading is mass-preserving, and the peak decays monotonically.
# ----------------------------------------------------------------------
p = make_params(0.6, 1.0, 1.0)
rho = grid.sample(lambda x: np.exp(-x * x) / math.sqrt(math.pi))
print("\npeak density under diffusion (mass stays 1)")
for t in (0.0, 0.5, 1.0, 2.0, 4.0):
    out = diffuse(p, rho, t)
    print(f"  t={t:4}: peak={float(out.values.max()):.6f}  mass={out.mass():.12f}")

# ----------------------------------------------------------------------
# Tail structure: log-log slope and truncated second moments.
# ----------------------------------------------------------------------
print("\nfar-field exponent of the propagator (expected -(1 + delta))")
for delta, t, window, g in (
    (0.5, 0.1, (50.0, 150.0), Grid1D.centered(1 << 21, 0.01)),
    (1.0, 0.1, (10.0, 40.0), Grid1D.centered(1 << 20, 0.01)),
    (1.5, 0.05, (10.0, 40.0), Grid1D.centered(1 << 20, 0.005)),
):
    pd = make_params(delta, 1.0, 1.0)
    slope = fit_tail_exponent(propagator(pd, g, t), *window)
    print(f"  delta={delta}: slope={slope:+.3f}")

pd = make_params(0.5, 1.0, 1.0)
g2 = Grid1D.centered(1 << 21, 0.01)
w2 = propagator(pd, g2, 0.1)
m_l = truncated_moment(w2, 2, 500.0)
m_2l = truncated_moment(w2, 2, 1000.0)
print(f"\ntruncated variance grows like L^(2-delta): ratio {m_2l / m_l:.4f}"
      f" (2^1.5 = {2**1.5:.4f}); no finite limit exists")

print("\nseries evaluation far out, delta = 0.5:")
for x in (3.0, 10.0, 30.0):
    print(f"  W({x:4}, t=1) = {propagator_series(pd, x, 1.0):.3e}")

# ----------------------------------------------------------------------
# Monte Carlo: jump displacements against the numeric CDF.
# ----------------------------------------------------------------------
print("\nstable jump sampling vs numeric distribution function")
for delta in (0.5, 1.5):
    pmc = make_params(delta, 1.0, 1.0)
    batch = sample_levy(pmc, t=1.0, n=50_000, seed=12345)
    s = np.sort(batch.samples)
    grid_cdf = Grid1D.centered(1 << 19, 0.01) if delta < 1 else Grid1D.centered(1 << 17, 0.005)
    cdf = numeric_cdf(pmc, 1.0, s, grid=grid_cdf)
    print(f"  delta={delta}: scale={batch.scale:.4f}  KS distance={ks_distance(s, cdf):.4f}")

try:
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not available; skipping the figure)")
else:
    fig, ax = plt.subplots()
    xs = grid.x
    for delta in (0.5, 1.0, 1.5):
        pd = make_params(delta, 1.0, 1.0)
        ax.semilogy(xs, propagator(pd, grid, 1.0).values, label=f"delta={delta}")
    ax.set_xlim(-60, 60)
    ax.set_ylim(1e-6, 1)
    ax.legend()
    ax.set_title("stable propagators at t = 1")
    fig.savefig("demo04_propagators.png", dpi=120)
    print("\nwrote demo04_propagators.png")
