"""Support-set recovery laboratory for jointly sparse measurement ensembles.

The package splits into: ensemble (problem parameters, signal and matrix
samplers, noisy measurement), decoder (projection residuals and the
exhaustive typicality decoder), bounds (closed-form failure bounds and
measurement-count conditions), quadstats (quadratic-form distributional
oracles), montecarlo (seeded trial runner, sweeps, and the smallest
sufficient-M search), cli (the jsm2lab command), seeding (per-role random
streams) and errors (the exception types). Import each name from the
module that defines it; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
