"""Check the distributional claims behind the bounds against raw sampling.

Run as: python3 demos/tail_oracles.py
"""

import numpy as np

from jsm2lab.quadstats import (
    QuadFormSpec,
    laurent_massart_check,
    quadform_mgf,
    sample_quadform,
    sample_z_correct,
    sample_z_incorrect,
)

TRIALS = 50_000
SEED = 9090


def moments():
    m, k, s = 6, 2, 3
    draws = sample_z_correct(m, k, s, trials=TRIALS, seed=SEED)
    spec = QuadFormSpec.from_alpha([1.0] * s, m, k)
    mean, var = spec.mean, spec.variance
    print(f"correct-support statistic, M={m} K={k} S={s}:")
    print(f"  mean {np.mean(draws):.4f} (predicted {mean})")
    print(f"  var  {np.var(draws):.4f} (predicted {var})")

    alphas = [2.0, 1.0, 0.5]
    draws = sample_z_incorrect(alphas, m, k, trials=TRIALS, seed=SEED + 1)
    spec = QuadFormSpec.from_alpha(alphas, m, k)
    mean, var = spec.mean, spec.variance
    print(f"incorrect-support statistic, energies {alphas}:")
    print(f"  mean {np.mean(draws):.4f} (predicted {mean})")
    print(f"  var  {np.var(draws):.4f} (predicted {var})")
    print()


def mgf():
    spec = QuadFormSpec.from_alpha([1.0, 0.5], m=4, k=1)
    draws = sample_quadform(spec, TRIALS, seed=SEED + 2)
    for t in (-0.5, 0.1, 0.2):
        emp = float(np.mean(np.exp(t * draws)))
        print(f"mgf at t={t:+.1f}: empirical {emp:.4f}, closed form {quadform_mgf(spec, t):.4f}")
    print()


def tails():
    print("two-sided tail ceilings, exp(-x) plus binomial allowance:")
    for label, alphas in (("homogeneous", [1.0] * 8), ("heterogeneous", [3.0, 1.0, 0.5, 0.25])):
        for x in (0.5, 1.0, 2.0):
            res = laurent_massart_check(alphas, x=x, trials=TRIALS, seed=SEED + 3)
            print(
                f"  {label:14s} x={x:<4} upper {res.upper_rate:.4f} "
                f"lower {res.lower_rate:.4f} ceiling {res.bound + res.allowance:.4f} "
                f"passed={res.passed}"
            )


if __name__ == "__main__":
    moments()
    mgf()
    tails()
