"""Trace the failure-rate knee in M and locate the smallest sufficient count.

Writes phase_transition.csv next to the working directory. Takes about a
minute at the default trial budget.

Run as: python3 demos/phase_transition.py
"""

from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, find_M_star, sweep, write_sweep_csv

N, K, S = 16, 2, 4
SNR = 100.0
TRIALS = 4_000
SEED = 2468


def main():
    plans = [
        TrialPlan(
            params=ProblemParams(
                n=N, k=K, m=m, s=S, sigma2=1.0 / SNR, xmin2=1.0, rho=2.0
            ),
            trials=TRIALS,
            master_seed=SEED,
        )
        for m in range(K + 1, N + 1)
    ]
    rows = sweep(plans)
    write_sweep_csv(rows, "phase_transition.csv")

    print(f"N={N} K={K} S={S} SNR={SNR}, {TRIALS} trials per point")
    print("m   event_fail  ci_high   clamped_bound")
    for row in rows:
        est = row.rates.event_failure
        print(
            f"{row.plan.params.m:<3d} {est.point:<11.4f} {est.ci_high:<9.4f} "
            f"{row.bound.upper_perr:.4f}"
        )

    res = find_M_star(plans[0], target=0.1)
    print()
    print(f"smallest M with failure <= 0.1: {res.m_star} (saturated={res.saturated})")
    print("full grid written to phase_transition.csv")


if __name__ == "__main__":
    main()
