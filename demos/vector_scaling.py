"""Hold M at its floor and let the number of vectors do the work.

At M = K+1 a single vector is hopeless, yet the union failure rate falls
geometrically as vectors accumulate. The analytic factor per vector is
mu_J, so the union_model column tracks C(N,K) mu_J^S against the
simulation. The closing lines print the Corollary 3 vector count, from
which the combined bound guarantees a failure rate below 0.05, and the
high-SNR limit that count falls toward.

Run as: python3 demos/vector_scaling.py
"""

import math

from jsm2lab.bounds import (
    corollary3_S_bound,
    corollary3_S_bound_high_snr,
    log_binom,
    log_mu_factors,
    upper_bound_perr,
)
from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, run_trials

N, K = 8, 2
SNR = 100.0
EPSILON = 0.05
TRIALS = 4_000
SEED = 1357


def _params(s):
    return ProblemParams(n=N, k=K, m=K + 1, s=s, sigma2=1.0 / SNR, xmin2=1.0, rho=2.0)


def main():
    print(f"N={N} K={K} M={K + 1} SNR={SNR}, {TRIALS} trials per point")
    print("s    event_fail  ci                per_candidate  union_model")
    for s in (1, 2, 4, 8, 16, 32):
        params = _params(s)
        plan = TrialPlan(params=params, trials=TRIALS, master_seed=SEED + s)
        est = run_trials(plan).event_failure
        _, log_mu_j = log_mu_factors(params)
        per_candidate = math.exp(s * log_mu_j)
        # candidate-count times per-candidate acceptance, capped at one
        union = min(1.0, math.exp(log_binom(N, K) + s * log_mu_j))
        print(
            f"{s:<4d} {est.point:<11.4f} [{est.ci_low:.4f}, {est.ci_high:.4f}] "
            f"{per_candidate:<14.4f} {union:.4f}"
        )
    print()
    print("each extra vector multiplies the per-candidate acceptance by")
    print("mu_J < 1, but the simulated rate is a union over all candidates, so")
    print("it sits between the single-candidate curve and the capped union model.")
    s_count = corollary3_S_bound(_params(1), EPSILON)
    s_star = math.ceil(s_count)
    bound = upper_bound_perr(_params(s_star)).upper_perr
    limit = corollary3_S_bound_high_snr(_params(1), EPSILON)
    print("at S=32 the union bound is vacuous; Corollary 3 guarantees a failure")
    print(f"rate below {EPSILON} from S={s_star} on (combined bound there: {bound:.4f}).")
    print(f"its unrounded count {s_count:.2f} falls with SNR toward the high-SNR")
    print(f"limit {limit:.2f}, so no SNR brings it below S={math.ceil(limit)}.")


if __name__ == "__main__":
    main()
