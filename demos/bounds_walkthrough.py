"""Tour of the closed-form failure bounds at one operating point.

Run as: python3 demos/bounds_walkthrough.py
"""

import math

from jsm2lab.bounds import (
    BOUND_REPORT_CSV_HEADER,
    SUFFICIENCY_CSV_HEADER,
    necessary_M,
    sufficiency_report,
    sufficient_M,
    upper_bound_perr,
)
from jsm2lab.ensemble import ProblemParams


def show_point():
    # a point chosen so every intermediate quantity is a clean fraction:
    # delta = 3.75, d1 = 5, t = 5/11
    params = ProblemParams(n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0)
    rep = upper_bound_perr(params)
    print("operating point:", params)
    print(f"  slack delta            {params.delta}")
    print(f"  correct-tail offset d1 {rep.d1}")
    print(f"  relative gap t         {rep.t}  (= {5}/{11})")
    print(f"  incorrect tilt d2      {rep.d2_alpha_star}")
    print(f"  log p(correct miss)    {rep.log_p_d1:.4f}")
    print(f"  log p(incorrect hit)   {rep.log_p_d2:.4f}")
    print(f"  log union bound        {rep.log_upper_perr:.4f}")
    print(f"  clamped probability    {rep.upper_perr}")
    print()


def sweep_measurements():
    print("how the bound sharpens as M grows (N=32, K=2, S=4, SNR=100):")
    print(BOUND_REPORT_CSV_HEADER)
    for m in (3, 4, 6, 8, 12, 16, 24, 32):
        params = ProblemParams(n=32, k=2, m=m, s=4, sigma2=0.01, xmin2=1.0, rho=2.0)
        print(upper_bound_perr(params).csv_row())
    print()


def show_sample_requirements():
    params = ProblemParams(n=1024, k=16, m=64, s=4, sigma2=0.5, xmin2=1.0, rho=2.0)
    rep = sufficiency_report(params)
    print("sample-complexity summary at N=1024, K=16, S=4, SNR=2:")
    print(SUFFICIENCY_CSV_HEADER)
    print(rep.csv_row())
    print(f"  sufficient M (per vector) {sufficient_M(params):.1f}")
    print(f"  necessary M               {necessary_M(params):.1f}")
    print(f"  single-vector sufficient  "
          f"{sufficient_M(ProblemParams(n=1024, k=16, m=64, s=1, sigma2=0.5, xmin2=1.0, rho=2.0)):.1f}")
    print()
    print("the additive log term is shared across vectors: doubling S halves")
    print("the per-vector surplus over K while the noise floor stays put.")


if __name__ == "__main__":
    show_point()
    sweep_measurements()
    show_sample_requirements()
