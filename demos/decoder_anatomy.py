"""Dissect one decoding instance: every candidate support, its statistic,
and where the slack window places the typicality cutoff.

Run as: python3 demos/decoder_anatomy.py
"""

import itertools

from jsm2lab.decoder import decode, typicality_stat
from jsm2lab.ensemble import (
    ProblemParams,
    SupportSet,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)

N, K, M, S = 8, 2, 5, 3
SIGMA2, XMIN2 = 0.25, 1.0
SEED = 71


def main():
    params = ProblemParams(n=N, k=K, m=M, s=S, sigma2=SIGMA2, xmin2=XMIN2, rho=2.0)
    sup = sample_support(N, K, SEED)
    x = sample_sparse_ensemble(sup, S, params.x_min, seed=SEED + 1)
    f = sample_sensing(M, N, S, SEED + 2)
    y = measure(x, f, SIGMA2, SEED + 3)

    print(f"true support: {sup.indices}, slack delta = {params.delta}")
    print(f"window: |stat - {S * (M - K) * SIGMA2}| < {S * M * params.delta}")
    print()
    print("support     stat      centered  typical")
    rows = []
    for j in itertools.combinations(range(N), K):
        st = typicality_stat(SupportSet(j, N), y, f, params)
        rows.append((j, st))
    for j, st in sorted(rows, key=lambda r: abs(r[1].centered)):
        marker = " <-- true" if j == sup.indices else ""
        print(f"{str(j):11s} {st.value:9.4f} {st.centered:9.4f}  {st.typical}{marker}")

    out = decode(y, f, params, true_support=sup)
    print()
    print(f"decoded support:          {out.decoded.indices if out.decoded else None}")
    print(f"correct support typical:  {out.correct_typical}")
    print(f"incorrect typical count:  {out.num_incorrect_typical}")
    print(f"union failure event:      {out.event_failure}")
    print(f"support mismatch:         {out.decode_error}")
    print()
    print("the decoder keeps the typical candidate whose statistic sits")
    print("closest to the noise-only center, so a failure event does not")
    print("always cost the argmin decision.")


if __name__ == "__main__":
    main()
