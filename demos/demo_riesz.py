"""Balancing-weight walkthrough: learn the Riesz representer directly by
minimizing an empirical Bregman divergence, with two generators, and
check both against the exact representer from an independent grid
search. On this benchmark the truth is +4 for the treated arm and -4
for the control arm at every covariate value."""

import numpy as np

from ssate import LSIF, UKL, brute_force_riesz, dgp_d1, fit_riesz, sample_one


def main():
    dgp = dgp_d1()
    data = sample_one(dgp, 50000, seed=5)
    grid = np.array([[0.0], [1.0]])

    print("exact representer by per-cell grid search (no sampling):")
    a1, a0 = brute_force_riesz(dgp, LSIF, grid_lo=-8.0, grid_hi=8.0,
                               grid_step=0.01)
    for xv, v1, v0 in zip((0.0, 1.0), a1, a0):
        print(f"  x={xv:.0f}: a1={v1:+.2f}  a0={v0:+.2f}")
    print()

    for gen, name in ((LSIF, "least-squares generator"),
                      (UKL, "KL generator")):
        model = fit_riesz(data, gen=gen)
        v1, v0 = model.a1_a0(grid)
        print(f"{name} fit on n={data.n}:")
        for xv, u1, u0 in zip((0.0, 1.0), v1, v0):
            print(f"  x={xv:.0f}: a1={u1:+.4f}  a0={u0:+.4f}")
        dev = max(np.max(np.abs(v1 - 4.0)), np.max(np.abs(v0 + 4.0)))
        print(f"  max deviation from truth: {dev:.4f}")
        print()

    print("both generators recover the same representer; they differ in")
    print("the divergence they minimize, not in the population argmin")


if __name__ == "__main__":
    main()
