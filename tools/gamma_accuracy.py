"""Measure the Gamma factors against 40-digit mpmath: the table in the
gammafns module docstring.

Run from the root of a checkout:

    python3 tools/gamma_accuracy.py

The first table is gamma_phase_product's worst relative error per band of
|t|, at random s = sigma + i t with sigma in [-1, 2] and the phase
e^{(a s + b) pi i} that cancels the decay of Gamma(1 - s) (a = -1/2 for
t > 0 and +1/2 for t < 0, b in [-1, 1]), the factor shape of the dual sums.
It gives the worst error divided by |t| and by factor_error_bound(t), the
bound the module states.

The second table is log_gamma's worst error per band of |z|, at random z
of either half-plane, and at 1e-13 to 1/2 from the poles 0, -1, ..., -50,
divided by the bound the module states, log_gamma_error_bound(z);
imaginary parts are compared modulo 2 pi.  A ratio above 1 breaks the
stated bound.

The last row is chi's worst relative error against 50-digit mpmath at
random s within 1/2 of its zeros 0, -2, ..., -200, at offsets from 1e-300
to 1/2, where sin(pi s/2) must keep its digits next to a zero.

POINTS random points per band, drawn from SEED, give the same table on any
machine with IEEE doubles.  Needs mpmath, and nothing else outside this
checkout.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import sys

import mpmath

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from lerchzeta.gammafns import (chi, factor_error_bound,  # noqa: E402
                                gamma_phase_product, log_gamma,
                                log_gamma_error_bound)

POINTS = 1500
SEED = 0
T_BANDS = ((0.0, 300.0), (300.0, 500.0), (500.0, 1e3), (1e3, 3e3),
           (3e3, 1e4), (1e4, 3e4), (3e4, 1e5))
Z_BANDS = ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, 1e3),
           (1e3, 1e4))


def log_gamma_error(z: complex) -> float:
    """|log_gamma(z) - log Gamma(z)| against 40-digit mpmath, the imaginary
    parts compared modulo 2 pi."""
    v = log_gamma(z)
    with mpmath.workdps(40):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        k = round((v.imag - float(ref.imag)) / (2.0 * math.pi))
        return float(abs(mpmath.mpc(v.real, v.imag) - ref
                         - 2j * mpmath.pi * k))


def factor_error(s: complex, a: float, b: float) -> float:
    """gamma_phase_product(s, a, b)'s relative error against mpmath."""
    with mpmath.workdps(40):
        z = mpmath.mpc(s.real, s.imag)
        ref = complex(mpmath.gamma(1 - z) * (2 * mpmath.pi) ** (z - 1)
                      * mpmath.expjpi(a * z + b))
    return abs(gamma_phase_product(s, a, b) - ref) / abs(ref)


def chi_error(s: complex) -> float:
    """chi(s)'s relative error against 50-digit mpmath."""
    with mpmath.workdps(50):
        z = mpmath.mpc(s.real, s.imag)
        ref = complex(2 * mpmath.gamma(1 - z) * mpmath.sinpi(z / 2)
                      * (2 * mpmath.pi) ** (z - 1))
    return abs(chi(s) - ref) / abs(ref)


def factor_table(rng: random.Random) -> list[str]:
    rows = ["| abs(t) band | worst rel. error | worst / abs(t) "
            "| worst / factor_error_bound |", "| --- | --- | --- | --- |"]
    for lo, hi in T_BANDS:
        worst = per_t = ratio = 0.0
        for _ in range(POINTS):
            t = rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)
            s = complex(rng.uniform(-1.0, 2.0), t)
            a = -0.5 if t > 0 else 0.5
            err = factor_error(s, a, rng.uniform(-1.0, 1.0))
            worst = max(worst, err)
            per_t = max(per_t, err / max(abs(t), 1.0))
            ratio = max(ratio, err / factor_error_bound(t))
        rows.append(f"| [{lo:g}, {hi:g}] | {worst:.2g} | {per_t:.2g} "
                    f"| {ratio:.2f} |")
    return rows


def log_gamma_table(rng: random.Random) -> list[str]:
    rows = ["| abs(z) band | worst abs. error | worst / bound |",
            "| --- | --- | --- |"]
    for lo, hi in Z_BANDS:
        worst = ratio = 0.0
        for _ in range(POINTS):
            z = cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))
            err = log_gamma_error(z)
            worst = max(worst, err)
            ratio = max(ratio, err / log_gamma_error_bound(z))
        rows.append(f"| [{lo:g}, {hi:g}] | {worst:.2g} | {ratio:.2f} |")
    worst = ratio = 0.0
    for _ in range(POINTS):
        z = -rng.randint(0, 50) + cmath.rect(10.0 ** rng.uniform(-13.0, -0.3),
                                              rng.uniform(-math.pi, math.pi))
        err = log_gamma_error(z)
        worst = max(worst, err)
        ratio = max(ratio, err / log_gamma_error_bound(z))
    rows.append(f"| within 1/2 of a pole | {worst:.2g} | {ratio:.2f} |")
    return rows


def chi_row(rng: random.Random) -> str:
    worst = max(chi_error(-2 * rng.randint(0, 100)
                          + cmath.rect(10.0 ** rng.uniform(-300.0, -0.3),
                                       rng.uniform(-math.pi, math.pi)))
                for _ in range(POINTS))
    return f"worst rel. error within 1/2 of a zero: {worst:.2g}"


def main() -> None:
    rng = random.Random(SEED)
    print("gamma_phase_product against mpmath, sigma in [-1, 2]:")
    print("\n".join(factor_table(rng)))
    print("\nlog_gamma against mpmath:")
    print("\n".join(log_gamma_table(rng)))
    print("\nchi against mpmath, s within 1/2 of 0, -2, ..., -200:")
    print(chi_row(rng))


if __name__ == "__main__":
    main()
