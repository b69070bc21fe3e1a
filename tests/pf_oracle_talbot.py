#!/usr/bin/env python3
"""Reference values of eq. 2.2 for tests/test_count_pgf.cpp.

p_F(W) = E[z^N(W)] for the stationary gamma-renewal CNT count with mean
pitch 4 nm, evaluated in multiprecision with mpmath and printed as C++
initializer lists (17 significant digits): the p_F grid, the p_F grid at
small z (where the residues cancel and the evaluator sums the power series
in z), and the complement 1 - E[(1-p)^N(W)] at small p. Run it from the
repository root:

    python3 tests/pf_oracle_talbot.py > /tmp/tables.inc

For z > 0 the value is a Talbot inversion of the Laplace transform in W,
    L(s) = 1/s - (1 - z)(1 - f(s)) / (mu s^2 (1 - z f(s))),
    f(s) = (1 + theta s)^-k,  k = 1/CV^2,  theta = mu CV^2,
repeated at rising working precision until two passes agree to 24
digits. For z = 0 it is the closed form P{N(W) = 0} = 1 - F_e(W) in
regularized incomplete gammas (Talbot agrees where its precision
suffices; the closed form also covers values far below the double range).
The complement is a Talbot inversion of
    p (1 - f(s)) / (mu s^2 (1 - (1 - p) f(s))),
the same transform with its 1/s term dropped, so it carries no
cancellation at small p. Values below 1e-300 print as 0.
"""
import mpmath as mp

MU = 4
CVS = ["0.2", "0.3", "0.5", "0.7", "0.9", "1", "1.5", "2", "3"]
WS = ["4", "20", "60", "100", "158.9", "400"]
ZS = ["0", "0.05", "0.1", "0.531"]
SMALL_Z_CVS = ["0.3", "0.5", "0.9", "2"]
SMALL_Z_WS = ["4", "20", "60"]
SMALL_ZS = ["1e-6", "1e-12", "1e-30"]
COMPLEMENT_CVS = ["0.9", "1", "1.5"]
COMPLEMENT_WS = ["20", "100", "158.9"]
COMPLEMENT_PS = ["1e-4", "1e-8", "1e-12"]


def shape_scale(cv):
    cv = mp.mpf(cv)
    return 1 / cv**2, MU * cv**2


def pf_zero(cv, w):
    """P{N(W) = 0} = Q(k, x) (1 - x/k) + x^k e^-x / Gamma(k+1), x = W/theta."""
    k, theta = shape_scale(cv)
    x = mp.mpf(w) / theta
    q = mp.gammainc(k, x, mp.inf, regularized=True)
    return q * (1 - x / k) + mp.exp(k * mp.log(x) - x - mp.loggamma(k + 1))


def pf_talbot(cv, w, z):
    k, theta = shape_scale(cv)
    z = mp.mpf(z)
    mu = mp.mpf(MU)

    def transform(s):
        f = (1 + theta * s) ** (-k)
        return 1 / s - (1 - z) * (1 - f) / (mu * s**2 * (1 - z * f))

    return mp.invertlaplace(transform, mp.mpf(w), method="talbot")


def complement_talbot(cv, w, p):
    k, theta = shape_scale(cv)
    p = mp.mpf(p)
    mu = mp.mpf(MU)

    def transform(s):
        f = (1 + theta * s) ** (-k)
        return p * (1 - f) / (mu * s**2 * (1 - (1 - p) * f))

    return mp.invertlaplace(transform, mp.mpf(w), method="talbot")


def digits(val):
    return "0" if val < mp.mpf("1e-300") else mp.nstr(val, 17, min_fixed=0, max_fixed=0)


def converged(fn, *args):
    dps, prev = 40, None
    while True:
        with mp.workdps(dps):
            val = fn(*args)
        if prev is not None and val != 0 and abs(val - prev) <= abs(val) * mp.mpf(10) ** -24:
            return val
        prev, dps = val, dps * 2
        if dps > 2000:
            raise RuntimeError(f"no convergence at {args}")


def main():
    print("// Generated by tests/pf_oracle_talbot.py: {CV, W, z, p_F}.")
    for cv in CVS:
        for w in WS:
            for z in ZS:
                if z == "0":
                    with mp.workdps(60):
                        val = pf_zero(cv, w)
                else:
                    val = converged(pf_talbot, cv, w, z)
                print(f"    {{{cv}, {w}, {z}, {digits(val)}}},")
    print("// Small z: {CV, W, z, p_F}.")
    for cv in SMALL_Z_CVS:
        for w in SMALL_Z_WS:
            for z in SMALL_ZS:
                val = converged(pf_talbot, cv, w, z)
                print(f"    {{{cv}, {w}, {z}, {digits(val)}}},")
    print("// Complement: {CV, W, p, 1 - E[(1-p)^N]}.")
    for cv in COMPLEMENT_CVS:
        for w in COMPLEMENT_WS:
            for p in COMPLEMENT_PS:
                val = converged(complement_talbot, cv, w, p)
                print(f"    {{{cv}, {w}, {p}, {digits(val)}}},")


if __name__ == "__main__":
    main()
