"""The two-sample Kolmogorov-Smirnov test with its asymptotic p-value.

`ks_2samp` returns what scipy.stats.ks_2samp(a, b, method="asymp")
returns for a two-sided test: the statistic D from the sorted samples,
and P(D_N >= D) under the one-sample distribution of D_N with N the
rounded mn / (m + n), scipy's kstwo.sf(D, N). The survival function
follows Simard and L'Ecuyer's choice of method by N and N D^2:

* the Ruben-Gambino closed forms for N D <= 1 and N D >= N - 1;
* twice the one-sided Smirnov tail for D >= 1/2, for N <= 140 with
  N D^2 > 4, and for N > 140 with N D^2 >= 2.2;
* for N <= 140, the Durbin matrix in Marsaglia, Tsang and Wang's form
  for N D^2 <= 0.754693 and Pomeranz's recursion up to 4;
* for N > 140, the Durbin matrix where N D^1.5 <= 1.4 and N <= 1e5,
  else the Pelz-Good expansion.

The closed forms, the Durbin matrix, the Pomeranz recursion and the
Pelz-Good expansion, with their cut-offs and scaling, are scipy's
`stats/_ksstats.py` (scipy 1.17), kept operation for operation so that
they give scipy's bits. The Smirnov tail is the Birnbaum-Tingey sum,
each term a binomial probability in Loader's saddle-point form.

References: Simard R, L'Ecuyer P (2011), J. Stat. Softw. 39(11);
Marsaglia G, Tsang WW, Wang J (2003), J. Stat. Softw. 8(18);
Durbin J (1968), Ann. Math. Statist. 39, 398-411; Pomeranz J (1974),
Comm. ACM 17(12), 703-704; Pelz W, Good IJ (1976), J. R. Stat. Soc. B
38(2), 152-156; Birnbaum ZW, Tingey FH (1951), Ann. Math. Statist.
22(4), 592-596; Loader C (2000), "Fast and accurate computation of
binomial probabilities".

The code taken from scipy carries scipy's licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math

import numpy as np

# rescaling by 2^128, in long double as in scipy, so that the Durbin and
# Pomeranz products keep scipy's bits when they rescale
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = math.pi**2
_PI_FOUR = math.pi**4
_PI_SIX = math.pi**6

# B_2j / (2j (2j - 1)) for j = 8, ..., 1: Stirling's series for log n!
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def ks_2samp(a, b):
    """(D, p) of the two-sided two-sample test on 1-d float arrays; both
    are NaN when either sample holds a NaN."""
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan, math.nan
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    diff = (np.searchsorted(a, pooled, side="right") / a.size
            - np.searchsorted(b, pooled, side="right") / b.size)
    d = max(float(diff.max()), float(_clip(-diff.min())))
    m, n = sorted([float(a.size), float(b.size)], reverse=True)
    return d, kstwo_sf(d, round(m * n / (m + n)))


def kstwo_sf(x, n):
    """P(D_n >= x) for the one-sample two-sided statistic D_n; NaN for
    n < 1, as scipy's kstwo.sf."""
    if n < 1:
        return math.nan
    x = np.float64(x)
    t = n * x
    if x <= 0.5 / n or t <= 0.5:
        return 1.0
    if x >= 1.0:
        return 0.0
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return float(_clip(1.0 - prob))
    if t >= n - 1:  # Ruben-Gambino
        return float(_clip(2 * (1.0 - x) ** n))
    if x >= 0.5:
        return float(_clip(2 * _smirnov(n, x)))
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return float(_clip(1.0 - _durbin(n, x)))
        if nxsquared <= 4:
            return float(_clip(1.0 - _pomeranz(n, x)))
        return float(_clip(2 * _smirnov(n, x)))
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return float(_clip(2 * _smirnov(n, x)))
    if n <= 100000 and n * x**1.5 <= 1.4:
        return float(_clip(1.0 - _durbin(n, x)))
    return float(_clip(1.0 - _pelz_good(n, x)))


def _clip(p):
    # keeps p's type, so a long double from a rescaled product stays one
    return min(max(p, 0.0), 1.0)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n^n) by Stirling's series, with n log n removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin(n, d):
    """P(D_n <= d) from the k-th diagonal entry of H^n, in Marsaglia, Tsang
    and Wang's form of Durbin's matrix, with d = (k - h) / n."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # first column v and last row (v reversed); w[j] = 1/j! below the diagonal
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    # H^n by squaring, scaled by 2^-128 whenever an entry grows past 2^128
    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0
    Hexpnt = 0
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # times n! / n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return _clip(p)


def _pomeranz_bounds(i, n, ll, ceilf, roundf):
    """First and last non-zero entry of row i of Pomeranz's recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz(n, x):
    """P(D_n <= x) by Pomeranz's recursion: each of the 2n + 1 rows is the
    previous row convolved with Poisson-like weights, and the answer is
    n! times the last entry of the last row."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    # (g/n)^m / m!, (2g/n)^m / m! and ((1 - 2g)/n)^m / m!
    gpower = np.empty(npwrs)
    twogpower = np.empty(npwrs)
    onem2gpower = np.empty(npwrs)
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    # two rows, swapped every step, each stored from its first non-zero entry
    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0
    j1, j2 = _pomeranz_bounds(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_bounds(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # times n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return _clip(ans)


def _pelz_good(n, x):
    """Pelz and Good's approximation to P(D_n <= x): the Li-Chien and
    Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z = x sqrt(n),
    each K transformed by Jacobi's theta identity to suit small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner's scheme for the sums of c_i q^(i^2) over odd i
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k: (pi^2 k^2) q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _smirnov(n, d):
    """P(D_n^+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum

        d sum_{j=0}^{floor(n (1 - d))} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1).

    Term j is (nd / (nd + j)) b(j; n, d + j/n) with b the binomial
    probability. For 0 < j < n its log is taken in Loader's form,
    stirlerr and bd0 below, which has no cancellation between terms
    of size n log n, and the terms are added exactly by math.fsum.
    """
    nd = n * d
    j = np.arange(1, math.floor(n - nd) + 1, dtype=float)
    j = j[n - j - nd > 0.0]  # a term with 1 - d - j/n = 0 is zero
    log_terms = (math.log(nd) - np.log(nd + j) + _stirlerr(np.array([float(n)]))[0]
                 - _stirlerr(j) - _stirlerr(n - j) - _bd0(j, nd + j)
                 - _bd0(n - j, n - j - nd) - 0.5 * np.log(2 * np.pi * j * (n - j) / n))
    log_terms = np.append(log_terms, n * math.log1p(-d))  # j = 0: (1 - d)^n
    top = float(log_terms.max())
    return math.exp(top + math.log(math.fsum(np.exp(log_terms - top).tolist())))


def _stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k / e)^k) for a float array of k >= 1."""
    out = np.empty_like(k)
    small = k <= 15.0
    out[small] = [math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - 0.5 * _LOG_2PI
                  for v in k[small].tolist()]
    big = k[~small]
    kk = big * big
    out[~small] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk)
                   / kk) / big
    return out


def _bd0(x, m):
    """x log(x / m) + m - x for positive float arrays, by the series in
    v = (x - m) / (x + m) where x is near m and the direct form cancels."""
    out = x * np.log(x / m) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    if near.any():
        xs, ms = x[near], m[near]
        v = (xs - ms) / (xs + ms)
        s = (xs - ms) * v
        ej = 2 * xs * v
        v *= v
        i = 1
        while True:
            ej *= v
            s1 = s + ej / (2 * i + 1)
            if np.array_equal(s1, s):
                break
            s = s1
            i += 1
        out[near] = s
    return out
