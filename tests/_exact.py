"""Exact references for the engine's statistics, in stdlib arithmetic only.

The log-rank O - E and variance are rational in the risk-set counts, so they
are computed as ``fractions.Fraction``; z, their irrational ratio, in
``decimal`` at DIGITS significant digits. A test can then bound the engine's
floating-point error, not only compare it with other float code.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from itertools import groupby

DIGITS = 50


def logrank_exact(times, events, arm, strata=None) -> tuple[Fraction, Fraction]:
    """O - E and V of the treatment arm, summed over the strata, exactly.

    At each event time of a stratum, with n at risk, n1 of them treated, and
    d deaths, d1 of them treated, O - E gains d1 - d n1 / n and V gains
    d (n1 / n)(1 - n1 / n)(n - d) / (n - 1), which is 0 when n = 1.
    """
    strata = [0] * len(times) if strata is None else strata
    subjects = sorted(zip((int(s) for s in strata), (float(t) for t in times),
                          (int(e) for e in events), (int(a) for a in arm)))
    oe = variance = Fraction(0)
    for _, stratum in groupby(subjects, key=lambda subject: subject[0]):
        stratum = list(stratum)
        n, n1 = len(stratum), sum(subject[3] for subject in stratum)
        for _, block in groupby(stratum, key=lambda subject: subject[1]):
            block = list(block)
            d = sum(subject[2] for subject in block)
            d1 = sum(subject[2] * subject[3] for subject in block)
            f = Fraction(n1, n)
            oe += d1 - d * f
            if n > 1:
                variance += d * f * (1 - f) * Fraction(n - d, n - 1)
            n -= len(block)
            n1 -= sum(subject[3] for subject in block)
    return oe, variance


def to_decimal(value: Fraction) -> Decimal:
    """``value`` rounded to DIGITS significant digits."""
    context = Context(prec=DIGITS)
    return context.divide(Decimal(value.numerator), Decimal(value.denominator))


def logrank_z_exact(oe: Fraction, variance: Fraction) -> Decimal:
    """z = (O - E) / sqrt(V) to DIGITS significant digits."""
    context = Context(prec=DIGITS)
    return context.divide(to_decimal(oe), context.sqrt(to_decimal(variance)))
