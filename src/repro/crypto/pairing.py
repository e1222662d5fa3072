"""Optimal-ate pairing on BN254.

``pairing(P, Q)`` maps ``(P in G1, Q in G2) -> GT`` (an Fp12 element of the
order-r cyclotomic subgroup).  The Miller loop is split in two halves
(Enge & Milan, *Implementing cryptographic pairings at standard security
levels*, precompute what depends only on a fixed argument):

* :func:`prepare_g2` runs the G2 side once per point: the affine
  doubling/addition steps over the twist E'(Fp2) and, for each step, the
  line's slope ``lam`` and ``lam*xT - yT``.  The result depends on Q
  alone, so callers cache it for recurring G2 arguments
  (:class:`repro.crypto.group.BN254Group` keeps an LRU of them).  The
  102 lines are packed into one 13 KB bytes object; as tuples of ints
  they would take 33 KB in hundreds of small allocations.
* :func:`miller_loop` evaluates prepared lines at G1 points.  It takes
  any number of pairs and runs one loop for all of them: ``f`` is squared
  once per step and then multiplied by every pair's line, so a k-pair
  product costs one set of squarings and one final exponentiation.

Line derivation (D-twist, untwist ``(x', y') -> (x' w^2, y' w^3)``): a line
through untwisted points with slope ``lam*w`` evaluated at ``P = (xP, yP)``
is ``yP - lam*xP*w + (lam*xT - yT)*w^3`` and ``w^3 = v*w``.  The loop
scales each line by ``1/yP``, an Fp factor the final exponentiation
removes (``p - 1`` divides ``(p^12 - 1)/r``), which leaves the sparse
element ``1 + b*w + c*(v*w)`` with ``b = -lam*xP/yP`` and
``c = (lam*xT - yT)/yP`` for :func:`repro.crypto.tower.fp12_mul_line`.

Final exponentiation uses the easy part plus the Devegili et al. hard-part
addition chain; a direct-exponentiation fallback
(:func:`final_exponentiation_slow`) is kept for cross-validation in tests.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.curve import PointG1, PointG2
from repro.crypto.field import (
    ATE_LOOP_COUNT,
    BN_U,
    CURVE_ORDER,
    FIELD_MODULUS as P,
    fp_inv,
)
from repro.crypto.tower import (
    FP12_ONE,
    fp12_cyclotomic_pow,
    fp12_cyclotomic_sq,
    Fp2,
    Fp12,
    fp2_conj,
    fp2_inv,
    fp2_mul,
    fp2_mul_scalar,
    fp2_neg,
    fp2_sq,
    fp2_sub,
    fp2_add,
    fp12_conj,
    fp12_frobenius,
    fp12_frobenius_n,
    fp12_inv,
    fp12_mul,
    fp12_mul_line,
    fp12_pow,
    fp12_sq,
    GAMMA,
)
from repro.errors import CryptoError

#: Prepared G2 argument: for each line of the loop, ``lam0, lam1, c0, c1``
#: as 32-byte big-endian integers, ``lam`` the slope and
#: ``c = lam*xT - yT`` (both Fp2).  Empty for the identity.
PreparedG2 = bytes
_COORD_BYTES = 32  # so a line is one 1024-bit int: lam0 | lam1 | c0 | c1
_LINE_BYTES = 4 * _COORD_BYTES
_MASK = (1 << 256) - 1

# Frobenius twist constants for points on E'(Fp2):
#   pi(x, y) = (conj(x) * XI^((p-1)/3), conj(y) * XI^((p-1)/2))
_TWIST_X_COEFF: Fp2 = GAMMA[1]  # XI^((p-1)/3)
_TWIST_Y_COEFF: Fp2 = GAMMA[2]  # XI^((p-1)/2)

_BITS = bin(ATE_LOOP_COUNT)[3:]  # skip the MSB

#: The loop's shape, the same for every G2 point: per step, whether ``f``
#: is squared first and how many lines follow.  A doubling step squares
#: and takes the tangent, plus the chord through Q on a set bit; the last
#: step takes the chords through pi(Q) and -pi^2(Q) without squaring.
_SCHEDULE = tuple((True, 2 if bit == "1" else 1) for bit in _BITS) + ((False, 2),)


def _g2_frobenius(xy):
    (x, y) = xy
    return (
        fp2_mul(fp2_conj(x), _TWIST_X_COEFF),
        fp2_mul(fp2_conj(y), _TWIST_Y_COEFF),
    )


def _step(t, q):
    """The line through T and Q (the tangent when Q = T), and T + Q.

    Affine over Fp2; returns ``((lam0, lam1, c0, c1), T + Q)``.
    """
    (xt, yt) = t
    (xq, yq) = q
    if xt == xq:
        if yt != yq:
            # A vertical line through T and -T never occurs in the
            # optimal-ate loop for subgroup points.
            raise CryptoError("degenerate vertical line in Miller loop")
        lam = fp2_mul(fp2_mul_scalar(fp2_sq(xt), 3), fp2_inv(fp2_add(yt, yt)))
    else:
        lam = fp2_mul(fp2_sub(yq, yt), fp2_inv(fp2_sub(xq, xt)))
    x3 = fp2_sub(fp2_sub(fp2_sq(lam), xt), xq)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(xt, x3)), yt)
    c = fp2_sub(fp2_mul(lam, xt), yt)
    return (lam[0], lam[1], c[0], c[1]), (x3, y3)


def prepare_g2(q: PointG2) -> PreparedG2:
    """The G2 half of the Miller loop: every line's coefficients for Q."""
    if q.is_identity:
        return b""
    q_aff = q.xy
    lines = []
    t = q_aff
    for bit in _BITS:
        line, t = _step(t, t)
        lines.append(line)
        if bit == "1":
            line, t = _step(t, q_aff)
            lines.append(line)
    # Two final Frobenius-twisted additions: Q1 = pi(Q), Q2 = -pi^2(Q).
    q1 = _g2_frobenius(q_aff)
    q2 = _g2_frobenius(q1)
    for r in (q1, (q2[0], fp2_neg(q2[1]))):
        line, t = _step(t, r)
        lines.append(line)
    return b"".join(x.to_bytes(_COORD_BYTES, "big") for line in lines for x in line)


def miller_loop(pairs: Iterable[tuple[PointG1, PreparedG2]]) -> Fp12:
    """One Miller loop over ``(G1 point, prepared G2)`` pairs (no final
    exponentiation); pairs with an identity argument contribute 1."""
    evals = []
    for p, lines in pairs:
        if p.is_identity or not lines:
            continue
        xp, yp = p.xy
        yi = fp_inv(yp)
        evals.append((-xp * yi % P, yi, lines))
    f = FP12_ONE
    pos = 0
    for square, count in _SCHEDULE:
        if square and pos:  # squaring the initial 1 is a no-op
            f = fp12_sq(f)
        end = pos + count
        for xn, yi, lines in evals:
            # Decode each line where it is used: one int per line, split
            # by shifts, so no unpacked copy of the lines is ever held.
            for o in range(pos * _LINE_BYTES, end * _LINE_BYTES, _LINE_BYTES):
                v = int.from_bytes(lines[o : o + _LINE_BYTES], "big")
                b = ((v >> 768) * xn % P, (v >> 512 & _MASK) * xn % P)
                c = ((v >> 256 & _MASK) * yi % P, (v & _MASK) * yi % P)
                f = fp12_mul_line(f, b, c)
        pos = end
    return f


def final_exponentiation_slow(f: Fp12) -> Fp12:
    """Direct ``f^((p^12-1)/r)``; reference implementation for tests."""
    return fp12_pow(f, (P**12 - 1) // CURVE_ORDER)


def final_exponentiation(f: Fp12) -> Fp12:
    """Fast final exponentiation (easy part + Devegili hard part)."""
    # Easy part: f^((p^6-1)(p^2+1)).
    f1 = fp12_mul(fp12_conj(f), fp12_inv(f))  # f^(p^6-1)
    f2 = fp12_mul(fp12_frobenius_n(f1, 2), f1)  # ^(p^2+1)
    # Hard part: f2^((p^4-p^2+1)/r), addition chain in the cyclotomic
    # subgroup (where inversion = conjugation).
    x = BN_U
    fp1 = fp12_frobenius(f2)
    fp2_ = fp12_frobenius_n(f2, 2)
    fp3 = fp12_frobenius_n(f2, 3)
    # f2 is in the cyclotomic subgroup: use compressed squaring.
    fu = fp12_cyclotomic_pow(f2, x)
    fu2 = fp12_cyclotomic_pow(fu, x)
    fu3 = fp12_cyclotomic_pow(fu2, x)
    y0 = fp12_mul(fp12_mul(fp1, fp2_), fp3)
    y1 = fp12_conj(f2)
    y2 = fp12_frobenius_n(fu2, 2)
    y3 = fp12_conj(fp12_frobenius(fu))
    y4 = fp12_conj(fp12_mul(fu, fp12_frobenius(fu2)))
    y5 = fp12_conj(fu2)
    y6 = fp12_conj(fp12_mul(fu3, fp12_frobenius(fu3)))
    t0 = fp12_mul(fp12_mul(fp12_cyclotomic_sq(y6), y4), y5)
    t1 = fp12_mul(fp12_mul(y3, y5), t0)
    t0 = fp12_mul(t0, y2)
    t1 = fp12_mul(fp12_cyclotomic_sq(t1), t0)
    t1 = fp12_cyclotomic_sq(t1)
    t0 = fp12_mul(t1, y1)
    t1 = fp12_mul(t1, y0)
    t0 = fp12_cyclotomic_sq(t0)
    return fp12_mul(t0, t1)


def pairing(p: PointG1, q: PointG2) -> Fp12:
    """Optimal-ate pairing e(P, Q) with fast final exponentiation."""
    return final_exponentiation(miller_loop([(p, prepare_g2(q))]))


def multi_pairing(pairs: Iterable[tuple[PointG1, PointG2]]) -> Fp12:
    """``prod e(P_i, Q_i)`` with one Miller loop and one final exponentiation."""
    prepared = [
        (p, prepare_g2(q)) for p, q in pairs if not (p.is_identity or q.is_identity)
    ]
    if not prepared:
        return FP12_ONE
    return final_exponentiation(miller_loop(prepared))
