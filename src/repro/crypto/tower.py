"""Extension-field tower Fp2 -> Fp6 -> Fp12 for the BN254 pairing.

Representation (chosen for speed — plain tuples of ints, module-level
functions, no classes in the hot path):

* ``Fp2``  element: ``(a0, a1)`` meaning ``a0 + a1*i`` with ``i^2 = -1``.
* ``Fp6``  element: ``(c0, c1, c2)`` of Fp2, meaning ``c0 + c1*v + c2*v^2``
  with ``v^3 = XI`` where ``XI = 9 + i``.
* ``Fp12`` element: ``(d0, d1)`` of Fp6, meaning ``d0 + d1*w`` with
  ``w^2 = v``.

The sextic twist ``E': y^2 = x^3 + 3/XI`` over Fp2 untwists into E(Fp12)
via ``(x, y) -> (x*w^2, y*w^3)``.
"""

from __future__ import annotations

from repro.crypto.field import FIELD_MODULUS as P
from repro.errors import CryptoError

Fp2 = tuple  # (int, int)
Fp6 = tuple  # (Fp2, Fp2, Fp2)
Fp12 = tuple  # (Fp6, Fp6)

FP2_ZERO: Fp2 = (0, 0)
FP2_ONE: Fp2 = (1, 0)

#: The non-residue XI = 9 + i used for the Fp6 extension and the twist.
XI: Fp2 = (9, 1)

FP6_ZERO: Fp6 = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE: Fp6 = (FP2_ONE, FP2_ZERO, FP2_ZERO)

FP12_ZERO: Fp12 = (FP6_ZERO, FP6_ZERO)
FP12_ONE: Fp12 = (FP6_ONE, FP6_ZERO)


# ---------------------------------------------------------------------------
# Fp2 arithmetic
# ---------------------------------------------------------------------------

def fp2_add(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fp2_sub(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fp2_neg(a: Fp2) -> Fp2:
    return (-a[0] % P, -a[1] % P)


def fp2_mul(a: Fp2, b: Fp2) -> Fp2:
    # Karatsuba over i^2 = -1.
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    t2 = (a0 + a1) * (b0 + b1)
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def fp2_mul_scalar(a: Fp2, k: int) -> Fp2:
    return (a[0] * k % P, a[1] * k % P)


def fp2_sq(a: Fp2) -> Fp2:
    a0, a1 = a
    # (a0 + a1 i)^2 = (a0-a1)(a0+a1) + 2 a0 a1 i
    return ((a0 - a1) * (a0 + a1) % P, 2 * a0 * a1 % P)


def fp2_inv(a: Fp2) -> Fp2:
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % P
    if norm == 0:
        raise CryptoError("inverse of zero in Fp2")
    inv = pow(norm, -1, P)
    return (a0 * inv % P, -a1 * inv % P)


def fp2_conj(a: Fp2) -> Fp2:
    return (a[0], -a[1] % P)


def fp2_mul_xi(a: Fp2) -> Fp2:
    """Multiply by XI = 9 + i."""
    a0, a1 = a
    return ((9 * a0 - a1) % P, (a0 + 9 * a1) % P)


def fp2_pow(a: Fp2, e: int) -> Fp2:
    result = FP2_ONE
    base = a
    while e:
        if e & 1:
            result = fp2_mul(result, base)
        base = fp2_sq(base)
        e >>= 1
    return result


def fp2_sqrt(a: Fp2) -> Fp2 | None:
    """Square root in Fp2 (complex method); ``None`` for non-residues."""
    if a == FP2_ZERO:
        return FP2_ZERO
    a0, a1 = a
    if a1 == 0:
        # sqrt of an Fp element inside Fp2: either sqrt(a0) in Fp, or
        # sqrt(-a0)*i since i^2 = -1.
        r = pow(a0, (P + 1) // 4, P)
        if r * r % P == a0 % P:
            return (r, 0)
        r = pow(-a0 % P, (P + 1) // 4, P)
        if r * r % P == -a0 % P:
            return (0, r)
        return None
    # norm = a0^2 + a1^2 must be a residue in Fp.
    norm = (a0 * a0 + a1 * a1) % P
    n = pow(norm, (P + 1) // 4, P)
    if n * n % P != norm:
        return None
    inv2 = pow(2, -1, P)
    for sign in (n, -n % P):
        x2 = (a0 + sign) * inv2 % P
        x = pow(x2, (P + 1) // 4, P)
        if x * x % P != x2:
            continue
        if x == 0:
            continue
        y = a1 * pow(2 * x % P, -1, P) % P
        cand = (x, y)
        if fp2_sq(cand) == (a0 % P, a1 % P):
            return cand
    return None


# ---------------------------------------------------------------------------
# Fp6 arithmetic (c0 + c1 v + c2 v^2, v^3 = XI)
# ---------------------------------------------------------------------------

def fp6_add(a: Fp6, b: Fp6) -> Fp6:
    return (fp2_add(a[0], b[0]), fp2_add(a[1], b[1]), fp2_add(a[2], b[2]))


def fp6_sub(a: Fp6, b: Fp6) -> Fp6:
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a: Fp6) -> Fp6:
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def fp6_mul(a: Fp6, b: Fp6) -> Fp6:
    # The pairing's hot path, on plain ints: Karatsuba over Fp6 (six Fp2
    # products) and over Fp2 (three multiplications each), one reduction
    # per output coordinate.  Inputs may be unreduced (any int
    # coordinates), which lets Fp12 callers skip reducing their sums.
    #   c0 = v0 + XI ((a1 + a2)(b1 + b2) - v1 - v2)
    #   c1 = (a0 + a1)(b0 + b1) - v0 - v1 + XI v2
    #   c2 = (a0 + a2)(b0 + b2) - v0 - v2 + v1,   v_k = a_k b_k,
    # with XI (x + y i) = (9x - y) + (x + 9y) i.
    (a00, a01), (a10, a11), (a20, a21) = a
    (b00, b01), (b10, b11), (b20, b21) = b
    m0, m1 = a00 * b00, a01 * b01
    v00, v01 = m0 - m1, (a00 + a01) * (b00 + b01) - m0 - m1
    m0, m1 = a10 * b10, a11 * b11
    v10, v11 = m0 - m1, (a10 + a11) * (b10 + b11) - m0 - m1
    m0, m1 = a20 * b20, a21 * b21
    v20, v21 = m0 - m1, (a20 + a21) * (b20 + b21) - m0 - m1
    x0, x1, y0, y1 = a10 + a20, a11 + a21, b10 + b20, b11 + b21
    m0, m1 = x0 * y0, x1 * y1
    t0 = m0 - m1 - v10 - v20
    t1 = (x0 + x1) * (y0 + y1) - m0 - m1 - v11 - v21
    c00, c01 = v00 + 9 * t0 - t1, v01 + t0 + 9 * t1
    x0, x1, y0, y1 = a00 + a10, a01 + a11, b00 + b10, b01 + b11
    m0, m1 = x0 * y0, x1 * y1
    t0 = m0 - m1 - v00 - v10
    t1 = (x0 + x1) * (y0 + y1) - m0 - m1 - v01 - v11
    c10, c11 = t0 + 9 * v20 - v21, t1 + v20 + 9 * v21
    x0, x1, y0, y1 = a00 + a20, a01 + a21, b00 + b20, b01 + b21
    m0, m1 = x0 * y0, x1 * y1
    c20 = m0 - m1 - v00 - v20 + v10
    c21 = (x0 + x1) * (y0 + y1) - m0 - m1 - v01 - v21 + v11
    return ((c00 % P, c01 % P), (c10 % P, c11 % P), (c20 % P, c21 % P))


def fp6_sq(a: Fp6) -> Fp6:
    return fp6_mul(a, a)


def fp6_mul_fp2(a: Fp6, k: Fp2) -> Fp6:
    return (fp2_mul(a[0], k), fp2_mul(a[1], k), fp2_mul(a[2], k))


def fp6_mul_v(a: Fp6) -> Fp6:
    """Multiply by v: (c0, c1, c2) -> (XI*c2, c0, c1)."""
    return (fp2_mul_xi(a[2]), a[0], a[1])


def fp6_inv(a: Fp6) -> Fp6:
    a0, a1, a2 = a
    t0 = fp2_sq(a0)
    t1 = fp2_sq(a1)
    t2 = fp2_sq(a2)
    t3 = fp2_mul(a0, a1)
    t4 = fp2_mul(a0, a2)
    t5 = fp2_mul(a1, a2)
    c0 = fp2_sub(t0, fp2_mul_xi(t5))
    c1 = fp2_sub(fp2_mul_xi(t2), t3)
    c2 = fp2_sub(t1, t4)
    # norm = a0*c0 + XI*(a2*c1 + a1*c2)
    norm = fp2_add(
        fp2_mul(a0, c0),
        fp2_mul_xi(fp2_add(fp2_mul(a2, c1), fp2_mul(a1, c2))),
    )
    ninv = fp2_inv(norm)
    return (fp2_mul(c0, ninv), fp2_mul(c1, ninv), fp2_mul(c2, ninv))


# ---------------------------------------------------------------------------
# Fp12 arithmetic (d0 + d1 w, w^2 = v)
# ---------------------------------------------------------------------------

def fp12_add(a: Fp12, b: Fp12) -> Fp12:
    return (fp6_add(a[0], b[0]), fp6_add(a[1], b[1]))


def _fp6_lazy_add(a: Fp6, b: Fp6) -> Fp6:
    """``a + b`` left unreduced, as input for :func:`fp6_mul`."""
    (a00, a01), (a10, a11), (a20, a21) = a
    (b00, b01), (b10, b11), (b20, b21) = b
    return ((a00 + b00, a01 + b01), (a10 + b10, a11 + b11), (a20 + b20, a21 + b21))


def fp12_mul(a: Fp12, b: Fp12) -> Fp12:
    # Karatsuba: c0 = t0 + v t1, c1 = (a0 + a1)(b0 + b1) - t0 - t1.
    a0, a1 = a
    b0, b1 = b
    (t00, t01), (t02, t03), (t04, t05) = fp6_mul(a0, b0)
    (t10, t11), (t12, t13), (t14, t15) = fp6_mul(a1, b1)
    (s0, s1), (s2, s3), (s4, s5) = fp6_mul(_fp6_lazy_add(a0, a1), _fp6_lazy_add(b0, b1))
    return (
        (
            ((t00 + 9 * t14 - t15) % P, (t01 + t14 + 9 * t15) % P),
            ((t02 + t10) % P, (t03 + t11) % P),
            ((t04 + t12) % P, (t05 + t13) % P),
        ),
        (
            ((s0 - t00 - t10) % P, (s1 - t01 - t11) % P),
            ((s2 - t02 - t12) % P, (s3 - t03 - t13) % P),
            ((s4 - t04 - t14) % P, (s5 - t05 - t15) % P),
        ),
    )


def fp12_sq(a: Fp12) -> Fp12:
    # Complex squaring: c0 = (a0 + a1)(a0 + v a1) - t - v t, c1 = 2t,
    # t = a0 a1.
    a0, a1 = a
    (g00, g01), (g10, g11), (g20, g21) = a0
    (h00, h01), (h10, h11), (h20, h21) = a1
    (t0, t1), (t2, t3), (t4, t5) = fp6_mul(a0, a1)
    a0_plus_va1 = (
        (g00 + 9 * h20 - h21, g01 + h20 + 9 * h21),
        (g10 + h00, g11 + h01),
        (g20 + h10, g21 + h11),
    )
    (s0, s1), (s2, s3), (s4, s5) = fp6_mul(_fp6_lazy_add(a0, a1), a0_plus_va1)
    return (
        (
            ((s0 - t0 - 9 * t4 + t5) % P, (s1 - t1 - t4 - 9 * t5) % P),
            ((s2 - t2 - t0) % P, (s3 - t3 - t1) % P),
            ((s4 - t4 - t2) % P, (s5 - t5 - t3) % P),
        ),
        (
            (2 * t0 % P, 2 * t1 % P),
            (2 * t2 % P, 2 * t3 % P),
            (2 * t4 % P, 2 * t5 % P),
        ),
    )


def fp12_inv(a: Fp12) -> Fp12:
    a0, a1 = a
    norm = fp6_sub(fp6_sq(a0), fp6_mul_v(fp6_sq(a1)))
    ninv = fp6_inv(norm)
    return (fp6_mul(a0, ninv), fp6_neg(fp6_mul(a1, ninv)))


def fp12_conj(a: Fp12) -> Fp12:
    """Conjugation (the p^6 Frobenius): negates the w part.

    For elements of the cyclotomic subgroup this equals inversion.
    """
    return (a[0], fp6_neg(a[1]))


def fp12_pow(a: Fp12, e: int) -> Fp12:
    if e < 0:
        a = fp12_inv(a)
        e = -e
    result = FP12_ONE
    base = a
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sq(base)
        e >>= 1
    return result


def fp12_mul_line(f: Fp12, b: Fp2, c: Fp2) -> Fp12:
    """Sparse multiplication of ``f`` by the line ``1 + b*w + c*(v*w)``.

    ``b`` and ``c`` are Fp2; the Miller loop scales every line so its
    constant term is 1.  Derivation in :mod:`repro.crypto.pairing`.
    """
    # L = (1, B) with B = (b, c, 0) in Fp6 coordinates:
    # f*L = (f0 + f1*B*v, f0*B + f1), where
    # f1*B = (u0 b + XI u2 c, u0 c + u1 b, u1 c + u2 b) and multiplying
    # by v rotates it to (XI (u1 c + u2 b), u0 b + XI u2 c, u0 c + u1 b).
    # Plain ints, one reduction per output coordinate (see fp6_mul).
    ((g00, g01), (g10, g11), (g20, g21)), ((u00, u01), (u10, u11), (u20, u21)) = f
    b0, b1 = b
    c0, c1 = c
    # x = u1 c + u2 b and y = g2 c, both needed times XI.
    x0 = u10 * c0 - u11 * c1 + u20 * b0 - u21 * b1
    x1 = u10 * c1 + u11 * c0 + u20 * b1 + u21 * b0
    z0 = u20 * c0 - u21 * c1
    z1 = u20 * c1 + u21 * c0
    y0 = g20 * c0 - g21 * c1
    y1 = g20 * c1 + g21 * c0
    return (
        (
            ((g00 + 9 * x0 - x1) % P, (g01 + x0 + 9 * x1) % P),
            ((g10 + u00 * b0 - u01 * b1 + 9 * z0 - z1) % P,
             (g11 + u00 * b1 + u01 * b0 + z0 + 9 * z1) % P),
            ((g20 + u00 * c0 - u01 * c1 + u10 * b0 - u11 * b1) % P,
             (g21 + u00 * c1 + u01 * c0 + u10 * b1 + u11 * b0) % P),
        ),
        (
            ((u00 + g00 * b0 - g01 * b1 + 9 * y0 - y1) % P,
             (u01 + g00 * b1 + g01 * b0 + y0 + 9 * y1) % P),
            ((u10 + g00 * c0 - g01 * c1 + g10 * b0 - g11 * b1) % P,
             (u11 + g00 * c1 + g01 * c0 + g10 * b1 + g11 * b0) % P),
            ((u20 + g10 * c0 - g11 * c1 + g20 * b0 - g21 * b1) % P,
             (u21 + g10 * c1 + g11 * c0 + g20 * b1 + g21 * b0) % P),
        ),
    )


def _fp4_sq(a0: int, a1: int, b0: int, b1: int) -> tuple[int, int, int, int]:
    """Squaring in Fp4 = Fp2[t]/(t^2 - XI): (a + b*t)^2, unreduced.

    ``(a^2 + XI b^2) + 2ab t`` with ``a = a0 + a1 i`` and ``b = b0 + b1 i``.
    """
    x0 = (b0 - b1) * (b0 + b1)  # b^2
    x1 = 2 * b0 * b1
    return (
        (a0 - a1) * (a0 + a1) + 9 * x0 - x1,
        2 * a0 * a1 + x0 + 9 * x1,
        2 * (a0 * b0 - a1 * b1),
        2 * (a0 * b1 + a1 * b0),
    )


def fp12_cyclotomic_sq(f: Fp12) -> Fp12:
    """Granger-Scott squaring, valid only in the cyclotomic subgroup.

    Elements that survive the easy part of the final exponentiation
    (f^((p^6-1)(p^2+1))) live in the cyclotomic subgroup, where squaring
    admits this cheaper compressed form (three Fp4 squarings instead of a
    full Fp12 squaring).  Using it outside the subgroup gives wrong
    results — callers must guarantee membership.
    """
    ((c000, c001), (c010, c011), (c020, c021)), ((c100, c101), (c110, c111), (c120, c121)) = f
    t00, t01, t10, t11 = _fp4_sq(c000, c001, c110, c111)
    t20, t21, t30, t31 = _fp4_sq(c100, c101, c020, c021)
    t40, t41, t50, t51 = _fp4_sq(c010, c011, c120, c121)
    t60, t61 = 9 * t50 - t51, t50 + 9 * t51  # XI * t5
    return (
        (
            ((3 * t00 - 2 * c000) % P, (3 * t01 - 2 * c001) % P),
            ((3 * t20 - 2 * c010) % P, (3 * t21 - 2 * c011) % P),
            ((3 * t40 - 2 * c020) % P, (3 * t41 - 2 * c021) % P),
        ),
        (
            ((3 * t60 + 2 * c100) % P, (3 * t61 + 2 * c101) % P),
            ((3 * t10 + 2 * c110) % P, (3 * t11 + 2 * c111) % P),
            ((3 * t30 + 2 * c120) % P, (3 * t31 + 2 * c121) % P),
        ),
    )


def fp12_cyclotomic_pow(f: Fp12, e: int) -> Fp12:
    """Exponentiation using cyclotomic squaring (subgroup members only).

    Negative exponents use conjugation (= inversion in the subgroup).
    """
    if e < 0:
        f = fp12_conj(f)
        e = -e
    result = FP12_ONE
    base = f
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_cyclotomic_sq(base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Frobenius endomorphism
# ---------------------------------------------------------------------------

def _compute_gammas() -> list[Fp2]:
    """gamma_i = XI^((p-1)*i/6) for i in 1..5 (Fp2 constants)."""
    base = fp2_pow(XI, (P - 1) // 6)
    gammas = [base]
    for _ in range(4):
        gammas.append(fp2_mul(gammas[-1], base))
    return gammas


#: gamma[i-1] = XI^((p-1)i/6); used in Frobenius maps.
GAMMA: list[Fp2] = _compute_gammas()


def fp6_frobenius(a: Fp6) -> Fp6:
    """p-power Frobenius on Fp6: conjugate coefficients, twist v powers."""
    return (
        fp2_conj(a[0]),
        fp2_mul(fp2_conj(a[1]), GAMMA[1]),  # v^p = gamma_2 * v
        fp2_mul(fp2_conj(a[2]), GAMMA[3]),  # v^2p = gamma_4 * v^2
    )


def fp12_frobenius(a: Fp12) -> Fp12:
    """p-power Frobenius on Fp12."""
    a0, a1 = a
    b0 = fp6_frobenius(a0)
    t = fp6_frobenius(a1)
    # w^p = gamma_1 * w
    b1 = fp6_mul_fp2(t, GAMMA[0])
    return (b0, b1)


def fp12_frobenius_n(a: Fp12, n: int) -> Fp12:
    for _ in range(n % 12):
        a = fp12_frobenius(a)
    return a
