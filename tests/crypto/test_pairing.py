"""Tests for the optimal-ate pairing on BN254.

The prepared-line, multi-pair Miller loop is pinned differentially to
:func:`_oracle_miller_loop`, the straightforward affine per-pair loop
with dense line multiplication, through the direct-exponentiation
:func:`final_exponentiation_slow`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.abe.cpabe import CpAbeScheme
from repro.crypto import bn254, simulated
from repro.crypto.curve import (
    _FP_OPS,
    G1_GENERATOR as g1,
    G2_GENERATOR as g2,
    PointG1,
    PointG2,
)
from repro.crypto.field import (
    ATE_LOOP_COUNT,
    CURVE_ORDER,
    FIELD_MODULUS as P,
    fp_inv,
    mod_inv,
    scalar_inv,
)
from repro.crypto.group import G1, G2, GT, BN254Group, GroupElement
from repro.crypto.pairing import (
    _g2_frobenius,
    final_exponentiation,
    final_exponentiation_slow,
    miller_loop,
    multi_pairing,
    pairing,
    prepare_g2,
)
from repro.crypto.tower import (
    FP2_ZERO,
    FP12_ONE,
    fp2_add,
    fp2_inv,
    fp2_mul,
    fp2_mul_scalar,
    fp2_neg,
    fp2_sq,
    fp2_sub,
    fp12_mul,
    fp12_pow,
)
from repro.errors import CryptoError
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler.msp import Msp, get_msp


# -- oracle: the affine per-pair Miller loop ----------------------------------

def _oracle_line(t, q, p_aff):
    """Dense line through T and Q (tangent when equal) at P, and T + Q."""
    (xt, yt), (xq, yq), (xp, yp) = t, q, p_aff
    if t == q:
        lam = fp2_mul(fp2_mul_scalar(fp2_sq(xt), 3), fp2_inv(fp2_add(yt, yt)))
    else:
        lam = fp2_mul(fp2_sub(yq, yt), fp2_inv(fp2_sub(xq, xt)))
    x3 = fp2_sub(fp2_sub(fp2_sq(lam), xt), xq)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(xt, x3)), yt)
    # yP - lam*xP*w + (lam*xT - yT)*v*w as a dense Fp12 element.
    b = fp2_neg(fp2_mul_scalar(lam, xp))
    c = fp2_sub(fp2_mul(lam, xt), yt)
    line = (((yp, 0), FP2_ZERO, FP2_ZERO), (b, c, FP2_ZERO))
    return line, (x3, y3)


def _oracle_miller_loop(p, q):
    if p.is_identity or q.is_identity:
        return FP12_ONE
    p_aff, q_aff = p.xy, q.xy
    f, t = FP12_ONE, q_aff
    for bit in bin(ATE_LOOP_COUNT)[3:]:
        line, t = _oracle_line(t, t, p_aff)
        f = fp12_mul(fp12_mul(f, f), line)
        if bit == "1":
            line, t = _oracle_line(t, q_aff, p_aff)
            f = fp12_mul(f, line)
    q1 = _g2_frobenius(q_aff)
    q2 = _g2_frobenius(q1)
    for r in (q1, (q2[0], fp2_neg(q2[1]))):
        line, t = _oracle_line(t, r, p_aff)
        f = fp12_mul(f, line)
    return f


def _oracle_product(pairs):
    f = FP12_ONE
    for p, q in pairs:
        f = fp12_mul(f, _oracle_miller_loop(p, q))
    return final_exponentiation_slow(f)


# -- classic properties --------------------------------------------------------

@pytest.fixture(scope="module")
def e_g1_g2():
    return pairing(g1, g2)


def test_non_degenerate(e_g1_g2):
    assert e_g1_g2 != FP12_ONE


def test_pairing_output_has_order_r(e_g1_g2):
    assert fp12_pow(e_g1_g2, CURVE_ORDER) == FP12_ONE


def test_bilinearity_left(e_g1_g2):
    assert pairing(g1 * 5, g2) == fp12_pow(e_g1_g2, 5)


def test_bilinearity_right(e_g1_g2):
    assert pairing(g1, g2 * 5) == fp12_pow(e_g1_g2, 5)


def test_bilinearity_both_sides(e_g1_g2):
    a, b = 31337, 271828
    assert pairing(g1 * a, g2 * b) == fp12_pow(e_g1_g2, a * b)


def test_pairing_with_identity():
    assert pairing(PointG1.identity(), g2) == FP12_ONE
    assert pairing(g1, PointG2.identity()) == FP12_ONE


def test_pairing_inverse(e_g1_g2):
    lhs = pairing(-g1, g2)
    assert fp12_mul(lhs, e_g1_g2) == FP12_ONE


def test_fast_final_exponentiation_matches_slow():
    m = miller_loop([(g1 * 7, prepare_g2(g2 * 11))])
    assert final_exponentiation(m) == final_exponentiation_slow(m)


def test_multi_pairing_is_product(e_g1_g2):
    # e(2P, Q) * e(P, 3Q) = e(P, Q)^5
    out = multi_pairing([(g1 * 2, g2), (g1, g2 * 3)])
    assert out == fp12_pow(e_g1_g2, 5)


def test_multi_pairing_empty():
    assert multi_pairing([]) == FP12_ONE
    assert multi_pairing([(PointG1.identity(), g2)]) == FP12_ONE


def test_pairing_cancellation(e_g1_g2):
    # e(aP, Q) * e(-aP, Q) = 1
    out = multi_pairing([(g1 * 9, g2), (-(g1 * 9), g2)])
    assert out == FP12_ONE


# -- differential: prepared lines and the multi-Miller loop vs the oracle -----

scalars = st.integers(min_value=0, max_value=CURVE_ORDER - 1)
_slow = settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_slow
@given(scalars, scalars)
def test_prepared_pairing_matches_oracle(a, b):
    p, q = g1 * a, g2 * b
    assert pairing(p, q) == _oracle_product([(p, q)])


@_slow
@given(st.lists(st.tuples(scalars, scalars, st.booleans()), min_size=1, max_size=3))
def test_multi_miller_loop_matches_oracle_product(specs):
    # Identity arguments come from scalar 0; ``repeat`` reuses the first
    # G2 point, so the group backend's line cache is hit.
    q0 = g2 * specs[0][1]
    pairs = [(g1 * a, q0 if repeat else g2 * b) for a, b, repeat in specs]
    expected = _oracle_product(pairs)
    assert multi_pairing(pairs) == expected
    grp = BN254Group()
    elements = [(GroupElement(grp, G1, p), GroupElement(grp, G2, q)) for p, q in pairs]
    assert grp.multi_pair(elements).value == expected
    assert grp.multi_pair(elements).value == expected  # second pass: cached lines


def test_single_pair_cache_hit_and_miss_match_oracle():
    grp = BN254Group()
    p, q = g1 * 5, g2 * 7
    a, b = GroupElement(grp, G1, p), GroupElement(grp, G2, q)
    expected = _oracle_product([(p, q)])
    assert grp.pair(a, b).value == expected
    assert grp.pair(a ** 3, b).value == _oracle_product([(p * 3, q)])  # cached lines
    assert grp.pair(a, b).value == expected  # pair-cache hit


# -- the line cache ------------------------------------------------------------

def test_line_cache_lru_bound_holds():
    grp = BN254Group()
    grp.LINE_CACHE_MAX = 2
    a = grp.g1
    qs = [grp.g2 ** k for k in (2, 3, 4)]
    for q in qs:
        grp.pair(a, q)
    assert len(grp._line_cache) == 2
    assert qs[0].value.to_bytes() not in grp._line_cache  # least recent evicted
    # Fresh G1 arguments, so the pairing cache does not answer first.
    grp.pair(a ** 2, qs[1])  # refresh qs[1], so qs[2] goes next
    grp.pair(a ** 3, qs[0])
    assert set(grp._line_cache) == {qs[0].value.to_bytes(), qs[1].value.to_bytes()}


def test_fast_paths_off_bypasses_line_cache():
    grp = BN254Group()
    grp.fast_paths = False
    expected = pairing(g1 * 3, g2 * 4)
    assert grp.pair(grp.g1 ** 3, grp.g2 ** 4).value == expected
    assert grp.multi_pair([(grp.g1 ** 3, grp.g2 ** 4)]).value == expected
    assert not grp._line_cache


def test_failed_preparation_is_not_cached():
    grp = BN254Group()
    # Not a curve point: y = 0 makes the first tangent vertical.
    bad = GroupElement(grp, G2, PointG2(((1, 2), FP2_ZERO)))
    with pytest.raises(CryptoError):
        grp.pair(grp.g1, bad)
    with pytest.raises(CryptoError):
        grp.multi_pair([(grp.g1, grp.g2), (grp.g1, bad)])
    assert set(grp._line_cache) <= {grp.g2.value.to_bytes()}


# -- inverses ------------------------------------------------------------------

@pytest.mark.parametrize(
    "invert",
    [
        fp_inv,
        scalar_inv,
        _FP_OPS.inv,
        lambda a: fp2_inv((a, a)),
        lambda a: mod_inv(a, 101),
    ],
)
def test_zero_inverse_raises_crypto_error(invert):
    with pytest.raises(CryptoError):
        invert(0)


def test_inverse_reduces_before_the_zero_check():
    with pytest.raises(CryptoError):
        fp_inv(P)
    with pytest.raises(CryptoError):
        scalar_inv(CURVE_ORDER)


def test_inverses_are_inverses():
    rng = random.Random(3)
    for _ in range(20):
        a = rng.randrange(1, P)
        assert a * fp_inv(a) % P == 1
        assert a * _FP_OPS.inv(a) % P == 1
        s = rng.randrange(1, CURVE_ORDER)
        assert s * scalar_inv(s) % CURVE_ORDER == 1


# -- CP-ABE open as one multi-pairing -----------------------------------------

def _old_recover_blinding(grp, msp, v, sk, ct):
    """Decrypt's blinding factor by the textbook per-pair formula."""
    numerator = grp.pair(ct.c_prime, sk.k)
    denom = grp.identity(GT)
    for i, label in enumerate(msp.labels):
        if v[i] == 0:
            continue
        term = grp.pair(ct.c_rows[i], sk.l) * grp.pair(sk.k_attr[label], ct.d_rows[i])
        denom = denom * term ** v[i]
    return numerator / denom


@pytest.mark.parametrize("backend", [simulated, bn254], ids=["simulated", "bn254"])
@pytest.mark.parametrize(
    "policy, attrs, vector",
    [
        ("a and (b or c)", {"a", "c"}, None),
        # a or b with both held: v = (3, -2) also spans e1 and exercises
        # coefficients other than 0 and 1.
        ("a or b", {"a", "b"}, [3, CURVE_ORDER - 2]),
    ],
)
def test_cpabe_open_matches_per_pair_formula(backend, policy, attrs, vector, monkeypatch):
    grp = backend()
    rng = random.Random(7)
    scheme = CpAbeScheme(grp)
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, attrs, rng)
    expr = parse_policy(policy)
    message = grp.gt ** 12345
    ct = scheme.encrypt(keys.public, message, expr, rng)
    if vector is not None:
        monkeypatch.setattr(Msp, "satisfying_vector", lambda self, _attrs: list(vector))
    msp = get_msp(expr, grp.order)
    v = msp.satisfying_vector(attrs)
    expected = _old_recover_blinding(grp, msp, v, sk, ct)
    before = grp.stats.snapshot()
    blinding = scheme._recover_blinding(sk, ct)
    delta = grp.stats.delta(before)
    assert blinding == expected
    assert blinding.to_bytes() == expected.to_bytes()
    assert delta["miller_loops"] == 1
    assert delta["final_exps"] == 1
    assert scheme.decrypt(sk, ct) == message
