import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyrolab import qfield
from gyrolab.qfield import ONE, SQRT2, ZERO, Q2, parse

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
q2s = st.builds(Q2, rationals, rationals)
nonzero_q2s = q2s.filter(lambda x: not x.is_zero())


def test_product_of_conjugate_units():
    assert (ONE + SQRT2) * (-ONE + SQRT2) == ONE


def test_additive_inverse():
    x = Q2(Fraction(3, 2), 7)
    assert x + (-x) == ZERO


def test_square_of_one_plus_sqrt2():
    assert (ONE + SQRT2) ** 2 == Q2(3, 2)


def test_inverse_examples():
    assert (ONE + SQRT2).inverse() == Q2(-1, 1)
    assert Q2(2).inverse() == Q2(Fraction(1, 2))
    assert SQRT2.inverse() == Q2(0, Fraction(1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_examples():
    assert Q2(7, -5).sign() == -1  # 49 < 50
    assert ZERO.sign() == 0
    assert Q2(-1, 1).sign() == 1  # 2 > 1


def test_canonical_serialization():
    assert str(Q2(3)) == "3/1+0/1*sqrt2"
    assert str(Q2(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4*sqrt2"
    assert str(Q2(1, -1)) == "1/1-1/1*sqrt2"


def test_parse_shorthands():
    assert parse("3") == Q2(3)
    assert parse("-1/2") == Q2(Fraction(-1, 2))
    assert parse("1+1*sqrt2") == Q2(1, 1)
    assert parse("sqrt2") == SQRT2
    assert parse("-sqrt2") == -SQRT2
    assert parse("1/2-3/4*sqrt2") == Q2(Fraction(1, 2), Fraction(-3, 4))


@pytest.mark.parametrize("bad", ["", "1 + sqrt2", "sqrt3", "2*sqrt2+1", "1sqrt2", "++1",
                                 "1/0", "1+1/0*sqrt2", "3\n", "9/7\n"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError, match="invalid Q2 literal"):
        parse(bad)


@given(q2s)
def test_parse_format_round_trip(x):
    assert parse(str(x)) == x


@given(q2s, q2s, q2s)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(nonzero_q2s)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE
    assert ONE / x == x.inverse()


@given(q2s, q2s)
def test_order_antisymmetric(x, y):
    assert (x < y) + (y < x) + (x == y) == 1


@given(q2s, q2s, q2s)
def test_order_transitive(x, y, z):
    a, b, c = sorted([x, y, z])
    assert a <= b <= c
    assert not (c < a)


@given(q2s)
def test_hash_eq_consistency_with_rationals(x):
    if x.b == 0:
        assert x == x.a and hash(x) == hash(x.a)


@settings(max_examples=50)
@given(nonzero_q2s, st.integers(min_value=-6, max_value=6))
def test_integer_powers(x, n):
    expected = ONE
    base = x if n >= 0 else x.inverse()
    for _ in range(abs(n)):
        expected = expected * base
    assert x ** n == expected


def test_sign_agrees_with_high_precision_floats():
    # 10^4 random samples against 60-digit evaluation
    rng = random.Random(20261)
    mpmath.mp.dps = 60
    root2 = mpmath.sqrt(2)
    for _ in range(10_000):
        a = Fraction(rng.randint(-10**8, 10**8), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**8, 10**8), rng.randint(1, 10**6))
        x = Q2(a, b)
        val = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator
        ) * root2
        expected = 0 if val == 0 else (1 if val > 0 else -1)
        assert x.sign() == expected


def test_sign_of_near_cancellation():
    # Pell convergents: 8119/5741 < sqrt2 < 3363/2378, both within 1e-8
    assert Q2(8119, -5741).sign() == -1
    assert Q2(-8119, 5741).sign() == 1
    assert Q2(3363, -2378).sign() == 1


# -- the integer form against a (Fraction, Fraction) reference ------------------

# small integers reach the near-cancellations p^2 = 2q^2 +- 1 of sign()
components = st.one_of(rationals, st.integers(min_value=-20, max_value=20).map(Fraction))
pairs = st.tuples(components, components)
# a Q2 operand or a plain int/Fraction one, with its reference pair
operands = st.one_of(
    pairs.map(lambda ab: (Q2(*ab), ab)),
    st.integers(min_value=-50, max_value=50).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    rationals.map(lambda f: (f, (f, Fraction(0)))),
)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 2 * b * d, a * d + b * c


def ref_inverse(x):
    a, b = x
    norm = a * a - 2 * b * b
    return a / norm, -b / norm


def ref_sign(x):
    a, b = x
    if a == b == 0:
        return 0
    lead = a if a * a > 2 * b * b else b  # the term of larger magnitude
    return 1 if lead > 0 else -1


REF_OPS = {
    "+": (lambda x, y: x + y, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (lambda x, y: x - y, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (lambda x, y: x * y, ref_mul),
    "/": (lambda x, y: x / y, lambda x, y: ref_mul(x, ref_inverse(y))),
}


def assert_canonical(x: Q2, ref) -> None:
    assert isinstance(x, Q2)
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert (x.a, x.b) == ref
    assert (Fraction(x.p, x.d), Fraction(x.q, x.d)) == ref


@given(pairs, operands, st.sampled_from(sorted(REF_OPS)))
def test_operations_match_the_fraction_reference(x, other, op):
    fn, ref_fn = REF_OPS[op]
    y, y_ref = other
    for left, right, l_ref, r_ref in ((Q2(*x), y, x, y_ref), (y, Q2(*x), y_ref, x)):
        if not isinstance(left, Q2) and not isinstance(right, Q2):
            continue
        if op == "/" and r_ref == (0, 0):
            with pytest.raises(ZeroDivisionError):
                fn(left, right)
            continue
        assert_canonical(fn(left, right), ref_fn(l_ref, r_ref))


@given(pairs)
@example((Fraction(1), Fraction(-1)))  # p^2 = 2q^2 - 1
@example((Fraction(-3), Fraction(2)))  # p^2 = 2q^2 + 1
@example((Fraction(41, 3), Fraction(-29, 3)))
def test_unary_operations_match_the_fraction_reference(x):
    q = Q2(*x)
    assert_canonical(q, x)
    assert_canonical(-q, (-x[0], -x[1]))
    assert_canonical(2 * x[0] - q, (x[0], -x[1]))  # the conjugate
    assert q.sign() == ref_sign(x)
    assert q.is_zero() == (not q) == (x == (0, 0))
    a, b = x
    sep = "-" if b < 0 else "+"
    assert str(q) == f"{a.numerator}/{a.denominator}{sep}{abs(b).numerator}/{abs(b).denominator}*sqrt2"
    if x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            q.inverse()
    else:
        assert_canonical(q.inverse(), ref_inverse(x))


@settings(max_examples=50)
@given(pairs.filter(lambda ab: ab != (0, 0)), st.integers(min_value=-5, max_value=5))
def test_powers_match_the_fraction_reference(x, n):
    expected = (Fraction(1), Fraction(0))
    base = x if n >= 0 else ref_inverse(x)
    for _ in range(abs(n)):
        expected = ref_mul(expected, base)
    assert_canonical(Q2(*x) ** n, expected)


@given(pairs, operands)
def test_equality_order_and_hash_follow_the_values(x, other):
    q = Q2(*x)
    y, y_ref = other
    equal = x == y_ref
    assert (q == y) == (y == q) == equal
    assert (q != y) == (not equal)
    diff = ref_sign((x[0] - y_ref[0], x[1] - y_ref[1]))
    assert (q < y, q <= y, q > y, q >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
    if equal:
        assert hash(q) == hash(y)
    if x[1] == 0:
        assert q == x[0] and hash(q) == hash(x[0])


@given(pairs)
def test_equal_values_share_components_however_built(x):
    a, b = x
    k = Fraction(7, 3)
    rebuilt = (Q2(a * k, b * k) / k + Q2(a + 1, b) - 1) * Q2(1, 0) - Q2(a, b)
    assert (rebuilt.p, rebuilt.q, rebuilt.d) == (Q2(*x).p, Q2(*x).q, Q2(*x).d)
    assert hash(rebuilt) == hash(Q2(*x))


# -- parse and hash on ints, against Fraction ------------------------------------


def parse_by_fractions(text):
    """Q2.parse as it was on Fraction: (p, q, d), or the error's type and text."""
    m = qfield._LITERAL_RE.match(text)
    try:
        if m is None or (m.group("rat") is None and m.group("s2") is None):
            raise ValueError(f"invalid Q2 literal: {text!r}")
        if m.group("s2") and m.group("rat") and m.group("sgn") is None:
            raise ValueError(f"invalid Q2 literal: {text!r}")
        try:
            a = Fraction(m.group("rat") or 0)
            b = Fraction(m.group("coef") or 1) if m.group("s2") else Fraction(0)
        except ZeroDivisionError:
            raise ValueError(f"invalid Q2 literal: {text!r}") from None
        x = Q2(a, -b if m.group("sgn") == "-" else b)
        return x.p, x.q, x.d
    except ValueError as e:
        return type(e), str(e)


def parse_result(text):
    try:
        x = parse(text)
        return x.p, x.q, x.d
    except ValueError as e:
        return type(e), str(e)


literals = st.one_of(
    st.from_regex(qfield._LITERAL_RE),  # every literal shape, Unicode digits too
    st.lists(st.sampled_from(["0", "1", "7", "12", "00", "/", "/0", "-", "+", "*", "sqrt2"]),
             max_size=7).map("".join),  # mostly not literals
)


@settings(max_examples=300)
@given(literals)
@example("1/0")
@example("1+1/0*sqrt2")
@example("-0/7-0/3*sqrt2")
@example("3\n")
def test_parse_on_ints_equals_the_fraction_reference(text):
    assert parse_result(text) == parse_by_fractions(text)


MODULUS = sys.hash_info.modulus


@given(st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(), st.integers(1, 5).map(MODULUS.__mul__)),
    st.builds(Fraction, st.integers(), st.integers(1, 2 ** 70)),
))
@example(Fraction(-(MODULUS + 2), 2))  # its raw hash is -1, which Python turns into -2
@example(Fraction(-1))
@example(Fraction(3, MODULUS))
@example(Fraction(-3, MODULUS ** 2))
def test_rational_hash_is_the_fraction_hash(r):
    assert hash(Q2(r)) == hash(r)
    if r.denominator == 1:
        assert hash(Q2(r.numerator)) == hash(r.numerator)
