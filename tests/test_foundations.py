from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from bisimkit.foundations import (
    Count,
    EPSet,
    OMEGA_COUNT,
    ORD_OMEGA,
    ORD_ZERO,
    Ordinal,
    format_rational,
    ordinal_sup,
    parse_rational,
)


def raw_member(prefix: str, period: str, n: int) -> bool:
    # reference semantics straight off the raw description
    if n < len(prefix):
        return prefix[n] == "1"
    return period[(n - len(prefix)) % len(period)] == "1"


ordinals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=3
).map(lambda ts: Ordinal(tuple(sorted({e: c for e, c in ts}.items(), reverse=True))))

epsets = st.tuples(
    st.text(alphabet="01", max_size=8), st.text(alphabet="01", min_size=1, max_size=6)
).map(lambda pq: EPSet(pq[0], pq[1]))

finite_masks = st.frozensets(st.integers(0, 12), max_size=6)


# ordinals


def test_ordinal_comparisons():
    omega = ORD_OMEGA
    assert omega == Ordinal(((1, 1),))
    assert not omega < omega and not omega > omega
    assert omega > Ordinal.from_int(5)
    assert omega + 2 < Ordinal(((1, 2),))  # omega+2 below omega*2


def test_ordinal_sup():
    assert ordinal_sup([]) == ORD_ZERO
    assert ordinal_sup(map(Ordinal.from_int, [1, 3, 2])) == Ordinal.from_int(3)
    assert ordinal_sup([ORD_OMEGA, ORD_OMEGA + 1]) == ORD_OMEGA + 1


def test_ordinal_addition_cases():
    assert Ordinal.from_int(2) + ORD_OMEGA == ORD_OMEGA
    assert (ORD_OMEGA + 1) + 1 == ORD_OMEGA + 2
    assert ORD_ZERO + 0 == ORD_ZERO
    assert Ordinal.from_int(3) + 1 == Ordinal.from_int(4)


def test_ordinal_json_round_trip():
    omega_plus_two = Ordinal.from_json([[1, 1], [0, 2]])
    assert omega_plus_two == ORD_OMEGA + 2
    assert omega_plus_two.to_json() == [[1, 1], [0, 2]]
    with pytest.raises(ValueError):
        Ordinal.from_json([[0, 1], [1, 1]])  # exponents must decrease


def test_ordinal_rejects_bad_terms():
    with pytest.raises(ValueError):
        Ordinal(((1, 0),))
    with pytest.raises(ValueError):
        Ordinal.from_int(-1)


@given(ordinals, ordinals, ordinals)
def test_ordinal_total_order(a, b, c):
    assert (a < b) + (a == b) + (a > b) == 1
    if a <= b and b <= c:
        assert a <= c


@given(st.lists(ordinals, max_size=5))
def test_ordinal_sup_laws(items):
    s = ordinal_sup(items)
    assert all(x <= s for x in items)
    assert s in items or s == ORD_ZERO
    assert ordinal_sup(items + [s]) == s


# eventually periodic sets


def test_epset_canonical_form_examples():
    # purely periodic description hiding behind a redundant prefix
    assert EPSet("10", "10") == EPSet("", "10")
    # constant tail collapses to a one-bit period
    assert EPSet("111", "1") == EPSet.full()
    assert EPSet("", "0101") == EPSet("0", "10")
    assert EPSet("101", "0") == EPSet("101", "0")
    assert EPSet.empty().period == "0" and EPSet.empty().prefix == ""


@given(epsets_raw=st.tuples(st.text(alphabet="01", max_size=8), st.text(alphabet="01", min_size=1, max_size=6)))
def test_epset_canonicalization_preserves_membership(epsets_raw):
    prefix, period = epsets_raw
    canon = EPSet(prefix, period)
    window = len(prefix) + 3 * len(period) + 5
    for n in range(window):
        assert canon.member(n) == raw_member(prefix, period, n)


@given(epsets, epsets)
def test_epset_extensional_equality(x, y):
    window = max(len(x.prefix), len(y.prefix)) + 2 * len(x.period) * len(y.period)
    same = all(x.member(n) == y.member(n) for n in range(window + 1))
    assert (x == y) == same


def test_epset_membership_examples():
    evens = EPSet("", "10")
    assert evens.member(4)
    assert not evens.member(5)
    assert EPSet("101", "0").is_finite
    assert not evens.is_finite
    assert EPSet.from_finite([0, 2]).finite_elements() == [0, 2]


def test_epset_sup_succ():
    assert EPSet.empty().sup_succ() == ORD_ZERO
    assert EPSet.from_finite([0, 2]).sup_succ() == Ordinal.from_int(3)
    assert EPSet("", "10").sup_succ() == ORD_OMEGA


def test_epset_xor_finite_examples():
    evens = EPSet("", "10")
    assert evens.xor_finite(set()) == evens
    assert EPSet.empty().xor_finite({1, 3}) == EPSet.from_finite({1, 3})
    dropped = evens.xor_finite({0})
    for n in range(6):
        assert dropped.member(n) == (n % 2 == 0 and n != 0)


def test_epset_eventually_equal_examples():
    evens = EPSet("", "10")
    assert evens.eventually_equal(evens)
    assert not EPSet.empty().eventually_equal(EPSet.full())
    assert evens.eventually_equal(evens.xor_finite({0}))


@given(epsets, finite_masks)
def test_xor_finite_is_involutive(x, mask):
    assert x.xor_finite(mask).xor_finite(mask) == x


@given(epsets, finite_masks)
def test_finite_xor_stays_eventually_equal(x, mask):
    assert x.eventually_equal(x.xor_finite(mask))


@given(epsets, epsets)
def test_sym_diff_matches_pointwise_xor(x, y):
    d = x.sym_diff(y)
    window = (
        max(len(x.prefix), len(y.prefix), len(d.prefix))
        + 2 * len(x.period) * len(y.period) * len(d.period)
    )
    for n in range(window):
        assert d.member(n) == (x.member(n) ^ y.member(n))


@given(epsets, epsets)
def test_eventually_equal_iff_finite_sym_diff(x, y):
    assert x.eventually_equal(y) == x.sym_diff(y).is_finite


def test_eventually_equal_is_an_equivalence():
    rng = random.Random(97)

    def fresh() -> EPSet:
        prefix = "".join(rng.choice("01") for _ in range(rng.randrange(0, 7)))
        period = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
        return EPSet(prefix, period)

    for _ in range(1000):
        x = fresh()
        y = x.xor_finite({n for n in range(8) if rng.random() < 0.4})
        z = rng.choice([fresh(), y.xor_finite({rng.randrange(10)})])
        assert x.eventually_equal(x)
        assert x.eventually_equal(y) == y.eventually_equal(x)
        if x.eventually_equal(y) and y.eventually_equal(z):
            assert x.eventually_equal(z)
        if x.eventually_equal(y) and not y.eventually_equal(z):
            assert not x.eventually_equal(z)


def test_epset_helpers():
    odds = EPSet("0", "10")
    assert odds.elements_below(6) == [1, 3, 5]
    assert odds.has_element_geq(100)
    assert not EPSet.from_finite([2]).has_element_geq(3)
    assert EPSet.from_finite([2]).has_element_geq(2)
    assert EPSet.from_finite([0, 2]).encode_finite() == 5
    with pytest.raises(ValueError):
        odds.finite_elements()


def test_epset_json():
    x = EPSet("01", "10")
    assert EPSet.from_json(x.to_json()) == x
    with pytest.raises(ValueError):
        EPSet.from_json({"prefix": "01"})
    with pytest.raises(ValueError):
        EPSet("0", "")
    with pytest.raises(ValueError):
        EPSet("2", "0")


# counts


def test_count_saturating_addition():
    assert Count(2) + Count(3) == Count(5)
    assert Count(2) + OMEGA_COUNT == OMEGA_COUNT
    assert OMEGA_COUNT + OMEGA_COUNT == OMEGA_COUNT


def test_count_json():
    assert Count.from_json("omega") == OMEGA_COUNT
    assert Count.from_json(3) == Count(3)
    assert OMEGA_COUNT.to_json() == "omega"
    with pytest.raises(ValueError):
        Count.from_json(True)
    with pytest.raises(ValueError):
        Count(-1)


# rationals


def test_rational_parse_and_format():
    assert parse_rational("3/4") == (3, 4)
    assert parse_rational("2") == (2, 1)
    assert parse_rational("2/4") == (1, 2)
    assert parse_rational("0/3") == (0, 1)
    assert parse_rational("-6/4") == (-3, 2)
    assert format_rational((1, 1)) == "1/1"
    assert format_rational(parse_rational("2/4")) == "1/2"
    with pytest.raises(ValueError):
        parse_rational("2/0")
    with pytest.raises(ValueError):
        parse_rational("a/b")
    with pytest.raises(ValueError):
        parse_rational("1/-2")
