import pytest
from hypothesis import given, strategies as st

from twinskein.laurent import LaurentPoly, LaurentError, SKEIN_MULTIPLIER


def P(terms):
    return LaurentPoly(terms)


T = P({1: 1})
TINV = P({-1: 1})
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


class TestBasics:
    def test_add_inverse(self):
        assert T + (-T) == ZERO

    def test_add_cancellation(self):
        assert SKEIN_MULTIPLIER + TINV == T

    def test_add_term_merge(self):
        # the final sum of the worked twin computation: 1 + (t^2 - 2 + t^-2)
        assert ONE + P({2: 1, 0: -2, -2: 1}) == P({2: 1, 0: -1, -2: 1})

    def test_mul_expansion(self):
        assert SKEIN_MULTIPLIER * SKEIN_MULTIPLIER == P({2: 1, 0: -2, -2: 1})

    def test_mul_identity(self):
        p = P({3: 2, -1: 5})
        assert p * ONE == p

    def test_mul_absorbing(self):
        assert SKEIN_MULTIPLIER * ZERO == ZERO

    def test_negate(self):
        p = P({2: 1, 0: -1, -2: 1})
        assert -p == P({2: -1, 0: 1, -2: -1})
        assert -ZERO == ZERO
        assert -(-p) == p

    def test_is_symmetric(self):
        assert P({-2: 1, 0: -1, 2: 1}).is_symmetric()
        assert not P({0: 1, 1: -2}).is_symmetric()
        assert ZERO.is_symmetric()

    def test_zero_and_one_are_shared(self):
        assert LaurentPoly.zero() is ZERO and LaurentPoly.one() is ONE
        p = P({3: 2, -1: 5})
        assert ZERO + p is p and p + ZERO is p
        assert ONE + ONE == P({0: 2}) and ONE - ONE == ZERO
        assert ZERO.render() == "0" and ONE.render() == "1"

    def test_no_zero_coefficients_stored(self):
        assert P({5: 0, 1: 2}).pairs() == ((1, 2),)

    @pytest.mark.parametrize("terms", [{0.5: 1}, {1: 2.7}, {"2": "3"}],
                             ids=["float-exponent", "float-coefficient",
                                  "strings"])
    def test_non_integer_terms_are_refused(self, terms):
        # int() would read these as 1, 2t and 3t^2
        with pytest.raises(LaurentError, match="not an integer"):
            P(terms)

    def test_equal_polynomials_hash_equal(self):
        # built in different term orders
        p, q = P({2: 1, 0: -1}), ONE - P({0: 2}) + P({2: 1})
        assert p == q and hash(p) == hash(q)
        assert len({p, q, -(-p)}) == 1

    def test_substitute(self):
        # z^2 + 1 at z = t - t^-1
        conway_trefoil = P({2: 1, 0: 1})
        assert conway_trefoil.substitute(SKEIN_MULTIPLIER) == P({2: 1, 0: -1, -2: 1})
        with pytest.raises(LaurentError):
            P({-1: 1}).substitute(T)


class TestRendering:
    @pytest.mark.parametrize("terms,text", [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: -3}, "-3"),
        ({1: 1, -1: -1}, "-t^-1 + t"),
        ({-2: 1, 0: -1, 2: 1}, "t^-2 - 1 + t^2"),
        ({1: 2}, "2t"),
        ({2: -1, 0: 7}, "7 - t^2"),
    ])
    def test_render(self, terms, text):
        assert P(terms).render() == text

    def test_render_other_variable(self):
        assert P({2: 1, 0: 1}).render("z") == "1 + z^2"

    @pytest.mark.parametrize("text", ["0", "1", "-t^-1 + t", "t^-2 - 1 + t^2",
                                      "5 + 2t^3", "-t"])
    def test_parse_round_trip(self, text):
        assert LaurentPoly.parse(text).render() == text

    def test_parse_accepts_non_canonical_order(self):
        assert LaurentPoly.parse("t - t^-1") == SKEIN_MULTIPLIER
        assert LaurentPoly.parse("2t^3 + 5") == P({3: 2, 0: 5})

    def test_parse_rejects_garbage(self):
        with pytest.raises(LaurentError):
            LaurentPoly.parse("t +")
        with pytest.raises(LaurentError):
            LaurentPoly.parse("q^2")

    @pytest.mark.parametrize("text,terms", [
        ("2 t", {1: 2}),
        ("t ^2", {2: 1}),
        ("t^ -2", {-2: 1}),
        ("- t", {1: -1}),
        ("t^-1 - t", {-1: 1, 1: -1}),
        (" 12 t^10 + 3 ", {10: 12, 0: 3}),
    ])
    def test_parse_allows_whitespace_between_tokens(self, text, terms):
        assert LaurentPoly.parse(text) == P(terms)

    @pytest.mark.parametrize("text", ["1 1", "t^1 0", "2 3t", "t^-1 2",
                                      "t - 1\t0"])
    def test_parse_refuses_whitespace_between_digits(self, text):
        with pytest.raises(LaurentError, match="whitespace between digits"):
            LaurentPoly.parse(text)

    @pytest.mark.parametrize("text", ["\u0663t - t^-\u0661", "1 + \u0662t"])
    def test_parse_refuses_non_ascii_digits(self, text):
        # int() reads any decimal digit; the polynomial text has ASCII ones
        with pytest.raises(LaurentError, match="bad term"):
            LaurentPoly.parse(text)


terms_st = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
poly_st = terms_st.map(LaurentPoly)


class TestRingAxioms:
    @given(poly_st, poly_st, poly_st)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(poly_st, poly_st, poly_st)
    def test_mul_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(poly_st, poly_st, poly_st)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(poly_st)
    def test_symmetry_invariant_under_negation(self, p):
        assert p.is_symmetric() == (-p).is_symmetric()

    @given(poly_st)
    def test_render_parse_round_trip(self, p):
        assert LaurentPoly.parse(p.render()) == p
