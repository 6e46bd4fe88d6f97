import itertools
import re

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
        assert P([(1, 1), (1, -1)]).pairs() == ()

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
        with pytest.raises(LaurentError, match="empty polynomial text"):
            LaurentPoly.parse("   ")

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

    @pytest.mark.parametrize("template,term", [
        ("Nt", "Nt"), ("t^N", "t^N"), ("1 - t^-N", "- t^-N")],
        ids=["coefficient", "exponent", "negative-exponent"])
    def test_parse_refuses_a_number_past_the_conversion_limit(
            self, long_number, template, term):
        # int() refuses it with a bare ValueError
        term = term.replace("N", long_number)
        with pytest.raises(LaurentError) as exc:
            LaurentPoly.parse(template.replace("N", long_number))
        assert str(exc.value) == f"number too long in term {term[:12]!r}..."

    @pytest.mark.parametrize("terms", [{0: 1}, {1: -1}, {-2: 1, 3: 1}],
                             ids=["constant", "term", "second-term"])
    def test_render_refuses_a_coefficient_past_the_conversion_limit(
            self, long_number, terms):
        # str() refuses it with a bare ValueError; parse could not read it
        big = 10 ** len(long_number) - 1
        p = LaurentPoly({e: c * big for e, c in terms.items()})
        with pytest.raises(LaurentError) as exc:
            p.render()
        assert str(exc.value) == ("coefficient of 5000 digits is past the "
                                  "limit on int-string conversion")

    def test_render_names_the_exact_digit_count(self, long_number):
        for n, digits in ((10 ** 4999, 5000), (10 ** 5000 - 1, 5000),
                          (10 ** 5000, 5001), (2 ** 20000, 6021)):
            with pytest.raises(LaurentError, match=f"of {digits} digits"):
                LaurentPoly({1: n}).render()

    @pytest.mark.parametrize("text", ["\u0663t - t^-\u0661", "1 + \u0662t"])
    def test_parse_refuses_non_ascii_digits(self, text):
        # int() reads any decimal digit; the polynomial text has ASCII ones
        with pytest.raises(LaurentError, match="bad term"):
            LaurentPoly.parse(text)


_REFERENCE_TERM = re.compile(
    r"^(?P<coeff>[0-9]+)?(?:(?P<var>[A-Za-z])(?:\^(?P<exp>-?[0-9]+))?)?$")
_REFERENCE_GAP = re.compile(r"[0-9]\s+[0-9]")


def reference_parse(text: str) -> LaurentPoly:
    """``LaurentPoly.parse`` as it was before the one term pattern: a
    character walk splits the terms, then each term loses every space and
    every ``*`` before it is matched, so ``2 * 3`` reads as 23."""
    s = text.strip()
    if not s:
        raise LaurentError("empty polynomial text")
    if _REFERENCE_GAP.search(s):
        raise LaurentError(f"whitespace between digits in {text!r}")
    raw_terms: list[str] = []
    cur = prev = ""
    for ch in s:
        if ch in "+-" and cur.strip() and prev != "^":
            raw_terms.append(cur)
            cur = "" if ch == "+" else "-"
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    raw_terms.append(cur)
    terms: dict[int, int] = {}
    for raw in raw_terms:
        tok = raw.strip().replace(" ", "")
        if not tok:
            raise LaurentError(f"malformed polynomial text: {text!r}")
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        m = _REFERENCE_TERM.match(tok.replace("*", ""))
        if not m or (m["coeff"] is None and m["var"] is None) or (
                m["var"] not in (None, "t")):
            raise LaurentError(f"bad term {raw.strip()!r} in {text!r}")
        coeff = int(m["coeff"]) if m["coeff"] else 1
        exp = 0 if m["var"] is None else int(m["exp"]) if m["exp"] else 1
        terms[exp] = terms.get(exp, 0) + sign * coeff
    return LaurentPoly(terms)


def _stray_star(text: str) -> bool:
    """Whether some ``*`` in the text is not between a digit and a letter,
    spaces aside."""
    return any(ch == "*" and not (text[:i].rstrip(" ")[-1:].isdigit()
                                  and text[i + 1:].lstrip(" ")[:1].isalpha())
               for i, ch in enumerate(text))


def _outcome(read, text: str):
    try:
        return read(text)
    except LaurentError:
        return LaurentError


class TestTermPattern:
    def test_agrees_with_the_reference_reader(self):
        # every string of length 1 to 5 over the reader's alphabet: the
        # reference's value or refusal, except that a stray '*' is refused
        strings = stray = 0
        for n in range(1, 6):
            for chars in itertools.product(" 12tx^+-*", repeat=n):
                text = "".join(chars)
                strings += 1
                got = _outcome(LaurentPoly.parse, text)
                if _stray_star(text):
                    stray += 1
                    assert got is LaurentError, text
                else:
                    assert got == _outcome(reference_parse, text), text
        assert strings == 66_429
        assert 0 < stray < strings

    @pytest.mark.parametrize("text", ["2*3", "2 * 3", "1*1", "2*3t", "*t",
                                      "t*", "2**t", "t^2*", "2*"])
    def test_refuses_a_star_not_between_coefficient_and_variable(self, text):
        with pytest.raises(LaurentError, match="bad term"):
            LaurentPoly.parse(text)

    @pytest.mark.parametrize("text,terms", [
        ("2*t", {1: 2}),
        ("2 * t", {1: 2}),
        ("- 2*t^-1", {-1: -2}),
        ("1 +- t", {0: 1, 1: -1}),
    ])
    def test_accepts(self, text, terms):
        assert LaurentPoly.parse(text) == P(terms)


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
