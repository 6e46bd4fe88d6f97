"""Exact sparse Laurent polynomials over the integers in one formal variable.

All invariant values produced by this package (the twin invariant, the
2-knot skein polynomial, Conway and Alexander polynomials) live in this
ring.  Coefficients are Python ints, so they never overflow; values are
immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from operator import index
from typing import Iterable, Mapping


class LaurentError(ValueError):
    pass


# digits are ASCII only: \d would also match, say, an Arabic-Indic three
_TERM_RE = re.compile(
    r"^(?P<coeff>[0-9]+)?(?:(?P<var>[A-Za-z])(?:\^(?P<exp>-?[0-9]+))?)?$"
)
# whitespace inside a number: "1 1" is not 11
_DIGIT_GAP_RE = re.compile(r"[0-9]\s+[0-9]")


def _decimal(n: int) -> str:
    """The decimal text of a natural number; a LaurentError where it is
    longer than the interpreter's limit on int-string conversion allows,
    since ``parse`` could not read it back."""
    try:
        return str(n)
    except ValueError:
        digits = int(n.bit_length() * 0.30102999566398120) - 1
        while 10 ** digits <= n:  # the estimate undercounts by one or two
            digits += 1
        raise LaurentError(f"coefficient of {digits} digits is past the "
                           f"limit on int-string conversion") from None


class LaurentPoly:
    """An integer Laurent polynomial, stored as a sparse exponent -> coefficient map.

    Zero coefficients are never stored, so equality of term maps is
    equality of polynomials.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            # exact integers only: int() would truncate 2.7 and read '3'
            try:
                exp, coeff = index(exp), index(coeff)
            except TypeError:
                raise LaurentError(
                    f"term {exp!r}: {coeff!r} is not an integer exponent "
                    f"and coefficient") from None
            if coeff:
                total = acc.get(exp, 0) + coeff
                if total:
                    acc[exp] = total
                else:
                    del acc[exp]
        self._terms = acc

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    # -- inspection ---------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs sorted by exponent."""
        return tuple(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self) -> int:
        if not self._terms:
            raise LaurentError("zero polynomial has no exponents")
        return min(self._terms)

    def is_symmetric(self) -> bool:
        """True iff the coefficient of t^e equals the coefficient of t^-e for all e."""
        return all(self._terms.get(-e, 0) == c for e, c in self._terms.items())

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = acc
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = acc
        return out

    def substitute(self, value: "LaurentPoly") -> "LaurentPoly":
        """Evaluate at another polynomial.  Requires nonnegative exponents."""
        if self._terms and self.min_exponent() < 0:
            raise LaurentError("substitution requires nonnegative exponents")
        acc = _ZERO
        for e in range(max(self._terms, default=-1), -1, -1):  # Horner's rule
            acc = acc * value + LaurentPoly({0: self._terms.get(e, 0)})
        return acc

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self.pairs())

    # -- text forms -------------------------------------------------

    def render(self, var: str = "t") -> str:
        """Canonical text: increasing exponents, explicit signs, `0` for zero.

        Examples: ``t^-2 - 1 + t^2``, ``1 + 2z^2``, ``-t``.
        """
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.pairs():
            mag = abs(c)
            if e == 0:
                body = _decimal(mag)
            else:
                head = "" if mag == 1 else _decimal(mag)
                body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(chunks)

    @classmethod
    def parse(cls, text: str, var: str = "t") -> "LaurentPoly":
        """Parse the canonical text form (tolerant of whitespace)."""
        s = text.strip()
        if not s:
            raise LaurentError("empty polynomial text")
        if _DIGIT_GAP_RE.search(s):
            raise LaurentError(f"whitespace between digits in {text!r}")
        if s == "0":
            return cls.zero()
        raw_terms: list[str] = []
        cur = ""
        prev = ""
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
                sign = -1
                tok = tok[1:]
            tok = tok.replace("*", "")
            m = _TERM_RE.match(tok)
            if not m or (m.group("coeff") is None and m.group("var") is None):
                raise LaurentError(f"bad term {raw.strip()!r} in {text!r}")
            if m.group("var") is not None and m.group("var") != var:
                raise LaurentError(
                    f"unexpected variable {m.group('var')!r} (wanted {var!r})"
                )
            try:
                coeff = int(m.group("coeff")) if m.group("coeff") else 1
                if m.group("var") is None:
                    exp = 0
                elif m.group("exp") is None:
                    exp = 1
                else:
                    exp = int(m.group("exp"))
            except ValueError:
                # past the interpreter's limit on int-string conversion
                raise LaurentError(f"number too long in term "
                                   f"{raw.strip()[:12]!r}...") from None
            terms[exp] = terms.get(exp, 0) + sign * coeff
        return cls(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


# Values are immutable, so zero() and one() share these.
_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The skein multiplier t - t^-1 used by the twin calculus.
SKEIN_MULTIPLIER = LaurentPoly({1: 1, -1: -1})
