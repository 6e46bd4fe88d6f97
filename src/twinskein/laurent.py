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


#: One term (see ``LaurentPoly.parse``); [0-9], since \d reads any digit
_TERM = re.compile(
    r"\s*(?P<plus>\+)?\s*(?P<minus>-)?\s*"
    r"(?:(?P<coeff>[0-9]+)(?:\s*\*(?=\s*[A-Za-z]))?\s*)?"
    r"(?:(?P<var>[A-Za-z])(?:\s*\^\s*(?P<neg>-)?\s*(?P<exp>[0-9]+))?)?")
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
    def parse(cls, text: str) -> "LaurentPoly":
        """Read a sum of terms in t, in any order, like terms added up.  A
        term is ``sign? coeff? ("*"? "t" ("^" "-"? digits)?)?`` with a
        coefficient, t or both, and a ``*`` only between those two.  The
        first sign is ``-`` or none, each later one ``+``, ``-`` or ``+ -``.
        Whitespace may sit between parts and terms, never inside a number."""
        s = text.strip()
        if not s:
            raise LaurentError("empty polynomial text")
        if _DIGIT_GAP_RE.search(s):
            raise LaurentError(f"whitespace between digits in {text!r}")
        terms: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = _TERM.match(s, pos)
            plus, minus, coeff, var, neg, exp = m.groups()
            if (coeff is None and var is None
                    or (plus if pos == 0 else not (plus or minus))):
                raise LaurentError(f"bad term {s[pos:].strip()!r} in {text!r}")
            if var not in (None, "t"):
                raise LaurentError(f"unexpected variable {var!r} (wanted 't')")
            try:
                c = int(coeff) if coeff else 1
                e = int(exp) if exp else int(var is not None)
            except ValueError:
                # past the interpreter's limit on int-string conversion
                raise LaurentError(f"number too long in term "
                                   f"{m[0].strip()[:12]!r}...") from None
            e = -e if neg else e
            terms[e] = terms.get(e, 0) + (-c if minus else c)
            pos = m.end()
        return cls(terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


# Values are immutable, so zero() and one() share these.
_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The skein multiplier t - t^-1 used by the twin calculus.
SKEIN_MULTIPLIER = LaurentPoly({1: 1, -1: -1})
