"""Exact scalar rings: Laurent polynomials over Z and truncated series in s = t - 1.

Two rings live here.

* :class:`LaurentPoly` is an element of Z[t, t^-1] with arbitrary-precision
  integer coefficients, stored as a canonical exponent -> coefficient map.
  This is the coefficient ring of every exact matrix in the package.

* :class:`TruncSeries` is an element of Z[s]/(s^N).  Substituting t = 1 + s
  turns a Laurent polynomial into a power series in s; keeping only the
  first N coefficients is enough to measure congruence depth.  It is the
  value of ``LaurentPoly.to_series`` and of a truncated matrix's ``rows``
  view; truncated matrices themselves are coefficient stacks (see
  ``linalg.TruncMatrix``).

All arithmetic is exact; nothing in this module (or the package) touches
floating point.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Iterable, Mapping, TypeVar, Union

Scalar = Union[int, "LaurentPoly"]

_DECIMAL = re.compile(r"-?[0-9]+")

V = TypeVar("V")


def square_and_multiply(value: V, k: int, mul: Callable[[V, V], V],
                        one: V) -> V:
    """value^k for k >= 0 in a monoid with product ``mul`` and identity
    ``one``: squares and multiplies by ``value`` from the top bit of k,
    so one power makes at most 2 log2(k) products."""
    out = value if k else one
    for bit in bin(k)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, value)
    return out


def json_int(value, decimal_string: bool = False, name: str | None = None) -> int:
    """An integer read from JSON: an int, never a bool or a float.

    With ``decimal_string`` a string of decimal digits, as ``to_json``
    writes Laurent coefficients, is read too.  Anything else is refused with
    TypeError rather than rounded; the message starts with ``name``, the
    field the value came from, when one is given.
    """
    if type(value) is int:
        return value
    if decimal_string and isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    field = f"{name}: " if name is not None else ""
    raise TypeError(f"{field}expected an integer, got {value!r}")


def _format_terms(terms: Iterable[tuple[int, int]], var: str) -> str:
    """Nonzero (exponent, coefficient) pairs, in the order given, as
    ``3t^2 - t + 1``; "0" when there are none."""
    text = ""
    for e, v in terms:
        mag = abs(v)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if text:
            text += f" {'-' if v < 0 else '+'} {body}"
        else:
            text = ("-" if v < 0 else "") + body
    return text or "0"


class LaurentPoly:
    """A Laurent polynomial in one variable t over Z.

    >>> p = LaurentPoly({1: 1, 0: -1})          # t - 1
    >>> print(p * p)
    t^2 - 2t + 1
    >>> print(p.bar())                          # t -> t^-1
    -1 + t^-1
    >>> (p * p).s_valuation()
    2
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | int = 0):
        if isinstance(coeffs, int):
            self._c = {0: coeffs} if coeffs else {}
        else:
            self._c = {e: c for e, c in coeffs.items() if c}

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def at_one(self) -> int:
        """Evaluate at t = 1, i.e. reduce modulo s."""
        return sum(self._c.values())

    def as_unit(self) -> tuple[int, int] | None:
        """Return (sign, exp) if this is a unit +-t^a of Z[t,t^-1], else None."""
        if len(self._c) != 1:
            return None
        (exp, coeff), = self._c.items()
        if coeff in (1, -1):
            return coeff, exp
        return None

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other: Scalar) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly(other)
        return None

    def __add__(self, other: Scalar) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in q._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: Scalar) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "LaurentPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self._c, q._c
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        """self^k: by square-and-multiply for k >= 0; for k < 0 only a
        unit +-t^a has one, (+-1)^k t^(a k), and anything else raises
        ValueError."""
        if k < 0:
            unit = self.as_unit()
            if unit is None:
                raise ValueError("negative powers only defined for units +-t^a")
            sign, exp = unit
            return LaurentPoly({exp * k: sign if k % 2 else 1})
        return square_and_multiply(self, k, operator.mul, ONE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._c.keys() <= {0}:  # a constant hashes as the int it equals
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    # -- the bar involution and s-adic structure ----------------------------

    def bar(self) -> "LaurentPoly":
        """The ring involution t -> t^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        return out

    def s_valuation(self) -> int | float:
        """Largest k with (t-1)^k dividing self; math.inf for the zero polynomial.

        With m the least exponent, t^-m * self at t = 1 + s is the sum of
        c_k s^k with c_k = sum_e v_e C(e - m, k), read term by term up to
        the first nonzero c_k.  By Descartes' rule of signs a nonzero
        polynomial with r terms has a root of multiplicity at most r - 1 at
        t = 1, so at most r of the c_k are read, whatever the degree.
        """
        if not self._c:
            return math.inf
        m = min(self._c)
        # (e - m, v_e C(e - m, k)) for the terms with e - m >= k
        terms = [(e - m, v) for e, v in self._c.items()]
        k = 0
        while not sum(v for _, v in terms):
            terms = [(d, v * (d - k) // (k + 1)) for d, v in terms if d > k]
            k += 1
        return k

    def s_coeffs(self, precision: int) -> list[int]:
        """The coefficients of s^0..s^(precision-1) under t = 1 + s.

        Negative powers use the alternating geometric expansion of t^-1;
        both signs are covered by the generalized binomial coefficients
        C(e, k), which are integers for every integer e.  A precision below
        1 gives the empty list; the callers refuse it.
        """
        out = [0] * precision
        for e, v in self._c.items():
            binom = 1  # C(e, k), updated iteratively
            for k in range(precision):
                out[k] += v * binom
                binom = binom * (e - k) // (k + 1)
        return out

    def to_series(self, precision: int) -> "TruncSeries":
        """Image in Z[s]/(s^precision) under t = 1 + s.

        >>> print(LaurentPoly({-1: 1}).to_series(4))
        1 - s + s^2 - s^3 + O(s^4)
        """
        return TruncSeries(precision, self.s_coeffs(precision))

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(((e, self._c[e])
                              for e in sorted(self._c, reverse=True)), "t")

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        """Encode as {"t": {"<exp>": "<decimal coefficient>"}}."""
        return {"t": {str(e): str(v) for e, v in sorted(self._c.items())}}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        table = obj["t"]
        return LaurentPoly({json_int(e, True): json_int(v, True)
                            for e, v in table.items()})


ZERO = LaurentPoly(0)
ONE = LaurentPoly(1)
T = LaurentPoly({1: 1})
T_INV = LaurentPoly({-1: 1})
S = LaurentPoly({1: 1, 0: -1})  # s = t - 1


class TruncSeries:
    """An element of Z[s]/(s^N), stored as the coefficient list of s^0..s^{N-1}.

    A view of one entry; a ``TruncMatrix`` stores coefficient stacks and
    multiplies those.  Mixed precisions are refused.

    >>> a = TruncSeries(3, [1, 1])        # 1 + s
    >>> print(a * a)
    1 + 2s + s^2 + O(s^3)
    """

    __slots__ = ("precision", "_c")

    def __init__(self, precision: int, coeffs: Iterable[int] = ()):
        if precision < 1:
            raise ValueError("precision must be >= 1")
        c = list(coeffs)
        if len(c) > precision:
            c = c[:precision]
        else:
            c += [0] * (precision - len(c))
        self.precision = precision
        self._c = c

    @staticmethod
    def zero(precision: int) -> "TruncSeries":
        return TruncSeries(precision)

    @staticmethod
    def one(precision: int) -> "TruncSeries":
        return TruncSeries(precision, [1])

    def coeffs(self) -> list[int]:
        return list(self._c)

    def is_zero(self) -> bool:
        return not any(self._c)

    def _check(self, other: "TruncSeries") -> None:
        if self.precision != other.precision:
            raise ValueError("precision mismatch")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.precision,
                           [a + b for a, b in zip(self._c, other._c)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.precision,
                           [a - b for a, b in zip(self._c, other._c)])

    def __mul__(self, other: "TruncSeries | int") -> "TruncSeries":
        if isinstance(other, int):
            return TruncSeries(self.precision, [a * other for a in self._c])
        self._check(other)
        n = self.precision
        a, b = self._c, other._c
        out = [0] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncSeries(n, out)

    def __rmul__(self, other: int) -> "TruncSeries":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncSeries):
            return self.precision == other.precision and self._c == other._c
        if isinstance(other, int):
            return self._c[0] == other and not any(self._c[1:])
        return NotImplemented

    def __str__(self) -> str:
        terms = ((k, v) for k, v in enumerate(self._c) if v)
        return f"{_format_terms(terms, 's')} + O(s^{self.precision})"

    def __repr__(self) -> str:
        return f"TruncSeries({self.precision}, {self._c!r})"
