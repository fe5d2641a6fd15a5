"""The completed coefficient ring: 2-adically truncated power series in a.

An element represents a class in Z2[[a]] known modulo (2^prec2, a^precA):
residues mod 2^prec2 for the a-degrees below precA.  Arithmetic never claims
more precision than the operands carry; exact halving costs one 2-adic bit;
division is available by odd integers (modular inverse) and by units of the
ring (odd constant coefficient).

The function `log_half` sums (1/2)*log((1+2x)^...) in the arranged form

    sum_{k>=1} (-1)^(k-1) * 2^(k-1) / k * x^k,

whose k-th coefficient has 2-valuation k-1-v2(k) -> infinity, so the sum
makes sense over Z2 with no division by 2.
"""

from __future__ import annotations

from .poly import Poly, DISC, power, _dense_mul, _series_reciprocal
from .tower import SFrac

__all__ = ["PadicElem", "PrecisionError", "log_half", "DEFAULT_PREC2",
           "DEFAULT_PRECA"]

DEFAULT_PREC2 = 20
DEFAULT_PRECA = 16


class PrecisionError(ValueError):
    """Requested precision exceeds what the operands can support."""


class PadicElem:
    __slots__ = ("res", "prec2", "precA")

    def __init__(self, res, prec2: int = DEFAULT_PREC2,
                 precA: int = DEFAULT_PRECA):
        if prec2 < 1 or precA < 0:
            raise ValueError("precision out of range")
        mod = 1 << prec2
        res = [int(c) % mod for c in list(res)[:precA]]
        while len(res) < precA:
            res.append(0)
        self.res = tuple(res)
        self.prec2 = prec2
        self.precA = precA

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p, prec2=DEFAULT_PREC2, precA=DEFAULT_PRECA) -> "PadicElem":
        p = Poly(p)
        return PadicElem(p.coeffs, prec2, precA)

    @staticmethod
    def from_sfrac(x: SFrac, prec2=DEFAULT_PREC2,
                   precA=DEFAULT_PRECA) -> "PadicElem":
        """Embed an S-element; D = a^3 - 27 is a unit here (odd constant)."""
        if not x.is_in_S():
            raise ValueError("2 is not invertible in the completed ring")
        out = PadicElem.from_poly(x.num, prec2, precA)
        if x.dpow:
            out = out * PadicElem.from_poly(DISC ** x.dpow, prec2,
                                            precA).inv()
        return out

    @staticmethod
    def zero(prec2=DEFAULT_PREC2, precA=DEFAULT_PRECA) -> "PadicElem":
        return PadicElem((), prec2, precA)

    @staticmethod
    def one(prec2=DEFAULT_PREC2, precA=DEFAULT_PRECA) -> "PadicElem":
        return PadicElem((1,), prec2, precA)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.res)

    def is_unit(self) -> bool:
        return bool(self.res) and self.res[0] % 2 == 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicElem([other], self.prec2, self.precA)
        if not isinstance(other, PadicElem):
            return NotImplemented
        return (self.prec2, self.precA, self.res) == \
            (other.prec2, other.precA, other.res)

    def __hash__(self):
        return hash((self.res, self.prec2, self.precA))

    def agrees_with(self, other: "PadicElem") -> bool:
        """Equality on the common precision box."""
        n = min(self.prec2, other.prec2)
        m = min(self.precA, other.precA)
        mod = 1 << n
        return all((self.res[k] - other.res[k]) % mod == 0 for k in range(m))

    # -- arithmetic --------------------------------------------------------

    def _common(self, other):
        if isinstance(other, int):
            other = PadicElem([other], self.prec2, self.precA)
        elif isinstance(other, Poly):
            other = PadicElem(other.coeffs, self.prec2, self.precA)
        if not isinstance(other, PadicElem):
            return None, None, None
        n = min(self.prec2, other.prec2)
        m = min(self.precA, other.precA)
        return other, n, m

    def __neg__(self):
        return PadicElem([-c for c in self.res], self.prec2, self.precA)

    def __add__(self, other):
        other, n, m = self._common(other)
        if other is None:
            return NotImplemented
        return PadicElem([self.res[k] + other.res[k] for k in range(m)], n, m)

    __radd__ = __add__

    def __sub__(self, other):
        other, n, m = self._common(other)
        if other is None:
            return NotImplemented
        return PadicElem([self.res[k] - other.res[k] for k in range(m)], n, m)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            # a scaling, as by the coefficients in `log_half`
            return PadicElem([c * other for c in self.res], self.prec2,
                             self.precA)
        other, n, m = self._common(other)
        if other is None:
            return NotImplemented
        return PadicElem(_dense_mul(self.res[:m], other.res[:m], m), n, m)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, PadicElem.one(self.prec2, self.precA))

    def div_odd(self, k: int) -> "PadicElem":
        """Divide by an odd integer (a unit of Z2)."""
        if k % 2 == 0:
            raise ValueError("can only divide by odd integers")
        kinv = pow(k, -1, 1 << self.prec2)
        return PadicElem([c * kinv for c in self.res], self.prec2, self.precA)

    def halve(self) -> "PadicElem":
        """Exact division by 2; costs one bit of 2-adic precision."""
        if self.prec2 < 2:
            raise PrecisionError("no 2-adic precision left to halve")
        if any(c % 2 for c in self.res):
            raise ValueError("element is not divisible by 2")
        return PadicElem([c // 2 for c in self.res], self.prec2 - 1,
                         self.precA)

    def inv(self) -> "PadicElem":
        """Reciprocal of a unit (odd constant coefficient)."""
        if not self.is_unit():
            raise ValueError("not a unit: even constant coefficient")
        # The constructor reduces the exact coefficients mod 2^prec2.
        c0_inv = pow(self.res[0], -1, 1 << self.prec2)
        return PadicElem(_series_reciprocal(self.res, self.precA, c0_inv),
                         self.prec2, self.precA)

    def with_precision(self, prec2=None, precA=None) -> "PadicElem":
        """Restrict (never extend) the claimed precision."""
        n = self.prec2 if prec2 is None else prec2
        m = self.precA if precA is None else precA
        if n > self.prec2 or m > self.precA:
            raise PrecisionError(
                "cannot claim (2^%d, a^%d) from (2^%d, a^%d)"
                % (n, m, self.prec2, self.precA))
        return PadicElem(self.res, n, m)

    # -- i/o ---------------------------------------------------------------

    def to_json(self):
        return {"prec2": self.prec2, "precA": self.precA,
                "res": [str(c) for c in self.res]}

    @staticmethod
    def from_json(data) -> "PadicElem":
        return PadicElem([int(s) for s in data["res"]], data["prec2"],
                         data["precA"])

    def __str__(self):
        parts = []
        for k, c in enumerate(self.res):
            if c:
                parts.append(str(c) if k == 0 else
                             "%d*a^%d" % (c, k) if k > 1 else "%d*a" % c)
        body = " + ".join(parts) if parts else "0"
        return "%s  (mod 2^%d, a^%d)" % (body, self.prec2, self.precA)

    __repr__ = __str__


def log_half(x: PadicElem) -> "PadicElem":
    """(1/2) * log(1 + 2x) as an element of the completed ring.

    Sums sum_k (-1)^(k-1) 2^(k-1) x^k / k up to the last k whose term
    survives mod 2^x.prec2.  Needs x itself, not 1+2x, so no halving occurs
    and the full 2-adic precision of x survives.
    """
    n = x.prec2
    mod = 1 << n
    # The k-th term has 2-valuation at least k - 1 - v2(k), which is
    # k - (k & -k).bit_length(), and n or more for every k >= 2n + 2.
    last = max(k for k in range(1, 2 * n + 2)
               if k - (k & -k).bit_length() < n)
    total = PadicElem.zero(n, x.precA)
    xk = PadicElem.one(n, x.precA)
    for k in range(1, last + 1):
        xk = xk * x
        v2 = (k & -k).bit_length() - 1
        shift = k - 1 - v2
        if shift < n:
            unit = pow(k >> v2, -1, mod)
            coeff = ((1 << shift) * unit) % mod
            if k % 2 == 0:
                coeff = -coeff
            total = total + xk * coeff
    return total
