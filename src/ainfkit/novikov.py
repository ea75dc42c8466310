"""Exact arithmetic in universal Novikov rings, truncated at an energy cutoff.

Elements are finite sums of terms ``q * T^lam * e^mu`` with q, lam rational and
mu an integer.  T is graded of degree 0 and e of degree 2, so a term has
internal degree 2*mu.  Every element carries a ring flavor and a cutoff E, and
all equalities are modulo the filtration ideal F^{>E} (terms with lam > E are
dropped on construction).

Flavors:

===== ==============================================
nov   lam rational, e allowed
nov0  lam >= 0, e allowed
cy    lam rational, no e (mu = 0)
cy0   lam >= 0, no e
novZ  lam integer, e allowed
novN  lam nonnegative integer, e allowed
===== ==============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleRingError, NotInvertibleError

FLAVORS = ("nov", "nov0", "cy", "cy0", "novZ", "novN")

_NEEDS_NONNEG = {"nov0", "cy0", "novN"}
_NO_E = {"cy", "cy0"}
_INTEGER_LATTICE = {"novZ", "novN"}


def as_fraction(x):
    """The canonical form of an exact rational: an int when it is integral,
    otherwise a Fraction.  Strings are parsed, but not in exponent notation,
    which would let a few characters stand for an integer of any length;
    floats and bools are refused."""
    t = type(x)
    if t is int:
        return x
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    if t is str:
        try:
            return int(x)
        except ValueError:
            if "e" in x or "E" in x:
                raise ValueError(f"exponent notation is not accepted: {x!r}") from None
            return as_fraction(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


def _term_violations(lam: Fraction, mu: int, flavor: str):
    out = []
    if flavor in _NO_E and mu != 0:
        out.append(f"term T^({lam})*e^({mu}): e-power {mu} != 0 not allowed in {flavor}")
    if flavor in _NEEDS_NONNEG and lam < 0:
        out.append(f"term T^({lam}): negative energy not allowed in {flavor}")
    if flavor in _INTEGER_LATTICE and lam.denominator != 1:
        out.append(f"term T^({lam}): energy not in the {flavor} lattice")
    return out


@dataclass(frozen=True)
class NovikovElement:
    """Finite sorted term list, tagged with flavor and cutoff."""

    flavor: str
    cutoff: Fraction
    terms: tuple  # of (coeff, lam, mu), sorted by (lam, mu), no zeros, lam <= cutoff

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def make(terms, flavor, cutoff) -> "NovikovElement":
        """Canonicalize ``terms`` = iterable of (coeff, lam, mu)."""
        cutoff = as_fraction(cutoff)
        acc = {}
        for coeff, lam, mu in terms:
            coeff, lam, mu = as_fraction(coeff), as_fraction(lam), int(mu)
            if lam > cutoff:
                continue
            key = (lam, mu)
            acc[key] = acc.get(key, 0) + coeff
        clean = tuple(
            (as_fraction(c), lam, mu) for (lam, mu), c in sorted(acc.items()) if c
        )
        for _, lam, mu in clean:
            bad = _term_violations(lam, mu, flavor)
            if bad:
                raise ValueError(bad[0])
        return NovikovElement(flavor, cutoff, clean)

    @staticmethod
    def zero(flavor, cutoff) -> "NovikovElement":
        return NovikovElement.make((), flavor, cutoff)

    @staticmethod
    def unit(flavor, cutoff) -> "NovikovElement":
        return NovikovElement.make([(1, 0, 0)], flavor, cutoff)

    @staticmethod
    def monomial(coeff, lam, mu, flavor, cutoff) -> "NovikovElement":
        return NovikovElement.make([(coeff, lam, mu)], flavor, cutoff)

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def scale(self, q) -> "NovikovElement":
        q = as_fraction(q)
        return NovikovElement.make(
            ((c * q, lam, mu) for c, lam, mu in self.terms), self.flavor, self.cutoff
        )

    def __neg__(self):
        return self.scale(-1)

    def shift(self, lam, mu) -> "NovikovElement":
        """Multiply by the monomial T^lam e^mu."""
        lam = as_fraction(lam)
        return NovikovElement.make(
            ((c, l + lam, m + mu) for c, l, m in self.terms), self.flavor, self.cutoff
        )

    def retag(self, flavor=None, cutoff=None) -> "NovikovElement":
        return NovikovElement.make(
            self.terms, flavor or self.flavor,
            self.cutoff if cutoff is None else cutoff,
        )

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(format_term(c, l, m) for c, l, m in self.terms)


def format_term(coeff, lam, mu) -> str:
    """Wire encoding of one term: ``q*T^(l)*e^(m)``."""
    return f"{coeff}*T^({lam})*e^({mu})"


def parse_term(text: str):
    parts = text.split("*")
    if len(parts) != 3 or not parts[1].startswith("T^(") or not parts[2].startswith("e^("):
        raise ValueError(f"malformed term {text!r}")
    q = as_fraction(parts[0])
    lam = as_fraction(parts[1][3:-1])
    mu = int(parts[2][3:-1])
    return q, lam, mu


def _check_compatible(a: NovikovElement, b: NovikovElement):
    if a.flavor != b.flavor or a.cutoff != b.cutoff:
        raise IncompatibleRingError(
            f"({a.flavor}, E={a.cutoff}) vs ({b.flavor}, E={b.cutoff})"
        )


def nov_add(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    _check_compatible(a, b)
    return NovikovElement.make(a.terms + b.terms, a.flavor, a.cutoff)


def nov_sub(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    return nov_add(a, -b)


def nov_mul(a: NovikovElement, b: NovikovElement) -> NovikovElement:
    _check_compatible(a, b)
    out = []
    for c1, l1, m1 in a.terms:
        for c2, l2, m2 in b.terms:
            if l1 + l2 <= a.cutoff:
                out.append((c1 * c2, l1 + l2, m1 + m2))
    return NovikovElement.make(out, a.flavor, a.cutoff)


def nov_valuation(a: NovikovElement):
    """Minimal energy among terms; +inf for the zero element."""
    if not a.terms:
        return math.inf
    return a.terms[0][1]


def nov_invert(a: NovikovElement) -> NovikovElement:
    """Inverse mod F^{>E}: factor the leading term, sum a geometric series.

    Unit flavors (nov, cy, novZ) invert any nonzero element, with exponents
    going negative as needed; 0-flavors require valuation 0.
    """
    if not a.terms:
        raise NotInvertibleError("zero is not invertible")
    c0, l0, m0 = a.terms[0]
    if a.flavor in _NEEDS_NONNEG and l0 > 0:
        raise NotInvertibleError(
            f"valuation {l0} > 0 is not invertible in {a.flavor}"
        )
    if any(lam == l0 for _, lam, _ in a.terms[1:]):
        # several e-powers share the leading energy; the leading part is not a
        # monomial and has no inverse with finitely many terms per energy level
        raise NotInvertibleError("leading energy level is not a single monomial")
    # a = c0 T^{l0} e^{m0} (1 + x) with val(x) > 0
    lead_inv = NovikovElement.monomial(Fraction(1, c0), -l0, -m0, a.flavor, a.cutoff)
    x = nov_sub(nov_mul(lead_inv, a), NovikovElement.unit(a.flavor, a.cutoff))
    # geometric series sum_j (-x)^j; finite because val(x) > 0 and we cut at E
    acc = NovikovElement.unit(a.flavor, a.cutoff)
    power = NovikovElement.unit(a.flavor, a.cutoff)
    while True:
        power = nov_mul(power, -x)
        if power.is_zero():
            break
        acc = nov_add(acc, power)
    return nov_mul(acc, lead_inv)


def nov_flavor_check(a: NovikovElement, flavor: str):
    """Diagnostics (one per offending term) for ``a`` against ``flavor``."""
    out = []
    for _, lam, mu in a.terms:
        out.extend(_term_violations(lam, mu, flavor))
    return out
