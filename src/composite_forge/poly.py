"""Integer-valued polynomials in the binomial-coefficient basis.

A polynomial f(x) = sum_j a_j * C(x, j) with integer a_j takes integer values
at every integer even though its monomial coefficients are rational. The
companion polynomial B! * f has plain integer monomial coefficients and the
same roots modulo any prime p > B, which is what the sieve machinery needs.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .gfpoly import gf_is_irreducible, gf_normalize
from .primes import sieve_primes


def decimal_field(value, max_digits: int) -> str:
    """value itself when it is a decimal string in the form construct writes
    a certificate's big integers in (-?[0-9]+), of at most max_digits digits
    after an optional sign; any other value raises ValueError, before any
    conversion work."""
    if isinstance(value, str) and len(value) - value.startswith("-") > max_digits:
        raise ValueError(
            f"decimal field of {len(value)} characters exceeds the {max_digits}-digit bound"
        )
    if not (isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value)):
        raise ValueError(f"expected a decimal string, got {value!r:.40}")
    return value


# The highest degree of an IntPolynomial, so that the work on f is bounded
# before it starts. irreducibility_check's time grows with the cube of the
# degree; its slowest case found (two dense factors, leading coefficient
# divisible by every prime up to 73) takes 1.5 s at degree 24 on a 2-core
# x86-64 machine, 2.0 s at 28 and 2.8-3.1 s at 32.
MAX_DEGREE = 24

# The most decimal digits of a coefficient. A certificate writes each
# coefficient with str() and reads it with int(), and the interpreter
# checks neither against its int-string limit at up to 640 digits, below
# any limit it accepts. So a certificate construct writes always loads, and
# a longer coefficient is refused before any work instead of when the
# finished certificate is written.
MAX_COEFF_DIGITS = 640
_COEFF_BOUND = 10**MAX_COEFF_DIGITS


def _trimmed(coeffs) -> list[int]:
    """coeffs as ints without trailing zeros (one is kept); ValueError
    beyond MAX_DEGREE."""
    c = [int(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    if len(c) - 1 > MAX_DEGREE:
        raise ValueError(f"degree {len(c) - 1} exceeds the bound {MAX_DEGREE}")
    return c


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial in the binomial basis; coeffs[j] multiplies C(x, j), of
    degree 1 to MAX_DEGREE, each coefficient of at most MAX_COEFF_DIGITS
    digits."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = _trimmed(self.coeffs)
        if any(abs(v) >= _COEFF_BOUND for v in c):
            raise ValueError(f"a coefficient has more than {MAX_COEFF_DIGITS} digits")
        object.__setattr__(self, "coeffs", tuple(c))
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if c[-1] <= 0:
            raise ValueError("leading binomial coefficient must be positive")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @classmethod
    def from_monomial(cls, mono: list[int] | tuple[int, ...]) -> "IntPolynomial":
        """Build from integer monomial coefficients (ascending).

        The binomial coefficients are the forward finite differences of the
        value sequence f(0), f(1), ..., f(B).
        """
        mono = _trimmed(mono)
        b = len(mono) - 1
        values = [_horner(mono, i) for i in range(b + 1)]
        coeffs = []
        for _ in range(b + 1):
            coeffs.append(values[0])
            values = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        return cls(tuple(coeffs))

    def eval(self, n: int) -> int:
        """Exact value at any integer n (binomials via falling factorials)."""
        total = self.coeffs[0]
        binom = 1
        for j in range(1, len(self.coeffs)):
            binom = binom * (n - j + 1) // j
            total += self.coeffs[j] * binom
        return total

    def companion(self) -> tuple[int, ...]:
        """Monomial coefficients (ascending) of B! * f, all integers."""
        b = self.degree
        fact_b = math.factorial(b)
        out = [0] * (b + 1)
        # falling factorial x(x-1)...(x-j+1), built incrementally
        falling = [1]
        for j in range(b + 1):
            scale = self.coeffs[j] * (fact_b // math.factorial(j))
            for i, ci in enumerate(falling):
                out[i] += scale * ci
            # multiply by (x - j) for the next round
            falling = [0] + falling
            for i in range(len(falling) - 1):
                falling[i] -= j * falling[i + 1]
        return tuple(out)

    def to_json(self) -> dict:
        return {"basis": "binomial", "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "IntPolynomial":
        if obj.get("basis") != "binomial" or not isinstance(obj["coeffs"], list):
            raise ValueError("unknown polynomial encoding")
        return cls(tuple(int(decimal_field(c, MAX_COEFF_DIGITS)) for c in obj["coeffs"]))

    def __str__(self) -> str:
        return "binom:" + json.dumps(list(self.coeffs), separators=(",", ":"))


def _horner(coeffs, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def parse_poly_literal(text: str) -> IntPolynomial:
    """Parse 'poly:[c0,...,cB]' (monomial), 'binom:[a0,...,aB]', or a bare
    JSON list (binomial basis). Any other text, a degree above MAX_DEGREE
    included, raises ValueError."""
    s = text.strip()
    mode = "binom"
    if s.startswith("poly:"):
        mode, s = "poly", s[5:]
    elif s.startswith("binom:"):
        s = s[6:]
    try:
        data = json.loads(s)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad polynomial literal {text!r}: {e}") from None
    except RecursionError:
        raise ValueError(f"bad polynomial literal {text!r:.40}: nested too deeply") from None
    if not isinstance(data, list) or not data or not all(
        isinstance(v, int) for v in data
    ):
        raise ValueError(f"bad polynomial literal {text!r}: need a list of ints")
    if mode == "poly":
        return IntPolynomial.from_monomial(data)
    return IntPolynomial(tuple(data))


def _primitive(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    g = g or 1
    sign = 1 if coeffs[-1] > 0 else -1
    return tuple(sign * c // g for c in coeffs)


def _divisors(n: int, cap: int = 10**12) -> list[int]:
    n = abs(n)
    if n == 0 or n > cap:
        raise OverflowError("divisor enumeration out of range")
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _exact_division(num: tuple[int, ...], den: tuple[int, ...]):
    """num / den over the rationals; quotient coeffs or None if inexact."""
    r = [Fraction(c) for c in num]
    d = [Fraction(c) for c in den]
    if len(d) < 1 or d[-1] == 0:
        return None
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        shift = len(r) - len(d)
        coef = r[-1] / d[-1]
        q[shift] = coef
        for i in range(len(d)):
            r[shift + i] -= coef * d[i]
    if any(c != 0 for c in r):
        return None
    return q


def _numeric_factor_screen(g: tuple[int, ...]) -> tuple[int, ...] | None:
    """Search for a proper integer-coefficient factor of g via its complex
    roots (round products of monic root subsets, then verify exactly).

    Returns a factor if one is found, None if the screen completes clean.
    Raises OverflowError when the degree is too large to screen.
    """
    import numpy as np

    deg = len(g) - 1
    if deg > 12:
        raise OverflowError("degree too large for factor screen")
    roots = np.roots(list(reversed(g)))
    lead_divs = _divisors(g[-1], cap=10**9)
    n = len(roots)
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 1 or size > deg // 2:
            continue
        sel = [roots[i] for i in range(n) if mask >> i & 1]
        coeffs_desc = [complex(c) for c in np.poly(sel)]  # monic, descending
        if any(abs(c.imag) > 1e-6 for c in coeffs_desc):
            continue
        real_desc = [c.real for c in coeffs_desc]
        for d in lead_divs:
            cand = [round(d * c) for c in real_desc]
            if max(abs(d * c - rc) for c, rc in zip(real_desc, cand)) > 1e-4:
                continue
            cand_asc = tuple(reversed(cand))
            if cand_asc[-1] == 0:
                continue
            if _exact_division(g, cand_asc) is not None:
                return cand_asc
    return None


def _has_root_mod(g: tuple[int, ...], p: int) -> bool:
    """Whether g has a root mod p, by evaluation at every residue."""
    gp = [c % p for c in reversed(g)]
    for t in range(p):
        acc = 0
        for c in gp:
            acc = (acc * t + c) % p
        if not acc:
            return True
    return False


def irreducibility_check(f: IntPolynomial, assert_irreducible: bool = False) -> str:
    """Classify f's irreducibility over the rationals.

    Returns one of:
      "proved"           complete criterion fired (degree 1, quadratic
                         discriminant, or an irreducible reduction mod a
                         small prime not dividing the leading coefficient)
      "heuristic-pass"   no proof available but a full factor screen found
                         nothing (e.g. polynomials reducible mod every prime)
      "asserted-by-user" screen was inconclusive and the caller vouched
      "fail"             a proper rational factor exists, or the check was
                         inconclusive and nobody vouched
    """
    if f.degree == 1:
        return "proved"
    g = _primitive(f.companion())
    if f.degree == 2:
        c0, c1, c2 = g
        disc = c1 * c1 - 4 * c2 * c0
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            return "fail"
        return "proved"
    # reduction criterion: irreducible mod p with degree preserved is a
    # proof; tried for the first 25 primes below 200 keeping the degree. A
    # reduction with a root mod p has a linear factor, so it is passed over
    # without the irreducibility test
    kept = (p for p in map(int, sieve_primes(199)) if g[-1] % p)
    for p in itertools.islice(kept, 25):
        if not _has_root_mod(g, p) and gf_is_irreducible(gf_normalize(g, p), p):
            return "proved"
    try:
        factor = _numeric_factor_screen(g)
    except OverflowError:
        return "asserted-by-user" if assert_irreducible else "fail"
    if factor is not None:
        return "fail"
    return "asserted-by-user" if assert_irreducible else "heuristic-pass"
