"""Exact integer polynomial invariants of simplicial complexes.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence, Union

from .complexes import SimplicialComplex, face_counts, link_table
from .errors import InteriorNotSubset


class IntPolynomial:
    """Polynomial with integer coefficients, index = degree.

    Coefficients are normalized (no trailing zeros); the zero polynomial
    has an empty coefficient tuple and degree -1.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["IntPolynomial", int]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        val = 0
        for c in reversed(self.coeffs):
            val = val * x + c
        return val

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k."""
        return IntPolynomial((0,) * k + self.coeffs)

    def reflect(self, d: int) -> "IntPolynomial":
        """x**d * p(1/x); requires degree <= d."""
        if self.degree > d:
            raise ValueError("degree exceeds reflection width")
        return IntPolynomial(tuple(self[d - i] for i in range(d + 1)))

    def is_symmetric(self, d: int) -> bool:
        return self.reflect(d) == self

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_unimodal(self) -> bool:
        """Coefficients rise (weakly) then fall (weakly)."""
        cs = self.coeffs
        i = 0
        while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
            i += 1
        while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
            i += 1
        return i >= len(cs) - 1

    def padded(self, d: int) -> tuple[int, ...]:
        return tuple(self[i] for i in range(d + 1))

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def one_plus_x_power(n: int) -> IntPolynomial:
    """(1+x)**n, exactly."""
    return IntPolynomial(comb(n, k) for k in range(n + 1))


def h_from_face_counts(counts: Sequence[int], d: int) -> IntPolynomial:
    """sum_k counts[k] * x**k * (1-x)**(d-k) for face counts by cardinality."""
    out = [0] * (d + 1)
    for k, n in enumerate(counts):
        if n == 0:
            continue
        for j in range(d - k + 1):
            out[k + j] += n * comb(d - k, j) * (-1) ** j
    return IntPolynomial(out)


def local_h_from_counts(
    counts: dict[tuple[int, int], int], d: int, e: int = 0
) -> IntPolynomial:
    """Stanley's face formula for a local h-polynomial over a base of
    width d, relative to a face of cardinality ``e`` (0 for the plain
    local h).

    ``counts[g, m]`` is the number of faces G with |G| = g whose carrier
    has m vertices; the result is the sum over them of
    (-1)**(d-m) * x**(g-e+d-m) * (1-x)**(m-g), of degree at most d - e.
    """
    out = [0] * (d - e + 1)
    for (g, m), n in counts.items():
        if (d - m) % 2:
            n = -n
        shift = g - e + d - m
        for j in range(m - g + 1):
            out[shift + j] += (-1) ** j * n * comb(m - g, j)
    return IntPolynomial(out)


def h_polynomial(K: SimplicialComplex) -> IntPolynomial:
    """h-polynomial: the face sum x**|F| (1-x)**(d-|F|) with d = dim+1."""
    f = K.f_vector()
    return h_from_face_counts(f, len(f) - 1)


def interior_h_polynomial(
    K: SimplicialComplex, interior: Iterable[int]
) -> IntPolynomial:
    """The h face sum restricted to the given interior faces of ``K``."""
    interior = set(interior)
    if not interior <= K.face_set:
        raise InteriorNotSubset("interior faces must be faces of the complex")
    d = K.dim + 1
    counts = [0] * (d + 1)
    for f in interior:
        counts[f.bit_count()] += 1
    return h_from_face_counts(counts, d)


def reduced_euler_characteristic(K: SimplicialComplex) -> int:
    """sum over faces of (-1)**(|F|-1), the empty face included."""
    return sum(-1 if f.bit_count() % 2 == 0 else 1 for f in K.faces())


def is_eulerian_link(counts: Sequence[int]) -> bool:
    """A link with these face counts (f_-1, f_0, ...) has reduced Euler
    characteristic (-1)**(its dim)."""
    chi = sum(-n if k % 2 == 0 else n for k, n in enumerate(counts))
    return chi == (-1 if len(counts) % 2 else 1)


def is_eulerian(K: SimplicialComplex) -> bool:
    """Every face link has reduced Euler characteristic (-1)**(its dim).

    All links come from one `link_table`, so the cost is linear in the
    sum of 2**|G| over the faces G."""
    return all(
        is_eulerian_link(face_counts(faces)) for faces in link_table(K).values()
    )


@dataclass(frozen=True)
class GammaVector:
    """Coordinates of a symmetric polynomial in the basis x**i (1+x)**(d-2i)."""

    d: int
    coeffs: tuple[int, ...]

    def expand(self) -> IntPolynomial:
        """Reassemble the degree-d symmetric polynomial."""
        out = ZERO
        for i, g in enumerate(self.coeffs):
            if g:
                out = out + one_plus_x_power(self.d - 2 * i).shift(i) * g
        return out

    def polynomial(self) -> IntPolynomial:
        """The gamma coefficients as a polynomial in x."""
        return IntPolynomial(self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __ge__(self, other: "GammaVector") -> bool:
        width = max(len(self.coeffs), len(other.coeffs))
        mine = self.coeffs + (0,) * (width - len(self.coeffs))
        its = other.coeffs + (0,) * (width - len(other.coeffs))
        return all(a >= b for a, b in zip(mine, its))

    def to_list(self) -> list[int]:
        return list(self.coeffs)


@dataclass(frozen=True)
class SymmetryFailure:
    """First coefficient pair violating h_i = h_{d-i}.

    Returned as a value rather than raised, so callers can log near
    misses without exception plumbing.
    """

    d: int
    i: int
    j: int
    left: int
    right: int

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "pair": [self.i, self.j],
            "coefficients": [self.left, self.right],
        }


def gamma_from_symmetric(
    h: IntPolynomial, d: int
) -> GammaVector | SymmetryFailure:
    """Unique gamma vector of a symmetric degree-<=d polynomial.

    ``d`` is the symmetry center parameter and is always passed
    explicitly: it need not equal the degree of ``h``.  Extraction
    eliminates from gamma_0 upward; if ``h`` is not symmetric the first
    violated pair (i, d-i) is reported instead.  The elimination runs in
    place on the coefficients padded to d + 1: gamma_i is the residual
    at x**i, and subtracting gamma_i x**i (1+x)**(d-2i) clears it.
    """
    if h.degree > d:
        raise ValueError(f"degree {h.degree} exceeds d = {d}")
    cs = list(h.coeffs)
    cs += [0] * (d + 1 - len(cs))
    for i in range(d // 2 + 1):
        if cs[i] != cs[d - i]:
            return SymmetryFailure(d, i, d - i, cs[i], cs[d - i])
    gammas = []
    for i in range(d // 2 + 1):
        g = cs[i]
        gammas.append(g)
        if g:
            width = d - 2 * i
            for j in range(width + 1):
                cs[i + j] -= g * comb(width, j)
    assert not any(cs), "symmetric polynomial left a nonzero residual"
    return GammaVector(d, tuple(gammas))


def gamma_vector(K: SimplicialComplex) -> GammaVector | SymmetryFailure:
    """Gamma vector of a complex via its h-polynomial, centered at dim+1."""
    return gamma_from_symmetric(h_polynomial(K), K.dim + 1)
