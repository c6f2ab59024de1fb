"""Arithmetic of the projective space PG(n,2): points, subspaces, quadrics.

A point of PG(n,2) is a nonzero vector of F_2^{n+1}; since the only scalar
is 1, points are just the integers 1 .. 2^(n+1)-1, with coordinate X_i in
bit i (X_0 is the least significant bit).  Canonical point order is plain
integer order.

Subspaces are stored as reduced row-echelon bases (pivot = highest set bit,
rows strictly decreasing), so equal subspaces compare equal structurally.

A quadratic form is an upper-triangular coefficient matrix over GF(2);
Q(x) = sum a_ij x_i x_j, and the polarization B(x,y) = Q(x^y)+Q(x)+Q(y)
is the symplectic form that drives the polarity.

Sets of points are point masks, ints with bit p for the point p;
PointMasks(form) holds those of one form and the maps between them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"
KINDS = (ELLIPTIC, HYPERBOLIC, PARABOLIC)

EXTERNAL = "external"
TANGENT = "tangent"
SECANT = "secant"
CONTAINED = "contained"


class GeometryError(ValueError):
    """Bad dimension/kind combination or an ill-posed geometric request."""


def point_count(m: int) -> int:
    """Number of points of a projective m-space: 2^(m+1) - 1."""
    return (1 << (m + 1)) - 1


def enumerate_points(n: int) -> list[int]:
    """All points of PG(n,2) in canonical (integer) order."""
    if n < 1:
        raise GeometryError(f"projective dimension must be >= 1, got {n}")
    return list(range(1, 1 << (n + 1)))


def quadric_size(n: int, kind: str) -> int:
    """Point count of a non-singular quadric of the given kind in PG(n,2)."""
    if kind == PARABOLIC:
        if n % 2 != 0:
            raise GeometryError("parabolic quadrics need even n")
        return (1 << n) - 1
    half = 1 << ((n - 1) // 2)
    if kind == ELLIPTIC:
        if n % 2 == 0:
            raise GeometryError("elliptic quadrics need odd n")
        return (1 << n) - half - 1
    if kind == HYPERBOLIC:
        if n % 2 == 0:
            raise GeometryError("hyperbolic quadrics need odd n")
        return (1 << n) + half - 1
    raise GeometryError(f"unknown quadric kind {kind!r}")


class QuadraticForm:
    """Non-singular quadratic form on PG(n,2).

    rows[i] holds the coefficients a_ij for j >= i (bit j set iff the
    monomial X_i X_j is present, with a_ii on the diagonal bit).
    Immutable once built; the zero set and the symmetrized Gram matrix are
    precomputed because membership tests dominate everything downstream.
    """

    __slots__ = ("n", "kind", "rows", "zero_mask", "gram")

    def __init__(self, n: int, kind: str, rows: tuple[int, ...]):
        if kind not in KINDS:
            raise GeometryError(f"unknown quadric kind {kind!r}")
        if kind == PARABOLIC and n % 2 != 0:
            raise GeometryError(f"parabolic form needs even n, got n={n}")
        if kind != PARABOLIC and n % 2 == 0:
            raise GeometryError(f"{kind} form needs odd n, got n={n}")
        if len(rows) != n + 1:
            raise GeometryError(f"need {n + 1} coefficient rows, got {len(rows)}")
        coord_mask = (1 << (n + 1)) - 1
        for i, r in enumerate(rows):
            if r & ~coord_mask or r & ((1 << i) - 1):
                raise GeometryError(f"row {i} is not upper-triangular over {n + 1} coordinates")
        self.n = n
        self.kind = kind
        self.rows = tuple(rows)

        # Gram matrix of the polarization: gram[i] bit j = B(e_i, e_j).
        gram = [0] * (n + 1)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if (rows[i] >> j) & 1:
                    gram[i] |= 1 << j
                    gram[j] |= 1 << i
        self.gram = tuple(gram)

        zeros = 0
        for p in range(1, 1 << (n + 1)):
            if self._evaluate(p) == 0:
                zeros |= 1 << p
        self.zero_mask = zeros
        if zeros.bit_count() != quadric_size(n, kind):
            raise GeometryError(
                f"form has {zeros.bit_count()} zeros, a non-singular {kind} "
                f"quadric in PG({n},2) must have {quadric_size(n, kind)}"
            )

    def _evaluate(self, x: int) -> int:
        acc = 0
        y = x
        i = 0
        while y:
            if y & 1:
                acc ^= (self.rows[i] & x).bit_count()
            y >>= 1
            i += 1
        return acc & 1

    def evaluate(self, x: int) -> int:
        """Q(x) over GF(2)."""
        self._check_point(x)
        return ((self.zero_mask >> x) & 1) ^ 1

    def contains(self, x: int) -> bool:
        """Is x a point of the quadric Q(x) = 0?"""
        self._check_point(x)
        return bool((self.zero_mask >> x) & 1)

    def _check_point(self, x: int) -> None:
        if not 1 <= x < (1 << (self.n + 1)):
            raise GeometryError(f"{x} is not a point of PG({self.n},2)")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and (self.n, self.kind, self.rows) == (other.n, other.kind, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.kind, self.rows))

    def __repr__(self) -> str:
        return f"QuadraticForm(n={self.n}, kind={self.kind!r})"


def canonical_form(n: int, kind: str) -> QuadraticForm:
    """The canonical non-singular form of each kind.

    hyperbolic: X0X1 + X2X3 + ... + X_{n-1}Xn
    elliptic:   X0^2 + X0X1 + X1^2 + X2X3 + ... + X_{n-1}Xn
    parabolic:  X0^2 + X1X2 + ... + X_{n-1}Xn
    """
    if kind not in KINDS:
        raise GeometryError(f"unknown quadric kind {kind!r}")
    if n < 1:
        raise GeometryError(f"projective dimension must be >= 1, got {n}")
    rows = [0] * (n + 1)
    if kind == HYPERBOLIC:
        if n % 2 == 0:
            raise GeometryError("hyperbolic form needs odd n")
        for i in range(0, n, 2):
            rows[i] |= 1 << (i + 1)
    elif kind == ELLIPTIC:
        if n % 2 == 0:
            raise GeometryError("elliptic form needs odd n")
        rows[0] |= 0b11  # X0^2 + X0X1, the unique irreducible quadratic with X1^2 below
        rows[1] |= 0b10
        for i in range(2, n, 2):
            rows[i] |= 1 << (i + 1)
    else:
        if n % 2 != 0:
            raise GeometryError("parabolic form needs even n")
        rows[0] |= 1
        for i in range(1, n, 2):
            rows[i] |= 1 << (i + 1)
    return QuadraticForm(n, kind, tuple(rows))


def quadric_points(form: QuadraticForm) -> set[int]:
    """The zero set of the form as a set of points."""
    m = form.zero_mask
    return {p for p in range(1, 1 << (form.n + 1)) if (m >> p) & 1}


def nonquadric_points(form: QuadraticForm) -> list[int]:
    """Points off the quadric in canonical order."""
    m = form.zero_mask
    return [p for p in range(1, 1 << (form.n + 1)) if not (m >> p) & 1]


def bilinear(form: QuadraticForm, x: int, y: int) -> int:
    """The polarization B(x,y) = Q(x+y) + Q(x) + Q(y) over GF(2)."""
    form._check_point(x)
    form._check_point(y)
    if x == y:
        return 0
    return form.evaluate(x ^ y) ^ form.evaluate(x) ^ form.evaluate(y)


def polar_vector(form: QuadraticForm, y: int) -> int:
    """The vector m with bit i = B(e_i, y), so that B(x,y) = parity(x & m)."""
    m = 0
    for i, g in enumerate(form.gram):
        if (g & y).bit_count() & 1:
            m |= 1 << i
    return m


def coordinate_masks(n: int) -> tuple[int, ...]:
    """Point-indexed masks over F_2^{n+1}, bit p standing for the vector p.

    Entry b has the bits of the vectors whose coordinate b is 0; shifted up
    by 2^b it has those whose coordinate b is 1.
    """
    ones = (1 << (1 << (n + 1))) - 1
    return tuple(ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n + 1))


class PointMasks:
    """The point masks of one form."""

    def __init__(self, form: QuadraticForm):
        self.form = form
        self.halves = coordinate_masks(form.n)
        self.ones = (1 << (1 << (form.n + 1))) - 1
        self.off = self.ones & ~form.zero_mask & ~1  # the points off the quadric
        self._nonorth: dict[int, int] = {}

    @functools.cached_property
    def labels(self) -> tuple[int, ...]:
        """The points off the quadric in order, one per vertex."""
        return tuple(nonquadric_points(self.form))

    @functools.cached_property
    def _gather(self):
        # format(mask, spec)[size - 1 - p] is bit p, so this picks the label bits
        # of a mask, highest vertex first: a vertex-indexed mask in binary
        size = 1 << (self.form.n + 1)
        return itemgetter(*[size - 1 - p for p in reversed(self.labels)]), f"0{size}b"

    def vertices(self, mask: int) -> int:
        """The mask in vertex order: bit i for the point labels[i]."""
        gather, spec = self._gather
        return int("".join(gather(format(mask & self.ones, spec))), 2)

    def nonorth(self, y: int) -> int:
        """The points x with B(x, y) = 1: odd parity against y's polar vector."""
        mask = self._nonorth.get(y)
        if mask is None:
            m, mask = polar_vector(self.form, y), 0
            for b, half in enumerate(self.halves):
                if m >> b & 1:
                    mask ^= half << (1 << b)  # the vectors whose coordinate b is 1
            self._nonorth[y] = mask
        return mask

    def translate(self, mask: int, x: int) -> int:
        """Move bit p to bit p^x: one block swap per set bit b of x, exchanging
        the 2^b-wide blocks that differ in coordinate b."""
        b = 0
        while x:
            if x & 1:
                width, low = 1 << b, self.halves[b]
                mask = ((mask & low) << width) | ((mask >> width) & low)
            x >>= 1
            b += 1
        return mask


# --- subspaces ---------------------------------------------------------------


def echelonize(vectors) -> tuple[int, ...]:
    """Reduced row-echelon basis (pivot = top bit, rows decreasing) of a span."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    for i, b in enumerate(basis):
        piv = 1 << (b.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & piv:
                basis[j] ^= b
    basis.sort(reverse=True)
    return tuple(basis)


def kernel(rows, width: int) -> tuple[int, ...]:
    """Basis of {x : parity(x & r) = 0 for every r in rows}, vectors of `width` bits."""
    basis = echelonize(rows)
    pivots = [b.bit_length() - 1 for b in basis]
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    out = []
    for fc in free:
        v = 1 << fc
        for b, piv in zip(basis, pivots):
            if (b >> fc) & 1:
                v |= 1 << piv
        out.append(v)
    return echelonize(out)


@dataclass(frozen=True)
class Subspace:
    """A GF(2) vector subspace of F_2^{n+1}, i.e. a projective (vdim-1)-space."""

    n: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if self.basis != echelonize(self.basis):
            raise GeometryError("basis is not in reduced echelon form")
        limit = 1 << (self.n + 1)
        if any(not 0 < b < limit for b in self.basis):
            raise GeometryError(f"basis vector outside PG({self.n},2)")

    @property
    def vdim(self) -> int:
        return len(self.basis)

    @property
    def projective_dim(self) -> int:
        return self.vdim - 1

    def points(self) -> list[int]:
        """All 2^vdim - 1 nonzero vectors of the subspace, sorted."""
        pts = [0]
        for b in self.basis:
            pts += [p ^ b for p in pts]
        return sorted(pts[1:])

    def point_mask(self) -> int:
        """Bitmap over point integers: bit p set iff p lies in the subspace."""
        m = 0
        for p in self.points():
            m |= 1 << p
        return m

    def contains(self, x: int) -> bool:
        for b in self.basis:
            if x ^ b < x:
                x ^= b
        return x == 0

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(b) for b in self.basis)


def span(n: int, points) -> Subspace:
    """Smallest subspace of PG(n,2) containing the given points."""
    pts = list(points)
    if not pts:
        raise GeometryError("span of an empty point set is undefined")
    limit = 1 << (n + 1)
    if any(not 0 < p < limit for p in pts):
        raise GeometryError(f"point outside PG({n},2)")
    return Subspace(n, echelonize(pts))


def whole_space(n: int) -> Subspace:
    return Subspace(n, tuple(1 << i for i in reversed(range(n + 1))))


def perp(form: QuadraticForm, u: Subspace) -> Subspace:
    """The polar space {x : B(x,b) = 0 for all b in u} of the induced polarity."""
    if form.kind == PARABOLIC:
        raise GeometryError("parabolic forms induce a degenerate polarity; no perp")
    if u.n != form.n:
        raise GeometryError("subspace and form live in different spaces")
    constraints = [polar_vector(form, b) for b in u.basis]
    return Subspace(form.n, kernel(constraints, form.n + 1))


# --- lines -------------------------------------------------------------------


def classify_line(form: QuadraticForm, x: int, y: int) -> str:
    """Class of the line {x, y, x+y} by its quadric-point count: 0/1/2/3."""
    form._check_point(x)
    form._check_point(y)
    if x == y:
        raise GeometryError("a line needs two distinct points")
    hits = sum(1 for p in (x, y, x ^ y) if form.contains(p))
    return (EXTERNAL, TANGENT, SECANT, CONTAINED)[hits]


def count_external_lines_through(form: QuadraticForm, x: int) -> int:
    """Number of external lines through a non-quadric point, by enumeration."""
    if form.contains(x):
        raise GeometryError(f"{x} lies on the quadric; external lines need an external point")
    zeros = form.zero_mask
    cnt = 0
    for y in range(1, 1 << (form.n + 1)):
        if y == x or (zeros >> y) & 1:
            continue
        if not (zeros >> (x ^ y)) & 1:
            cnt += 1
    # each external line through x contributes both of its other points
    return cnt // 2


def nucleus(form: QuadraticForm) -> int:
    """The unique point of a parabolic quadric's ambient space on no secant.

    Equals the radical of the polarization; every line through it is tangent.
    """
    if form.kind != PARABOLIC:
        raise GeometryError(f"{form.kind} quadrics have no nucleus")
    rad = kernel(form.gram, form.n + 1)
    if len(rad) != 1:
        raise GeometryError("radical is not a single point; form is singular")
    return rad[0]
