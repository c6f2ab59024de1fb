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

Sets of points are point masks, ints with bit p for the point p.  Each
form holds its own, Q's built monomial by monomial from coordinate masks, with
translations (block swaps, all applied by swap_blocks), hyperplanes B(x,y) = 1
and the gather into vertex order, a compress by off in n + 1 masked shifts
(points, its inverse, is the matching expand).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"
KINDS = (ELLIPTIC, HYPERBOLIC, PARABOLIC)

# The largest n a form is made for: point masks of 2^(n+1) bits take ~0.1 s
# at n = 17, ~1.6 s at n = 19, over 40 s at n = 21, and no int holds one at 101.
MAX_N = 17


class GeometryError(ValueError):
    """Bad dimension/kind combination or an ill-posed geometric request."""


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


def _check_dimension(n: int) -> None:
    """Refuse n before anything of size n, let alone 2^(n+1), is made."""
    if n < 1:
        raise GeometryError(f"projective dimension must be >= 1, got {n}")
    if n > MAX_N:
        raise GeometryError(f"PG({n},2) is out of reach: forms are made up to n = {MAX_N}")


class QuadraticForm:
    """Non-singular quadratic form on PG(n,2), with its point masks.

    rows[i] holds the coefficients a_ij for j >= i (bit j set iff the
    monomial X_i X_j is present, with a_ii on the diagonal bit).
    Immutable once built.  The symmetrized Gram matrix and the point masks
    halves, ones, off and zero_mask are precomputed; the labels, the gather
    into vertex order and the hyperplane masks are made on first use and kept.
    The gather is a compress by off: vertices(mask) packs the bits of mask at
    the points off the quadric down to bits 0, 1, ... in n + 1 masked shifts.
    """

    def __init__(self, n: int, kind: str, rows: tuple[int, ...]):
        _check_dimension(n)
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

        self.halves = coordinate_masks(n)
        self.ones = (1 << (1 << (n + 1))) - 1
        one = [half << (1 << b) for b, half in enumerate(self.halves)]  # coordinate b is 1
        # one pass over the monomials X_i X_j gives the mask of Q (the points
        # off the quadric) and the Gram matrix of the polarization, gram[i]
        # bit j = B(e_i, e_j)
        q, gram = 0, [0] * (n + 1)
        for i in range(n + 1):
            for j in range(i, n + 1):
                if (rows[i] >> j) & 1:
                    q ^= one[i] & one[j]
                    if j != i:
                        gram[i] |= 1 << j
                        gram[j] |= 1 << i
        self.gram = tuple(gram)
        self.off = q
        self.zero_mask = self.ones & ~q & ~1  # the vector 0 is no point
        self._nonorth: dict[int, int] = {}
        if self.zero_mask.bit_count() != quadric_size(n, kind):
            raise GeometryError(
                f"form has {self.zero_mask.bit_count()} zeros, a non-singular {kind} "
                f"quadric in PG({n},2) must have {quadric_size(n, kind)}"
            )

    def contains(self, x: int) -> bool:
        """Is x a point of the quadric Q(x) = 0?"""
        if not 1 <= x < (1 << (self.n + 1)):
            raise GeometryError(f"{x} is not a point of PG({self.n},2)")
        return bool((self.zero_mask >> x) & 1)

    @functools.cached_property
    def labels(self) -> tuple[int, ...]:
        """The points off the quadric in order, one per vertex."""
        return tuple(set_bits(self.off))

    @functools.cached_property
    def _gather(self) -> tuple[tuple[int, int], ...]:
        # compress by off (Hacker's Delight, 7-4): round i moves each kept bit
        # down by 2^i if bit i of its count of dropped bits below it is set;
        # mv is the kept bits that move in that round
        m, ones, rounds = self.off, self.ones, []
        mk = (~m << 1) & ones  # the dropped bits, one place up
        for i in range(self.n + 1):
            mp = mk  # parallel prefix: bit j = parity of mk's bits 0..j
            for b in range(self.n + 1):
                mp ^= mp << (1 << b)
            mp &= ones
            mv = mp & m
            m = (m ^ mv) | (mv >> (1 << i))
            mk &= ~mp
            rounds.append((mv, 1 << i))
        return tuple(rounds)

    def vertices(self, mask: int) -> int:
        """The mask in vertex order: bit i for the point labels[i]."""
        x = mask & self.off
        for mv, s in self._gather:
            t = x & mv
            x = (x ^ t) | (t >> s)
        return x

    def points(self, vmask: int) -> int:
        """The inverse of vertices: bit labels[i] for bit i of vmask (bits at or
        above v are dropped).  An expand by off, the gather's rounds reversed."""
        x = vmask & ((1 << len(self.labels)) - 1)
        for mv, s in reversed(self._gather):
            t = x & (mv >> s)
            x = (x ^ t) | (t << s)
        return x

    def nonorth(self, y: int) -> int:
        """The points x with B(x, y) = 1: odd parity against y's polar vector."""
        mask = self._nonorth.get(y)
        if mask is None:
            m, mask = polar_vector(self, y), 0
            for b, half in enumerate(self.halves):
                if m >> b & 1:
                    mask ^= half << (1 << b)  # the vectors whose coordinate b is 1
            self._nonorth[y] = mask
        return mask

    def block_swaps(self, x: int) -> list[tuple[int, int]]:
        """The translation by x for swap_blocks: (2^b, halves[b]) per set bit b
        of x swaps the 2^b-wide blocks that differ in coordinate b."""
        swaps = []
        while x:
            low = x & -x  # 2^b
            swaps.append((low, self.halves[low.bit_length() - 1]))
            x ^= low
        return swaps

    def translate(self, mask: int, x: int) -> int:
        """Move bit p to bit p^x."""
        return swap_blocks(mask, self.block_swaps(x))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and (self.n, self.kind, self.rows) == (other.n, other.kind, other.rows)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.kind, self.rows))

    def __repr__(self) -> str:
        return f"QuadraticForm(n={self.n}, kind={self.kind!r})"


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative int, lowest first."""
    bits = format(mask, "b")[::-1]  # bits[i] is bit i
    return [i for i, bit in enumerate(bits) if bit == "1"]


def swap_blocks(mask: int, swaps) -> int:
    """Apply block swaps in turn: for each (width, low), the bits of mask in
    low trade places with those width bits above them."""
    for width, low in swaps:
        mask = ((mask & low) << width) | ((mask >> width) & low)
    return mask


def canonical_form(n: int, kind: str) -> QuadraticForm:
    """The canonical non-singular form of each kind.

    hyperbolic: X0X1 + X2X3 + ... + X_{n-1}Xn
    elliptic:   X0^2 + X0X1 + X1^2 + X2X3 + ... + X_{n-1}Xn
    parabolic:  X0^2 + X1X2 + ... + X_{n-1}Xn
    """
    _check_dimension(n)
    rows = [0] * (n + 1)
    if kind == HYPERBOLIC:
        for i in range(0, n, 2):
            rows[i] |= 1 << (i + 1)
    elif kind == ELLIPTIC:
        rows[0] |= 0b11  # X0^2 + X0X1, the unique irreducible quadratic with X1^2 below
        rows[1] |= 0b10
        for i in range(2, n, 2):
            rows[i] |= 1 << (i + 1)
    else:  # parabolic, or an unknown kind the constructor refuses
        rows[0] |= 1
        for i in range(1, n, 2):
            rows[i] |= 1 << (i + 1)
    return QuadraticForm(n, kind, tuple(rows))


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
    size, masks = 1 << (n + 1), []
    for b in range(n + 1):
        mask, width = (1 << (1 << b)) - 1, 2 << b  # one block of 2^b ones, repeated by doubling
        while width < size:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return tuple(masks)


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


def span(n: int, points) -> Subspace:
    """Smallest subspace of PG(n,2) containing the given points."""
    pts = list(points)
    if not pts:
        raise GeometryError("span of an empty point set is undefined")
    limit = 1 << (n + 1)
    if any(not 0 < p < limit for p in pts):
        raise GeometryError(f"point outside PG({n},2)")
    return Subspace(n, echelonize(pts))


def perp(form: QuadraticForm, u: Subspace) -> Subspace:
    """The polar space {x : B(x,b) = 0 for all b in u} of the induced polarity.

    The pipeline takes polar spaces as hyperplane masks (QuadraticForm.nonorth);
    this kernel computation stays as the independent oracle of the T-set and
    flag-walk tests, and as a public entry point that benchmark traces wrap.
    """
    if form.kind == PARABOLIC:
        raise GeometryError("parabolic forms induce a degenerate polarity; no perp")
    if u.n != form.n:
        raise GeometryError("subspace and form live in different spaces")
    constraints = [polar_vector(form, b) for b in u.basis]
    return Subspace(form.n, kernel(constraints, form.n + 1))


# --- lines -------------------------------------------------------------------


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

