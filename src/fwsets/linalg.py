"""Exact rational vectors and matrices.

The API is over ``fractions.Fraction``: a rational is a pair (numerator,
positive denominator) in lowest terms, which ``Fraction`` maintains by
construction.  Vectors are tuples of Fractions and matrices are tuples of
row tuples; keeping them immutable lets every higher layer share values
freely.

Elimination runs on Python ints inside.  Each row is scaled to a primitive
integer row (a positive rescaling, so signs and zero patterns are kept),
Gauss-Jordan elimination works fraction-free, dividing every updated row by
the gcd of its entries, and Fractions are built once, from the finished
rows.  The reduced row echelon form is unique, so the results are the ones
Fraction elimination gives.  :func:`solve`, :func:`kernel_basis` and
:class:`LinearSystem` read their Fractions straight off the integer rows, one
per nonzero entry of a result; a :class:`LinearSystem` answers each right-hand
side with integer dot products.  :func:`dot`, the one exact dot product of
Fraction vectors, sums the terms' numerators on ints over one running
denominator and builds one Fraction, for the result.

No floating point enters this module.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidParameterError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

# one shared Fraction for each small integer: the conversions meet small
# entries most, and sharing them saves building and keeping a new object
_SMALL = {k: Fraction(k) for k in range(-64, 65)}
ZERO = _SMALL[0]
ONE = _SMALL[1]
# the entry type of a canonical vector
_FRACTION = frozenset({Fraction})


def hash_once(value) -> int:
    """The ``__hash__`` of a frozen value class, bound as ``__hash__ =
    hash_once``: the hash of its compared fields, the one the dataclass would
    compute, worked out on first use and kept outside its fields."""
    h = value.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(getattr(value, f.name) for f in fields(value) if f.compare))
        value.__dict__["_hash"] = h
    return h


def set_fields(value, **fields) -> None:
    """Set fields of a frozen value, from its ``__post_init__``: how a value
    class puts its fields into canonical form at construction.  Each field
    is set as the dataclass sets it, so no instance ``__dict__`` is built."""
    for name, field_value in fields.items():
        object.__setattr__(value, name, field_value)


def dim_of(dim: int | None, *groups) -> int:
    """``dim``, or else the length of the first vector of the first nonempty
    group; DimensionMismatchError when every group is empty."""
    if dim is not None:
        return dim
    for group in groups:
        if group:
            return len(group[0])
    raise DimensionMismatchError("dimension required for an empty list")


def int_fraction(k: int) -> Fraction:
    """The int ``k`` as a Fraction, shared for ``|k| <= 64``."""
    f = _SMALL.get(k)
    return Fraction(k) if f is None else f


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction; any
    other entry, a float included, is refused with InvalidParameterError.
    A float stands for its binary value, not the decimal it was written
    as (0.1 is 3602879701896397/2^55), so exact data never reads one;
    tolerances take floats where they are read."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InvalidParameterError(f"cannot interpret {x!r} as a rational: {exc}") from None
    raise InvalidParameterError(f"cannot interpret {x!r} as a rational")


def vec(xs: Iterable) -> Vec:
    """``xs`` as a tuple of Fractions; a tuple of Fractions is returned as
    it is, after one scan of its entry types."""
    if type(xs) is tuple and _FRACTION.issuperset(map(type, xs)):
        return xs
    try:
        return tuple(map(rat, xs))
    except TypeError:
        raise InvalidParameterError(f"cannot interpret {xs!r} as a vector") from None


def mat(rows: Iterable[Iterable]) -> Mat:
    """``rows`` as a tuple of :func:`vec` rows of one width; a tuple of such
    rows is returned as it is, after one scan of its rows."""
    if type(rows) is tuple and (not rows or type(rows[0]) is tuple):
        width = len(rows[0]) if rows else 0
        for r in rows:
            if type(r) is not tuple or len(r) != width or not _FRACTION.issuperset(map(type, r)):
                break
        else:
            return rows
    try:
        out = tuple(map(vec, rows))
    except TypeError:
        raise InvalidParameterError(f"cannot interpret {rows!r} as a matrix") from None
    if len(set(map(len, out))) > 1:
        raise DimensionMismatchError("ragged matrix rows")
    return out


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """The exact dot product of two rational (or int) sequences.

    The sum accumulates on ints over one running denominator: a term whose
    denominator is the running one adds its numerator, any other moves both
    to their lcm, and zero terms are skipped.  One Fraction is built, for the
    result.
    """
    if len(a) != len(b):
        raise DimensionMismatchError("dot of unequal lengths")
    num, den = 0, 1
    for x, y in zip(a, b):
        if x and y:
            tn = x.numerator * y.numerator
            td = x.denominator * y.denominator
            if td == den:
                num += tn
            else:
                m = lcm(den, td)
                num = num * (m // den) + tn * (m // td)
                den = m
    return Fraction(num, den)


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatchError("sum of unequal lengths")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatchError("difference of unequal lengths")
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def matvec(m: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def primitive_ints(v: Sequence[Fraction]) -> list[int]:
    """The coprime integers of :func:`primitive`, as a list of ints."""
    dens = [x.denominator for x in v]
    den = lcm(*dens)
    if den == 1:
        ints = [x.numerator for x in v]
    else:
        ints = [x.numerator * (den // q) for x, q in zip(v, dens)]
    g = gcd(*ints)
    return [k // g for k in ints] if g > 1 else ints


def int_primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer vector ``v`` divided by the gcd of its entries; a zero
    vector is returned as it is."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive(v: Sequence[Fraction]) -> Vec:
    """Scale ``v`` by a positive rational so entries are coprime integers.

    The direction is preserved; used to canonicalize rays and halfspace
    normals so duplicates compare equal.
    """
    return tuple(Fraction(k) for k in primitive_ints(v))


def int_rref(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the pivot columns.  Afterwards row r (r < rank) is a nonzero
    multiple of row r of the reduced row echelon form, so it reads
    ``row[j] / row[pivots[r]]``; the remaining rows are zero.  Every updated
    row is divided by the gcd of its entries, which keeps them small.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = [pv * x - f * y if y else pv * x for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def int_solution(
    rows: list[list[int]], pivots: list[int], n: int
) -> tuple[list[int], int, list[list[int]]] | None:
    """The solution set of ``[M | b]`` in n unknowns, read off :func:`int_rref`.

    ``rows`` and ``pivots`` are what :func:`int_rref` left of the augmented
    matrix.  Returns None when the system is inconsistent, else
    ``(x, d, kernel)`` with one common denominator d > 0: ``x / d`` is the
    particular solution with zero free coordinates (the one :func:`solve`
    returns), and each integer vector of ``kernel`` is d times the basis
    vector :func:`kernel_basis` gives for its free coordinate.
    """
    if pivots and pivots[-1] == n:
        return None
    d = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    scales = [d // row[pc] for row, pc in zip(rows, pivots)]
    x = [0] * n
    for row, pc, s in zip(rows, pivots, scales):
        x[pc] = row[n] * s
    return x, d, _int_kernel(rows, pivots, scales, d, n)


def _int_kernel(
    rows: list[list[int]], pivots: Sequence[int], scales: Sequence[int], d: int, n: int
) -> list[list[int]]:
    """d times the kernel basis of the first n columns of the rows
    :func:`int_rref` left, on ints: for each free column j, the vector with
    d at j and ``-row[j] d / row[pc]`` at the pivot column pc of each row,
    where ``scales[r] = d / row[pc]`` and d is a common multiple of the
    pivot entries.  ``pivots`` are the pivot columns below n."""
    pivot_set = set(pivots)
    kernel = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [0] * n
        v[j] = d
        for row, pc, s in zip(rows, pivots, scales):
            if row[j]:
                v[pc] = -row[j] * s
        kernel.append(v)
    return kernel


def int_kernel_basis(rows: list[list[int]], pivots: list[int], n: int) -> list[tuple[int, ...]]:
    """The kernel basis of the first n columns of the rows :func:`int_rref`
    left, as primitive integer vectors: each is a positive multiple of the
    vector :func:`kernel_basis` gives for its free column j, whose 1 at j is
    its last nonzero entry (a reduced row is zero before its pivot, so every
    other entry sits at a pivot column below j).  ``pivots`` are the pivot
    columns below n."""
    return [int_primitive(v) for v in _scaled_kernel(rows, pivots, n)[0]]


def _scaled_kernel(rows: list[list[int]], pivots: list[int], n: int) -> tuple[list[list[int]], int]:
    """``(kernel, d)``: :func:`_int_kernel` over d, the lcm of the pivot entries."""
    leads = [row[pc] for row, pc in zip(rows, pivots)]
    d = lcm(*leads)
    return _int_kernel(rows, pivots, [d // x for x in leads], d, n), d


def _over(kernel: list[list[int]], d: int) -> list[Vec]:
    """The integer vectors of ``kernel`` divided by their common d > 0; an
    entry d, the 1 at a free column, is the shared ``ONE``."""
    if d == 1:
        return [tuple(map(int_fraction, v)) for v in kernel]
    return [tuple(ONE if x == d else Fraction(x, d) if x else ZERO for x in v) for v in kernel]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = [primitive_ints(r) for r in m]
    pivots = int_rref(rows)
    red = [
        tuple(Fraction(x, row[pc]) if x else ZERO for x in row)
        for row, pc in zip(rows, pivots)
    ]
    width = len(rows[0]) if rows else 0
    red.extend(zeros(width) for _ in range(len(rows) - len(pivots)))
    return tuple(red), pivots


def rank(m: Mat) -> int:
    return len(int_rref([primitive_ints(r) for r in m]))


def idot(a, b) -> int:
    """Dot product of two integer sequences."""
    return sum(map(mul, a, b))


def kernel_basis(m: Mat, ncols: int | None = None) -> list[Vec]:
    """Basis of ``{x : m x = 0}``.  ``ncols`` is needed when ``m`` is empty."""
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [unit(ncols, i) for i in range(ncols)]
    rows = [primitive_ints(r) for r in m]
    return _over(*_scaled_kernel(rows, int_rref(rows), len(m[0])))


def solve(m: Mat, b: Vec) -> Vec | None:
    """One solution of ``m x = b``, or None when inconsistent.

    When the system is underdetermined the particular solution with zero
    free coordinates is returned; combine with :func:`kernel_basis` for the
    full solution set.
    """
    if not m:
        return zeros(0) if not b else None
    if len(b) != len(m):
        raise DimensionMismatchError("right-hand side length is not the row count")
    n = len(m[0])
    rows = [primitive_ints(row + (rhs,)) for row, rhs in zip(m, b)]
    pivots = int_rref(rows)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, pc in zip(rows, pivots):
        if row[n]:
            x[pc] = Fraction(row[n], row[pc])
    return tuple(x)


class LinearSystem:
    """``m x = b`` for a fixed m (``ncols`` columns) and any right-hand side.

    The rows of ``[m | I]``, each scaled to integers by the lcm of its
    denominators, are eliminated once by :func:`int_rref` to ``[E | T]``
    with ``T m = E``.  Given ``den``, m is a matrix of ints that stands for
    ``m / den``, and ``[m | den I]`` is eliminated as it is.  The leading
    rows of E are multiples of the reduced row echelon form of m, and the
    rows of T below the rank span the left kernel of m.  The rank, the
    kernel basis (read on first use, in Fractions and, as ``int_kernel``, on
    ints over the common pivot denominator) and, for each b, the consistency
    test and the particular solution with zero free coordinates all follow
    without eliminating again, on ints; they are the Fractions
    :func:`solve` and :func:`kernel_basis` return.
    """

    def __init__(self, m: Mat, ncols: int, den: int | None = None):
        k = len(m)
        rows = []
        for i, row in enumerate(m):
            if den is None:
                d = lcm(*(x.denominator for x in row))
                ints = [x.numerator * (d // x.denominator) for x in row]
            else:
                d, ints = den, list(row)
            ints.extend(d if j == i else 0 for j in range(k))
            rows.append(ints)
        pivots = int_rref(rows)
        self.ncols = ncols
        self.rank = sum(pc < ncols for pc in pivots)
        self.pivots = pivots[: self.rank]
        self._rows = rows
        self._transform = [row[ncols:] for row in rows]
        leads = [row[pc] for row, pc in zip(rows, self.pivots)]
        self._den = lcm(*leads)
        self._scales = [self._den // lead for lead in leads]

    @cached_property
    def kernel(self) -> list[Vec]:
        return _over(self.int_kernel, self._den)

    @cached_property
    def int_kernel(self) -> list[list[int]]:
        """The kernel basis on ints: each vector is d times the matching
        vector of :attr:`kernel`, for the common pivot denominator d > 0."""
        return _int_kernel(self._rows, self.pivots, self._scales, self._den, self.ncols)

    def solve_ints(self, b: Sequence[int]) -> tuple[list[int], int] | None:
        """``(x, d)`` with ``x / d`` the particular solution of ``m x = b`` for
        an integer b, over one common denominator ``d > 0``; None when the
        system is inconsistent.  Raises when b's length is not m's row count,
        which the integer dot products would otherwise truncate silently."""
        if len(b) != len(self._transform):
            raise DimensionMismatchError("right-hand side length is not the row count")
        tb = [idot(row, b) for row in self._transform]
        if any(tb[self.rank :]):
            return None
        x = [0] * self.ncols
        for pc, t, s in zip(self.pivots, tb, self._scales):
            x[pc] = t * s
        return x, self._den

    def solve(self, b: Vec) -> Vec | None:
        """The particular solution of ``m x = b``, or None when inconsistent."""
        den = lcm(*(x.denominator for x in b))
        sol = self.solve_ints([x.numerator * (den // x.denominator) for x in b])
        if sol is None:
            return None
        x, d = sol
        return tuple(Fraction(xi, d * den) if xi else ZERO for xi in x)


def int_faddeev(m: list[list[int]]) -> tuple[list[int], list[list[list[int]]]]:
    """The characteristic polynomial and adjugate of an integer n x n matrix
    m, by the Faddeev-LeVerrier recursion on ints.

    Returns ``(c, mats)`` with ``det(nu I - m) = sum(c[j] nu^j)`` (so
    ``c[n] = 1``) and ``adj(nu I - m) = sum(mats[k] nu^(n-1-k))``.  With
    ``M_1 = I``, each step forms ``m M_k``, whose trace gives ``c[n-k] =
    -tr(m M_k)/k``, an exact division, and ``M_(k+1) = m M_k + c[n-k] I``.
    At nu = 0 these read ``det(-m) = c[0]`` and ``adj(-m) = mats[n-1]``.
    """
    n = len(m)
    c = [0] * n + [1]
    mats = []
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mats.append(mk)
        cols = list(zip(*mk))
        prod = [[idot(row, col) for col in cols] for row in m]
        c[n - k] = -sum(prod[i][i] for i in range(n)) // k
        mk = [[x + c[n - k] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(prod)]
    return c, mats


def independent_rows(rows: list[list[int]], limit: int) -> list[int]:
    """Indices of the greedy first independent integer rows, at most ``limit``.

    One incremental elimination: a row reduced against the rows chosen so far
    is nonzero iff it is independent of them.  Each chosen row is stored
    reduced, so it is zero at the leading columns of the rows before it.
    """
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []
    for i, row in enumerate(rows):
        for c, e in echelon:
            f = row[c]
            if f:
                row = [e[c] * x - f * y for x, y in zip(row, e)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        g = gcd(*row)
        echelon.append((c, [x // g for x in row]))
        chosen.append(i)
        if len(chosen) == limit:
            break
    return chosen


def basis_of_span(vectors: Sequence[Vec], dim: int) -> list[Vec]:
    """An independent subset spanning the same subspace."""
    ints = [primitive_ints(v) for v in vectors]
    return [vectors[i] for i in independent_rows(ints, dim)]
