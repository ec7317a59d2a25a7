"""Exact dense linear algebra over the rationals.

No floating point anywhere.  An ExactMatrix A is stored as d*A, rows of
Python ints, with d >= 1 the least common denominator of its entries, so
that d and the entries share no factor; a Fraction is made only to parse
a "p/q" entry or to hand an entry or an eigenvalue back.  Every kernel
runs on the integer rows.  Products take inner products with
sum(map(mul, row, col)).  Ranks come from fraction-free Bareiss
elimination done column by column, each column replayed through the
steps recorded so far, where a step with a zero multiplier only defers a
rescale; rank patterns replay more columns through the same record and
back-substitute its echelon.
Characteristic polynomials come from a Hessenberg reduction
modulo primes just below 2**62, combined by the Chinese remainder theorem
up to a Hadamard-type bound on the coefficients, which proves them; each
reconstruction that differs from the one before it and meets the trace is
a candidate, which _spectrum accepts only when the rank patterns of its
roots certify it.  The polynomial is monic, so its rational roots are
integers; the same primes give its square-free part by a modular gcd
proven by exact division, whose roots modulo a small prime are lifted
p-adically, in time polynomial in the bit size of the coefficients, and
each root's multiplicity comes from division by x - y until a remainder
is left.
Every exactness the integer arithmetic relies on is checked, and a failed
check raises InternalInconsistencyError, which python -O does not remove.
The public functions taking an ExactMatrix are thin wrappers over these
kernels.
"""

import itertools
import math
import re
import threading
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

from .partitions import InternalInconsistencyError, _integer, _shown


# the entry strings the README promises: an integer or "p/q", ASCII digits
# only (Fraction alone would also take decimals, exponents and padding)
_ENTRY_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _ratio(value) -> tuple[int, int]:
    """An entry, shift or scalar factor as (p, q) in lowest terms, q >= 1:
    an int, a Fraction, a string matching _ENTRY_TEXT, or another number
    that Fraction reads exactly; a float or a bool raises TypeError."""
    if type(value) in (int, Fraction):
        return value.as_integer_ratio()
    if isinstance(value, float):
        raise TypeError(f"float entries are not exact, got {_shown(value)}")
    if isinstance(value, bool):
        raise TypeError(f"entries must be numbers, got {_shown(value)}")
    if isinstance(value, str):
        if not _ENTRY_TEXT.fullmatch(value):
            raise ValueError("entry strings must be an integer or 'p/q', "
                             f"got {_shown(value)}")
        try:
            return Fraction(value).as_integer_ratio()
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError("entry string too long to read") from None
    return Fraction(value).as_integer_ratio()


class ExactMatrix:
    """Immutable dense matrix of rationals, stored as d times itself: rows
    of ints and the least common denominator d of the entries.

    Accepts ints, Fractions, and strings matching -?[0-9]+(/[0-9]+)? as
    entries; floats are rejected to keep every computation exact.  Entries
    are read back as Fractions.
    """

    __slots__ = ("_rows", "_cols", "_d", "_ints")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        _integer(rows, "rows", 1)
        _integer(cols, "cols", 1)
        es = [_ratio(e) for e in entries]
        if len(es) != rows * cols:
            raise ValueError(f"expected {_shown(rows * cols)} entries for "
                             f"{_shown(rows)}x{_shown(cols)}, got {len(es)}")
        self._store(rows, cols, es)

    def _store(self, rows: int, cols: int, es: list) -> "ExactMatrix":
        """Fill self, and return it, from rows*cols (p, q) pairs in lowest
        terms, q >= 1, in row order."""
        # over the lcm of lowest-terms denominators no common factor is left
        d = math.lcm(*{q for _, q in es})
        flat = tuple(p * (d // q) for p, q in es)
        self._rows, self._cols, self._d = rows, cols, d
        self._ints = tuple(flat[i:i + cols] for i in range(0, len(flat), cols))
        return self

    @classmethod
    def _from_ints(cls, ints: Sequence[Sequence[int]], d: int) -> "ExactMatrix":
        """The matrix ints / d, for nonempty rows of ints of equal length
        and an int d >= 1, with the common factor of d and ints removed."""
        g = math.gcd(d, *itertools.chain.from_iterable(ints)) if d > 1 else 1
        self = object.__new__(cls)
        self._rows, self._cols, self._d = len(ints), len(ints[0]), d // g
        self._ints = tuple(tuple(x // g for x in row) if g > 1 else tuple(row)
                           for row in ints)
        return self

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "ExactMatrix":
        rows_data = [list(r) for r in rows_data]
        if not rows_data:
            raise ValueError("at least one row required")
        width = len(rows_data[0])
        for r in rows_data:
            if len(r) != width:
                raise ValueError("ragged rows: all rows must have equal length")
        return cls(len(rows_data), width,
                   (e for row in rows_data for e in row))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        _integer(n, "n", 1)  # before range(n) can raise a TypeError
        return cls._from_ints([[int(i == j) for j in range(n)]
                               for i in range(n)], 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        _integer(rows, "rows", 1)
        return cls._from_ints([(0,) * _integer(cols, "cols", 1)] * rows, 1)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def entry(self, i: int, j: int) -> Fraction:
        """0-based access."""
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(f"({_shown(i)}, {_shown(j)}) outside "
                             f"{self._rows}x{self._cols}")
        return Fraction(self._ints[i][j], self._d)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entry(*ij)

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self._rows:
            raise IndexError(
                f"row {_shown(i)} outside {self._rows}x{self._cols}")
        d = self._d
        return tuple(Fraction(x, d) for x in self._ints[i])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self._rows)]

    def _plus(self, other, sign: int, what: str) -> "ExactMatrix":
        # self + sign * other over the lcm of the two d
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError(f"shape mismatch in {what}")
        d = math.lcm(self._d, other._d)
        ka, kb = d // self._d, sign * (d // other._d)
        return ExactMatrix._from_ints(
            [[ka * x + kb * y for x, y in zip(r, s)]
             for r, s in zip(self._ints, other._ints)], d)

    def __add__(self, other) -> "ExactMatrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other) -> "ExactMatrix":
        return self._plus(other, -1, "subtraction")

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return mat_mul(self, other)
        if isinstance(other, (int, Fraction, str)):
            p, q = _ratio(other)  # a bool raises here
            return ExactMatrix._from_ints(
                [[p * x for x in row] for row in self._ints], q * self._d)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._d == other._d and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self._d, self._ints))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self._rows))
        return f"ExactMatrix({self._rows}x{self._cols}: {body})"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product: the integer product of d_a*a and d_b*b, over
    d_a*d_b."""
    if not (isinstance(a, ExactMatrix) and isinstance(b, ExactMatrix)):
        raise TypeError(f"mat_mul needs two ExactMatrix operands, got "
                        f"{type(a).__name__} and {type(b).__name__}")
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return ExactMatrix._from_ints(_int_mat_mul(a._ints, b._ints), a._d * b._d)


def shift(a: ExactMatrix, lam) -> ExactMatrix:
    """a - lam*I."""
    if not a.is_square:
        raise ValueError("shift requires a square matrix")
    p, q = _ratio(lam)
    rows = [[q * x for x in row] for row in a._ints]
    for i, row in enumerate(rows):
        row[i] -= p * a._d
    return ExactMatrix._from_ints(rows, q * a._d)


def rank(a: ExactMatrix) -> int:
    """Exact rank: fraction-free (Bareiss) elimination of d*a, which has
    the rank of a."""
    return len(_eliminate(a._ints))


# ---------------------------------------------------------------------------
# Integer kernels.  Matrices are sequences of rows of Python ints; none of
# these functions creates a Fraction.

def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _eliminate(rows: list[list[int]]) -> list[tuple]:
    """Fraction-free (Bareiss) elimination of an integer matrix N, `rows`
    not modified, recorded so that its row operations T can be replayed on
    other columns.  The number of steps is the rank of N.

    The elimination is left-looking: each column of N in turn is replayed
    through the steps recorded so far, its top extends the pivot rows of U,
    and the first nonzero entry of its residual, if any, becomes the next
    pivot, the rest of the residual that step's heads.  A step is (the
    pivot's position among the rows without a pivot yet, U's row from the
    pivot column on, the heads, their sum).  T is invertible, and T*N is
    the echelon U of the pivot rows over zero rows.  So for a column v, T*v
    splits into its residual (the rows without a pivot) and its top (the
    pivot rows), and the residual is zero exactly when v lies in the
    column space im N.
    """
    steps = []
    for column in zip(*rows):
        x = _replay(steps, column)
        k = len(x) - len(steps)
        for (_, pivot_row, _, _), y in zip(steps, x[k:]):
            pivot_row.append(y)
        del x[k:]
        if any(x):
            at = x.index(next(filter(None, x)))
            pivot = x.pop(at)
            steps.append((at, [pivot], x, sum(x)))
    return steps


def _replay(steps: list[tuple], v: Sequence[int]) -> list[int]:
    """T*v for an integer column v, not modified, as its residual (the rows
    without a pivot, n - r of them) followed by its top (the pivot rows, in
    pivot order).  This is the elimination of N with v appended as a column
    that is never a pivot: each step divides by the previous pivot, which
    Sylvester's determinant identity makes exact, so every entry is a minor
    of [N | v].  Every division is checked.

    A step whose multiplier x_at is zero only scales x by piv/prev, so it
    is deferred: x is left as it was after the last step with a nonzero
    multiplier, whose pivot is `base`, and the steps so far give
    x*prev/base.  The next nonzero step divides by base instead of prev,
    which is the same exact quotient, and the pending scale is applied
    once, at the end.  A run of zero multipliers then costs no pass over
    x at all."""
    x, top = list(v), []
    prev = base = 1
    for at, pivot_row, heads, heads_sum in steps:
        piv = pivot_row[0]
        xp = x.pop(at)
        if not xp:
            top.append(0)
            prev = piv
            continue
        # the entry after the steps so far; x itself lags behind them
        entry, rem = divmod(xp * prev, base)
        top.append(entry)
        if base == 1:
            x = [piv * y - h * xp for y, h in zip(x, heads)]
            s = sum(x)  # the sum of x, kept for the next step's check
        else:
            total = piv * (s - xp) - xp * heads_sum
            x = [(piv * y - h * xp) // base for y, h in zip(x, heads)]
            s = sum(x)
            # floor remainders share the divisor's sign, so the quotients
            # sum to the numerators' sum over base only if all are exact
            if rem or base * s != total:
                raise InternalInconsistencyError(
                    "Bareiss division must be exact")
        prev = base = piv
    if prev != base:
        x = [y * prev // base for y in x]
        if base != 1 and base * sum(x) != prev * s:
            raise InternalInconsistencyError("Bareiss division must be exact")
    return x + top


def _back_substitute(steps: list[tuple], x: list[int],
                     rhs: list[int]) -> list[int]:
    """x, whose free entries are set, with its pivot entries filled in so
    that U*x = rhs, made primitive."""
    n = len(x)
    for (_, row, _, _), b in zip(reversed(steps), reversed(rhs)):
        c = n - len(row)
        q, rem = divmod(b - sum(map(mul, row[1:], x[c + 1:])), row[0])
        if rem:
            raise InternalInconsistencyError(
                "back-substitution must divide exactly")
        x[c] = q
    return _primitive(x)


def _kernel(steps: list[tuple], n: int) -> list[list[int]]:
    """A basis of ker N, N n x n: for each free column f, the primitive
    multiple of the solution of U*x = 0 with x_f = D, the last pivot, and
    the other free entries 0."""
    d = steps[-1][1][0] if steps else 1
    pivots = {n - len(step[1]) for step in steps}
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [0] * n
            x[f] = d
            basis.append(_back_substitute(steps, x, [0] * len(steps)))
    return basis


def _preimage(steps: list[tuple], n: int, top: list[int]) -> list[int]:
    """A primitive integer w with N*w a nonzero multiple of u, given the top
    of T*u for a nonzero integer column u in im N.  The last pivot D is the
    r x r minor of N on the pivot rows and columns, so by Cramer's rule
    back-substitution on U with right side D*top stays integral."""
    d = steps[-1][1][0]
    return _back_substitute(steps, [0] * n, [d * y for y in top])


def _rank_pattern(b: list[list[int]], mu: int, m: int) -> list[int]:
    """Ranks of (b - mu*I)^k for an integer matrix b, k = 0, 1, ... until
    the nullity n - r reaches m or the rank repeats.

    One recorded elimination of N = b - mu*I gives r_1 and a basis of
    ker N; no power of N is formed.  The kernels V_k = ker N^k are climbed
    as a ladder: V_{k+1} is V_k plus one preimage under N of each new
    direction of V_k inside im N.  Each vector of level k is replayed once
    through the elimination, and its residual is reduced against those of
    the vectors before it by integer row operations on whole replays,
    which carry the coefficients of the combination along.  Each reduced
    row, coefficients included, is made primitive, so it is the primitive
    part of the row of fraction-free (Bareiss) reduction, with entries no
    larger than minors of the replays.  A residual that reduces to zero
    marks an integer combination u of those vectors in im N, and the top
    that comes with it is that of u's replay, which back-substitution
    turns into a vector of level k + 1.  So the increment q_{k+1} of the
    nullity is the number of level-k residuals that reduce to zero, and a
    pattern costs O(n^3 + m*n^2) instead of one product and one
    elimination per power.  Every nullity is counted, never inferred from
    m, and an increment that grows raises InternalInconsistencyError.

    With m the algebraic multiplicity of mu, the nullity grows to m and
    stays there, so stopping at m saves the level that would only confirm
    it; m = n stops at rank 0 or at a repeat, the whole stabilized pattern.
    The pattern stays a check on m: an m above the multiplicity is never
    reached, and an m below it puts another eigenvalue's m above, as the m
    of a rational spectrum sum to n; _spectrum then tries the next candidate.
    """
    shifted = [list(row) for row in b]
    for i, row in enumerate(shifted):
        row[i] -= mu
    n = len(b)
    steps = _eliminate(shifted)
    d = q = d1 = n - len(steps)
    ranks = [n, len(steps)] if d else [n]
    level = _kernel(steps, n) if d < m else []
    # (pivot, row): rows [residual | top | coefficients], made primitive,
    # whose residual stayed nonzero.  `count` vectors have been replayed,
    # fewer than m, as they are independent and replayed only while the
    # nullity is below m.
    found, count = [], 0
    while level:
        tops = []
        for v in level:
            row = _replay(steps, v) + [0] * m
            row[n + count] = 1
            count += 1
            for p, other in found:
                c = row[p]
                if c:
                    a = other[p]
                    row = _primitive([a * x - c * y
                                      for x, y in zip(row, other)])
            if any(row[:d1]):
                found.append((row.index(next(filter(None, row))), row))
            else:
                tops.append(row[d1:n])
        if len(tops) > q:
            raise InternalInconsistencyError(
                f"nullity increment grew from {q} to {len(tops)}")
        q = len(tops)
        if q:
            d += q
            ranks.append(n - d)
        level = [_preimage(steps, n, top) for top in tops] if d < m else []
    return ranks


# The largest primes below 2**62, descending.  Only ever extended, and only
# under _PRIMES_LOCK, so a reader that sees len(_PRIMES) > i can index it
# unlocked.  The first eight are written out, because finding them by
# Miller-Rabin takes about 2 ms per process, as long as a whole 16 x 16
# characteristic polynomial; the tests find them again.
_PRIMES: list[int] = [2 ** 62 - d
                      for d in (57, 87, 117, 143, 153, 167, 171, 195)]
_PRIMES_LOCK = threading.Lock()
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 primes as bases, which is proven
    deterministic for n < 3.18*10**23 (Sorenson and Webster 2015), far above
    every candidate here."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The (i+1)-th largest prime below 2**62: 2**62 - 57 for i = 0."""
    if i >= len(_PRIMES):
        with _PRIMES_LOCK:
            c = _PRIMES[-1] if _PRIMES else 2 ** 62 + 1
            while len(_PRIMES) <= i:
                c -= 2
                if _is_prime(c):
                    _PRIMES.append(c)
    return _PRIMES[i]


def _char_poly_mod(b: list[list[int]], p: int) -> list[int]:
    """Coefficients of det(xI - b) mod p, lowest degree first, in [0, p).

    b is reduced mod p to upper Hessenberg form H by similarity: for each
    column m-1 a pivot at or below the subdiagonal is swapped into row m
    (rows and columns together), the entries below it are cleared by row
    operations, and the inverse column operations go into column m.  A column
    already zero from the subdiagonal down is skipped.  Then p_0 = 1 and
    p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i
    gives p_n = det(xI - H) (Cohen, GTM 138, Alg. 2.2.9).
    """
    n = len(b)
    h = [[x % p for x in row] for row in b]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        top = h[m][m - 1:]
        us = [0] * (n - m - 1)
        for i in range(m + 1, n):
            row = h[i]
            if row[m - 1]:
                u = us[i - m - 1] = row[m - 1] * inv % p
                row[m - 1:] = [(x - u * y) % p for x, y in zip(row[m - 1:], top)]
        if any(us):
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
    polys = [[1]]
    for m in range(n):
        last = polys[-1]
        c = h[m][m]
        new = [-c * last[0]] + [x - c * y for x, y in zip(last, last[1:])] + [1]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = h[i][m] * t
            if c:
                new[:i + 1] = [x - c * y for x, y in zip(new, polys[i])]
        polys.append([x % p for x in new])
    return polys[n]


def _crt(xs: list[int], modulus: int, rs: list[int], p: int) -> list[int]:
    """The integers in (-modulus*p/2, modulus*p/2] congruent to xs modulo
    `modulus` and to rs modulo the prime p."""
    inv, m = pow(modulus, -1, p), modulus * p
    ys = (x + modulus * ((r - x) * inv % p) for x, r in zip(xs, rs))
    return [y - m if y > m // 2 else y for y in ys]


def _char_polys(b: list[list[int]]) -> Iterator[list[int]]:
    """Candidates for the coefficients of det(xI - b), lowest degree first,
    for a square integer matrix b, the last of them proven.

    The coefficients mod the primes _prime(0), _prime(1), ... are combined
    by the Chinese remainder theorem with symmetric residues (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5).  A reconstruction
    unlike the one before is yielded only if its c_{n-1} is -trace(b), as
    that of det(xI - b) is; the proven one, once the modulus exceeds
    2 * prod_i (1 + ceil(|row_i(b)|_2)), raises InternalInconsistencyError
    if not.  The bound is more than twice every |c_{n-k}|: c_{n-k} is a
    signed sum of the k x k principal minors, Hadamard bounds the minor on
    rows S by prod_{i in S} |row_i|, and those products sum to the k-th
    elementary symmetric function of the row norms, one of the nonnegative
    terms of prod_i (1 + |row_i|).  An earlier candidate is the answer only
    if the caller certifies it.  None comes twice: one that changed was not
    congruent to the answer modulo the next modulus, and every later one is.
    """
    n = len(b)
    minus_trace = -sum(row[k] for k, row in enumerate(b))
    bound = 2
    for row in b:
        s = sum(x * x for x in row)
        if s:
            bound *= math.isqrt(s - 1) + 2  # 1 + ceil(sqrt(s))
    coeffs, modulus = [0] * (n + 1), 1  # monic, so unlike any reconstruction
    for p in map(_prime, itertools.count()):
        new = _crt(coeffs, modulus, _char_poly_mod(b, p), p)
        modulus *= p
        if new[n - 1] != minus_trace:
            if modulus > bound:
                raise InternalInconsistencyError(
                    "characteristic polynomial must have c_{n-1} = -trace")
        elif new != coeffs:
            yield new
        if modulus > bound:
            break
        coeffs = new


class PolynomialZ:
    """Polynomial with integer coefficients, stored lowest-degree first.

    Coefficients must be ints, not bools.  Trailing zero coefficients are
    trimmed; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        cs = [_integer(c, "coefficient") for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolynomialZ):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"PolynomialZ({list(self._coeffs)!r})"


def char_poly(a: ExactMatrix) -> PolynomialZ:
    """Characteristic polynomial det(xI - B) of B = d*a, the input with
    denominators cleared (d = 1 for integer matrices, so then it is the
    characteristic polynomial of a itself).

    The result is monic with integer coefficients: the characteristic
    polynomial of B mod several primes, from its Hessenberg form, combined
    by the Chinese remainder theorem.
    Roots of the result are d times the eigenvalues of a;
    rational_eigenvalues performs the unscaling.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    *_, proven = _char_polys(a._ints)
    return PolynomialZ(proven)


def _horner(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _primitive(p: list[int]) -> list[int]:
    """p divided by the positive gcd of its coefficients."""
    c = math.gcd(*p)
    return p if c == 1 else [x // c for x in p]


def _divide(f: list[int], h: list[int]) -> tuple[list[int], list[int]]:
    """The quotient and the remainder of the integer polynomial f divided by
    the monic integer h, the remainder as len(h) - 1 coefficients at most."""
    d = len(h) - 1
    rest = list(f)
    q = [0] * (len(f) - d)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = rest[k + d]
        for i in range(d):
            rest[k + i] -= c * h[i]
    return q, rest[:d]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of the monic a and of b modulo the prime p, lowest
    degree first, by Euclid's algorithm."""
    a = [x % p for x in a]
    b = [x % p for x in b]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        rest = _divide(a, [x * inv % p for x in b])[1]
        a, b = b, [x % p for x in rest]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _integer_roots(f: list[int]) -> list[int]:
    """The distinct integer roots of the monic integer polynomial f of degree
    at least 1, in no particular order.

    They are the roots of g = f / h, h = gcd(f, f'), each simple.  h is
    monic and integral, and modulo any prime it divides the gcd there, so
    no prime gives fewer terms: Brown's modular gcd (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 6) combines by CRT the gcds
    modulo _prime(0), _prime(1), ... of the fewest terms seen, until they
    divide f and f' exactly.  Modulo the smallest prime p with
    gcd(g, g') = 1 there, an integer root y of g is a simple root, found by
    trial modulo p and lifted by Newton's iteration modulo p^(2^k) (Loos,
    SIAM J. Comput. 12, 1983), with 1/g'(y) lifted along, past twice the
    Cauchy bound 1 + max |g_i| on |y|; a symmetric residue within the
    bound, if g vanishes there, is y.
    """
    df = [i * c for i, c in enumerate(f) if i]
    h, modulus = f, 1  # more terms than any gcd of f and f'
    for i in itertools.count():
        p = _prime(i)
        r = _gcd_mod(f, df, p)
        if len(r) < len(h):
            h, modulus = r, 1
        if len(r) == len(h):  # else p is unlucky
            h = _crt(h, modulus, r, p)
            modulus *= p
            g, rest = _divide(f, h)
            if not any(rest) and not any(_divide(df, h)[1]):
                break
    dg = [i * c for i, c in enumerate(g) if i]
    p = next(q for q in itertools.count(2)
             if _is_prime(q) and len(_gcd_mod(g, dg, q)) == 1)
    bound = 2 * (1 + max(map(abs, g[:-1])))
    g_p = [c % p for c in g]
    roots = []
    for y in range(p):
        if _horner(g_p, y) % p:
            continue
        q, s = p, pow(_horner(dg, y), -1, p)
        while q <= bound:
            q *= q
            v = dv = 0
            for c in reversed(g):  # g(y) and g'(y) modulo q
                dv = (dv * y + v) % q
                v = (v * y + c) % q
            # y is a root mod r = q^(1/2), s is 1/g'(y) mod r^(1/2); a Newton
            # step for the inverse makes s 1/g'(y) mod r, all y's step needs
            s = s * (2 - dv * s) % q
            y = (y - v * s) % q
        if y > q // 2:
            y -= q
        if 2 * abs(y) <= bound and _horner(g, y) == 0:
            roots.append(y)
    return roots


def _rational_roots(f: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The rational roots of the monic integer polynomial f of degree at
    least 1 (lowest degree first) as (root, multiplicity), in no particular
    order, plus the degree of the rootless factor left over.

    By the rational root theorem every rational root of a monic integer
    polynomial is an integer.  Those integers, 0 among them, are found by
    p-adic lifting from the square-free part of f (_integer_roots), in time
    polynomial in the bit size of the coefficients.  Each root y is divided
    out of f as often as x - y leaves no remainder, which gives its
    multiplicity.
    """
    roots = []
    for y in _integer_roots(f):
        mult = 0
        while True:
            q, (r,) = _divide(f, [-y, 1])
            if r:
                break
            f, mult = q, mult + 1
        if not mult:
            raise InternalInconsistencyError(
                f"the root search found {y}, which is not a root of f")
        roots.append((y, mult))
    return roots, len(f) - 1


def _spectrum(b: list[list[int]]) -> tuple[list[tuple[int, list[int]]], int]:
    """The integer eigenvalues mu of a square integer matrix b, ascending,
    each with the ranks of (b - mu*I)^k up to its multiplicity m
    (_rank_pattern), and 0; or [] and the degree of the rootless factor of
    det(xI - b), if it has one.

    _spectrum tries the next candidate of _char_polys until one splits
    over the integers and every mu's nullity reaches its m.  That
    certifies it: the generalized eigenspaces then fill Q^n, so the
    polynomial is prod (x - mu)^m.  The last candidate is proven, so a
    nullity that misses its m there raises InternalInconsistencyError.
    """
    n = len(b)
    for coeffs in _char_polys(b):
        roots, remainder = _rational_roots(coeffs)
        if remainder:
            continue
        spectrum = []
        for mu, m in sorted(roots):
            ranks = _rank_pattern(b, mu, m)
            if n - ranks[-1] != m:
                break
            spectrum.append((mu, ranks))
        else:
            return spectrum, 0
    if remainder:
        return [], remainder
    raise InternalInconsistencyError(
        f"eigenvalue {mu} has multiplicity {m} but nullity {n - ranks[-1]}")


def rational_eigenvalues(a: ExactMatrix) -> tuple[list[tuple[Fraction, int]], int]:
    """Eigenvalues of a lying in Q, with algebraic multiplicities, ascending.

    The second value is the degree of the characteristic polynomial factor
    whose roots are irrational or complex (0 when all eigenvalues are
    rational).  The roots of char_poly(a) are those of d*a, so each is
    divided by the clearing factor d.
    """
    roots, remainder = _rational_roots(list(char_poly(a).coefficients))
    return sorted((Fraction(mu, a._d), mult) for mu, mult in roots), remainder


def matrix_from_json_dict(data) -> ExactMatrix:
    """Matrix from {"rows": n, "cols": m, "entries": [[...], ...]}, validated.

    "rows" and "cols" must be integers >= 1.  Entries must be JSON integers
    or "p", "-p", "p/q", "-p/q" strings of ASCII digits; floats are
    rejected because they are not exact.
    """
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"rows", "cols", "entries"} - data.keys()
    if missing:
        raise ValueError(f"matrix JSON missing keys: {sorted(missing)}")
    rows = _integer(data["rows"], '"rows"', 1)
    cols = _integer(data["cols"], '"cols"', 1)
    entries = data["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError(f'"entries" must be a list of {_shown(rows)} rows')
    flat = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(
                f"row {i} must be a list of {_shown(cols)} entries")
        for j, e in enumerate(row):
            if isinstance(e, bool) or not isinstance(e, (int, str)):
                raise ValueError(f"entry ({i}, {j}) must be an integer or "
                                 f"'p/q' string, got {_shown(e)}")
            try:
                p, q = _ratio(e)
            except (ValueError, ZeroDivisionError) as exc:
                # text in the grammar fails only on q = 0 or on its length
                long = isinstance(exc, ValueError) and _ENTRY_TEXT.fullmatch(e)
                problem = "too long to read" if long else "not a valid fraction"
                raise ValueError(
                    f"entry ({i}, {j}) is {problem}: {_shown(e)}") from exc
            flat.append((p, q))
    return object.__new__(ExactMatrix)._store(rows, cols, flat)
