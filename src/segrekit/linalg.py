"""Exact dense linear algebra over the rationals.

No floating point anywhere.  ExactMatrix, the type for parsing and
output, holds fractions.Fraction entries (always lowest terms).  The work
itself is done by an integer core: a matrix is scaled once to d*A, with d
the lcm of its entry denominators, and from then on every kernel runs on
lists of rows of Python ints.  Products take inner products with
sum(map(mul, row, col)).  Ranks come from fraction-free Bareiss
elimination, recorded so that its row operations can be replayed on more
columns and its echelon back-substituted, which jordan's rank patterns
use; characteristic polynomials come from a Hessenberg reduction
modulo primes just below 2**62, combined by the Chinese remainder theorem
up to a Hadamard-type bound on the coefficients.  That polynomial is
monic, so its rational roots are integers; the same primes give its
square-free part by a modular gcd proven by exact division, whose roots
modulo a small prime are lifted p-adically, in time polynomial in the bit
size of the coefficients, and each root's multiplicity comes from
division by x - y until a remainder is left.  Every exactness the integer
arithmetic relies on is checked, and a failed check raises
InternalInconsistencyError, which python -O does not remove.  The public
functions taking an ExactMatrix are thin wrappers over these kernels.
"""

import itertools
import math
import re
import threading
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul


class InternalInconsistencyError(RuntimeError):
    """Two independent computations disagreed, or a division that exact
    arithmetic guarantees left a remainder; indicates a bug, not bad input."""


# the entry strings the README promises: an integer or "p/q", ASCII digits
# only (Fraction alone would also take decimals, exponents and padding)
_ENTRY_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:  # immutable: no copy needed
        return value
    if isinstance(value, float):
        raise TypeError(f"float entries are not exact, got {value!r}")
    if isinstance(value, bool):
        raise TypeError(f"entries must be numbers, got {value!r}")
    if isinstance(value, str) and not _ENTRY_TEXT.fullmatch(value):
        raise ValueError(
            f"entry strings must be an integer or 'p/q', got {value!r}")
    return Fraction(value)


def _integer(value, name: str, least: int | None = None) -> int:
    """`value` if it is an int, not a bool, and at least `least` (0 or 1,
    when given); otherwise ValueError naming it.  The one check for every
    count the library takes: n, parts, ranks, shapes, runs, columns."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and (least is None or value >= least)):
        return value
    kind = {None: "an integer", 0: "a non-negative integer",
            1: "a positive integer"}[least]
    raise ValueError(f"{name} must be {kind}, got {value!r}")


class ExactMatrix:
    """Immutable dense matrix with Fraction entries.

    Accepts ints, Fractions, and strings matching -?[0-9]+(/[0-9]+)? as
    entries; floats are rejected to keep every computation exact.
    """

    __slots__ = ("_rows", "_cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        _integer(rows, "rows", 1)
        _integer(cols, "cols", 1)
        es = tuple(_as_fraction(e) for e in entries)
        if len(es) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(es)}")
        self._rows = rows
        self._cols = cols
        self._entries = es

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
        return cls(n, n, (1 if i == j else 0
                          for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(_integer(rows, "rows", 1), _integer(cols, "cols", 1),
                   (0,) * (rows * cols))

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
            raise IndexError(f"({i}, {j}) outside {self._rows}x{self._cols}")
        return self._entries[i * self._cols + j]

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entry(*ij)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i * self._cols:(i + 1) * self._cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self._rows)]

    def __add__(self, other) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch in addition")
        return ExactMatrix(self._rows, self._cols,
                           (a + b for a, b in zip(self._entries, other._entries)))

    def __sub__(self, other) -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch in subtraction")
        return ExactMatrix(self._rows, self._cols,
                           (a - b for a, b in zip(self._entries, other._entries)))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return mat_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return ExactMatrix(self._rows, self._cols,
                               (e * other for e in self._entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self._rows == other._rows and self._cols == other._cols
                and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self._rows))
        return f"ExactMatrix({self._rows}x{self._cols}: {body})"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product: both operands are scaled to integers, multiplied
    by the integer kernel, and the product divided by the two scale factors."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    ia, da = _scaled_rows(a)
    ib, db = _scaled_rows(b)
    d = da * db
    return ExactMatrix(a.rows, b.cols, (Fraction(x, d)
                                        for row in _int_mat_mul(ia, ib)
                                        for x in row))


def shift(a: ExactMatrix, lam) -> ExactMatrix:
    """a - lam*I."""
    if not a.is_square:
        raise ValueError("shift requires a square matrix")
    lam = _as_fraction(lam)
    n = a.rows
    return ExactMatrix(n, n, (a.entry(i, j) - lam if i == j else a.entry(i, j)
                              for i in range(n) for j in range(n)))


def rank(a: ExactMatrix) -> int:
    """Exact rank: fraction-free (Bareiss) elimination of d*a, which has
    the rank of a."""
    return len(_eliminate(_scaled_rows(a)[0]))


# ---------------------------------------------------------------------------
# Integer kernels.  Matrices are lists of rows of Python ints; none of these
# functions creates a Fraction.

def _scaled_rows(a: ExactMatrix) -> tuple[list[list[int]], int]:
    """The rows of d*a as ints, and d, the lcm of the entry denominators."""
    es = a._entries
    d = math.lcm(*{e.denominator for e in es})
    if d == 1:
        flat = [e.numerator for e in es]
    else:
        flat = [e.numerator * (d // e.denominator) for e in es]
    c = a._cols
    return [flat[i:i + c] for i in range(0, len(flat), c)], d


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _eliminate(rows: list[list[int]]) -> list[tuple]:
    """Fraction-free (Bareiss) elimination of an integer matrix N, `rows`
    not modified, recorded so that its row operations T can be replayed on
    other columns.  The number of steps is the rank of N.

    Each step eliminates the first column of the active block against the
    first row with a nonzero entry there and divides by the previous pivot,
    which Sylvester's determinant identity makes exact, so entries stay
    integers no larger than minors of the input; rows that become zero
    (zero rows of N at the first step) leave the active block.  A step is
    (the pivot's position among the active rows, U's row from the pivot
    column on, the heads of the other active rows, the positions of the
    rows that became zero).  T is invertible, and T*N is the echelon U of
    the pivot rows over zero rows.  So for a column v, T*v splits into its
    top (the pivot rows) and its residual (the rest), and the residual is
    zero exactly when v lies in the column space im N.  Every division is
    checked.
    """
    active = list(rows)
    steps = []
    prev = 1
    while active and active[0]:
        heads = [row[0] for row in active]
        if not any(heads):
            active = [row[1:] for row in active]
            continue
        at = heads.index(next(filter(None, heads)))
        piv = heads.pop(at)
        pivot_row = active.pop(at)
        tail = pivot_row[1:]
        tail_sum = sum(tail)
        nxt, dropped = [], []
        for row, head in zip(active, heads):
            if prev == 1:
                vals = [x * piv - head * y for x, y in zip(row[1:], tail)]
            else:
                vals = [(x * piv - head * y) // prev
                        for x, y in zip(row[1:], tail)]
                # the numerators sum to piv*sum(row[1:]) - head*sum(tail);
                # floor remainders share the divisor's sign, so the
                # quotients sum to that over prev only if all are exact
                if (prev * sum(vals)
                        != piv * (sum(row) - head) - head * tail_sum):
                    raise InternalInconsistencyError(
                        "Bareiss division must be exact")
            if any(vals):
                nxt.append(vals)
            else:
                dropped.append(len(nxt) + len(dropped))
        steps.append((at, pivot_row, heads, dropped))
        active = nxt
        prev = piv
    return steps


def _replay(steps: list[tuple], v: list[int]) -> list[int]:
    """T*v for an integer column v, not modified, as its residual (the rows
    without a pivot, n - r of them) followed by its top (the pivot rows, in
    pivot order).  This is the elimination of N with v appended as a column
    that is never a pivot, so its divisions are Bareiss divisions too."""
    x, top, residual = list(v), [], []
    prev = 1
    for at, pivot_row, heads, dropped in steps:
        piv = pivot_row[0]
        xp = x.pop(at)
        top.append(xp)
        if prev == 1:
            x = [piv * y - h * xp for y, h in zip(x, heads)]
        else:
            total = piv * sum(x) - xp * sum(heads)
            x = [(piv * y - h * xp) // prev for y, h in zip(x, heads)]
            if prev * sum(x) != total:  # as in the elimination
                raise InternalInconsistencyError(
                    "Bareiss division must be exact")
        for i in reversed(dropped):
            residual.append(x.pop(i))
        prev = piv
    # rows are left in x only when N has no pivot, that is N = 0
    return residual + x + top


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


def _int_char_poly(b: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - b), lowest degree first, for a square integer
    matrix b: the coefficients mod the primes _prime(0), _prime(1), ... are
    combined by the Chinese remainder theorem with symmetric residues (von
    zur Gathen and Gerhard, Modern Computer Algebra, ch. 5) until the modulus
    exceeds 2 * prod_i (1 + ceil(|row_i(b)|_2)).  That is more than twice
    every |c_{n-k}|: c_{n-k} is a signed sum of the k x k principal minors,
    Hadamard bounds the minor on rows S by prod_{i in S} |row_i|, and those
    products sum to the k-th elementary symmetric function of the row norms,
    one of the nonnegative terms of prod_i (1 + |row_i|).
    """
    n = len(b)
    bound = 2
    for row in b:
        s = sum(x * x for x in row)
        if s:
            bound *= math.isqrt(s - 1) + 2  # 1 + ceil(sqrt(s))
    coeffs, modulus, i = [0] * (n + 1), 1, 0
    while modulus <= bound:
        p = _prime(i)
        i += 1
        coeffs = _crt(coeffs, modulus, _char_poly_mod(b, p), p)
        modulus *= p
    if coeffs[n - 1] != -sum(row[k] for k, row in enumerate(b)):
        raise InternalInconsistencyError(
            "characteristic polynomial must have c_{n-1} = -trace")
    return coeffs


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
    return PolynomialZ(_int_char_poly(_scaled_rows(a)[0]))


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
    SIAM J. Comput. 12, 1983) past twice the Cauchy bound 1 + max |g_i| on
    |y|; a symmetric residue within the bound, if g vanishes there, is y.
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
        q = p
        while q <= bound:
            q *= q
            v = dv = 0
            for c in reversed(g):  # g(y) and g'(y) modulo q
                dv = (dv * y + v) % q
                v = (v * y + c) % q
            y = (y - v * pow(dv, -1, q)) % q
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


def rational_eigenvalues(a: ExactMatrix) -> tuple[list[tuple[Fraction, int]], int]:
    """Eigenvalues of a lying in Q, with algebraic multiplicities, ascending.

    The second value is the degree of the characteristic polynomial factor
    whose roots are irrational or complex (0 when all eigenvalues are
    rational).  The roots of char_poly(a) are those of d*a, so each is
    divided by the clearing factor d.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    b, d = _scaled_rows(a)
    roots, remainder = _rational_roots(_int_char_poly(b))
    return sorted((Fraction(mu, d), mult) for mu, mult in roots), remainder


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
        raise ValueError(f'"entries" must be a list of {rows} rows')
    flat = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {i} must be a list of {cols} entries")
        for j, e in enumerate(row):
            if isinstance(e, bool) or not isinstance(e, (int, str)):
                raise ValueError(
                    f"entry ({i}, {j}) must be an integer or 'p/q' string, got {e!r}")
            try:
                flat.append(_as_fraction(e))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"entry ({i}, {j}) is not a valid fraction: {e!r}") from exc
    return ExactMatrix(rows, cols, flat)
