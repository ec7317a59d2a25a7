"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the package: recursive
partition enumeration instead of the iterative generator, a coin-change
table instead of Euler's pentagonal recurrence, division-based Gaussian
elimination over Fraction instead of fraction-free Bareiss on integers,
every power of b - mu*I with an unrecorded Bareiss rank of each instead of
one recorded elimination and a ladder of kernels that back-substitutes,
polynomial convolution and interpolation of determinants, and the
Faddeev-LeVerrier recurrence over the integers, instead of Hessenberg
reduction modulo primes and the Chinese remainder theorem, trial division
instead of Miller-Rabin, Fraction arithmetic throughout instead of one
denominator-clearing scale, the rational root theorem's divisor candidates
instead of a modular gcd and p-adic lifting, brute-force multiset
collection instead of generating-function or recursive counting,
deduplication and a global sort instead of canonical generation in order.
"""

import itertools
import math
from fractions import Fraction


def naive_partitions(n, max_part=None):
    """All partitions of n as descending tuples, by simple recursion."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in naive_partitions(n - k, k):
            yield (k,) + rest


def naive_partition_count(n):
    return sum(1 for _ in naive_partitions(n))


def partition_count_table(n):
    """[p(0), ..., p(n)] by the coin-change recurrence over part sizes."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table


def conjugate_by_transpose(parts):
    """Conjugate computed by literally transposing a 0/1 Ferrers matrix."""
    parts = tuple(parts)
    if not parts:
        return ()
    rows = len(parts)
    cols = parts[0]
    ferrers = [[1 if c < parts[r] else 0 for c in range(cols)]
               for r in range(rows)]
    transposed = [[ferrers[r][c] for r in range(rows)] for c in range(cols)]
    return tuple(sum(row) for row in transposed)


def canonical_groups(groups):
    """Canonical ordering used for multiset comparison of group tuples."""
    return tuple(sorted((tuple(g) for g in groups),
                        key=lambda g: (-sum(g), tuple(-x for x in g))))


def brute_force_segre_multisets(n):
    """Every distinct multiset of partitions of total weight n."""
    out = set()
    for outer in naive_partitions(n):
        pools = [list(naive_partitions(a)) for a in outer]
        for combo in itertools.product(*pools):
            out.add(canonical_groups(combo))
    return out


def multipartitions(outer):
    """Every tuple of partitions whose i-th member has weight outer[i],
    group order kept and duplicates (up to group order) not removed: the
    product of p(a) over the parts a of outer."""
    return list(itertools.product(*(list(naive_partitions(a)) for a in outer)))


def segre_by_dedup_and_sort(n):
    """The canonical group tuples of weight n in enumeration order, built the
    slow way: canonicalize every multipartition, drop duplicates through a
    set, then sort by the flattened partition (largest first) and the
    canonical group sequence (groups by descending weight, then parts)."""
    distinct = {canonical_groups(m) for outer in naive_partitions(n)
                for m in multipartitions(outer)}

    def key(groups):
        flat = sorted((p for g in groups for p in g), reverse=True)
        return ([-p for p in flat],
                [(-sum(g), [-p for p in g]) for g in groups])

    return sorted(distinct, key=key)


def poly_mul(a, b):
    """Convolution of integer coefficient lists (lowest degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_from_linear_factors(roots):
    """Expand prod (x - r) over an iterable of integer roots."""
    acc = [1]
    for r in roots:
        acc = poly_mul(acc, [-r, 1])
    return acc


def gaussian_rank(rows):
    """Rank by plain division-based Gaussian elimination over Fraction."""
    m = [[Fraction(e) for e in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        for i in range(r + 1, nrows):
            if m[i][col]:
                factor = m[i][col] / pr[col]
                m[i] = [a - factor * b for a, b in zip(m[i], pr)]
        r += 1
        if r == nrows:
            break
    return r


def min_formula_ranks(blocks, n):
    """r_k = n - sum_i min(b_i, k), k = 0..max(blocks); the closed form."""
    top = max(blocks) if blocks else 0
    return tuple(n - sum(min(b, k) for b in blocks) for k in range(top + 1))


def fraction_mat_mul(a, b):
    """Product of two matrices given as lists of rows, by the textbook
    triple loop over Fraction."""
    k, m = len(b), len(b[0])
    bcols = [[b[t][j] for t in range(k)] for j in range(m)]
    return [[sum(ar[t] * bc[t] for t in range(k)) for bc in bcols] for ar in a]


def fraction_rank_pattern(rows, lam):
    """Ranks of (A - lam*I)^k, k = 0, 1, ... until they stabilize, with the
    shift, the powers and the ranks all computed over Fraction."""
    n = len(rows)
    shifted = [[Fraction(e) - lam if i == j else Fraction(e)
                for j, e in enumerate(row)] for i, row in enumerate(rows)]
    ranks = [n]
    power = shifted
    while True:
        r = gaussian_rank(power)
        if r == ranks[-1]:
            break
        ranks.append(r)
        if r == 0:
            break
        power = fraction_mat_mul(power, shifted)
    return tuple(ranks)


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free (Bareiss) elimination that
    keeps no record: each step eliminates the first column of the active
    block, rows that become zero leave it, and every division by the
    previous pivot is checked."""
    active = [row for row in rows if any(row)]
    r, prev = 0, 1
    while active and active[0]:
        at = next((i for i, row in enumerate(active) if row[0]), None)
        if at is None:
            active = [row[1:] for row in active]
            continue
        pivot_row = active.pop(at)
        piv, tail = pivot_row[0], pivot_row[1:]
        r += 1
        nxt = []
        for row in active:
            vals = []
            for x, y in zip(row[1:], tail):
                q, rem = divmod(x * piv - row[0] * y, prev)
                if rem:
                    raise ArithmeticError("Bareiss division must be exact")
                vals.append(q)
            if any(vals):
                nxt.append(vals)
        active = nxt
        prev = piv
    return r


def rank_pattern_by_powers(b, mu, m):
    """Ranks of (b - mu*I)^k for an integer matrix b, k = 0, 1, ... until
    the nullity n - r reaches m or the rank repeats: every power of
    N = b - mu*I is formed by integer products and its rank taken by
    bareiss_rank."""
    n = len(b)
    shifted = [[x - mu if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(b)]
    cols = list(zip(*shifted))
    ranks = [n]
    power = shifted
    while True:
        r = bareiss_rank(power)
        if r == ranks[-1]:
            break
        ranks.append(r)
        if n - r >= m:
            break
        power = [[sum(x * y for x, y in zip(row, col)) for col in cols]
                 for row in power]
    return ranks


def fraction_det(rows):
    """Determinant by division-based elimination over Fraction."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pr = m[col]
        det *= pr[col]
        for i in range(col + 1, n):
            if m[i][col]:
                factor = m[i][col] / pr[col]
                m[i] = [a - factor * b for a, b in zip(m[i], pr)]
    return det


def char_poly_by_interpolation(rows):
    """Coefficients of det(xI - A), lowest degree first, as Fractions:
    det(tI - A) at t = 0..n, interpolated by Lagrange's formula."""
    n = len(rows)
    points = range(n + 1)
    values = [fraction_det([[(t if i == j else 0) - Fraction(e)
                             for j, e in enumerate(row)]
                            for i, row in enumerate(rows)])
              for t in points]
    coeffs = [Fraction(0)] * (n + 1)
    for j in points:
        basis, denom = [1], 1
        for k in points:
            if k != j:
                basis = poly_mul(basis, [-k, 1])
                denom *= j - k
        for i, c in enumerate(basis):
            coeffs[i] += values[j] * c / denom
    return coeffs


def faddeev_leverrier_char_poly(b):
    """Coefficients of det(xI - b), lowest degree first, for a square integer
    matrix b, by the Faddeev-LeVerrier recurrence: M_1 = b, c_{n-1} =
    -tr(M_1), M_k = b(M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k.  Every
    division by k is exact over the integers, and is checked."""
    n = len(b)
    coeffs = [0] * n + [1]
    mk = b
    coeffs[n - 1] = -sum(b[i][i] for i in range(n))
    for k in range(2, n + 1):
        c = coeffs[n - k + 1]
        shifted = [[x + c if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(mk)]
        shifted_cols = list(zip(*shifted))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in shifted_cols]
              for row in b]
        q, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier must divide exactly")
        coeffs[n - k] = q
    return coeffs


def is_prime_by_trial_division(n):
    """Whether n is prime, by testing every divisor up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def fraction_rational_roots(coeffs):
    """Rational roots of a polynomial with Fraction coefficients (lowest
    degree first) as an ascending list of (root, multiplicity), plus the
    degree left over.  Every candidate p/q of the rational root theorem is
    tested by Fraction evaluation and divided out by long division."""
    coeffs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    zeros = next(k for k, c in enumerate(ints) if c)
    ints = ints[zeros:]
    roots = {Fraction(0): zeros} if zeros else {}
    poly = [Fraction(c) for c in ints]

    def divisors(v):
        v = abs(v)
        small = [d for d in range(1, math.isqrt(v) + 1) if v % d == 0]
        return small + [v // d for d in small]

    candidates = {Fraction(s * p, q) for p in divisors(ints[0])
                  for q in divisors(ints[-1]) for s in (1, -1)}
    for x in sorted(candidates):
        while len(poly) > 1 and sum(c * x ** k for k, c in enumerate(poly)) == 0:
            # synthetic division by (x - root), highest degree first
            out = [poly[-1]]
            for c in reversed(poly[1:-1]):
                out.append(c + x * out[-1])
            poly = out[::-1]
            roots[x] = roots.get(x, 0) + 1
    return sorted(roots.items()), len(poly) - 1


def divisors(n):
    """The positive divisors of n != 0, ascending, by trial division up to
    sqrt(|n|)."""
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def divisor_rational_roots(coeffs):
    """Rational roots of a nonzero integer polynomial (lowest degree first)
    as (p, q, multiplicity) with p/q in lowest terms and q > 0, plus the
    degree left over: every candidate of the rational root theorem (p
    divides the trailing nonzero coefficient, q the leading one) is tested
    by integer evaluation of q**deg * P(p/q) and divided out by synthetic
    division.  Time grows with the square root of the coefficients, so only
    for small ones."""

    def scaled_value(cs, p, q):
        acc, qpow = cs[-1], 1
        for c in reversed(cs[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return acc

    def deflate(cs, p, q):
        n = len(cs) - 1
        out = [0] * n
        out[n - 1] = cs[n] // q
        for k in range(n - 1, 0, -1):
            out[k - 1] = (cs[k] + p * out[k]) // q
        return out

    roots = []
    k0 = next(k for k, c in enumerate(coeffs) if c)
    if k0:
        roots.append((0, 1, k0))
    coeffs = list(coeffs[k0:])
    if len(coeffs) > 1:
        candidates = sorted({(s * p // g, q // g)
                             for p in divisors(coeffs[0])
                             for q in divisors(coeffs[-1]) for s in (1, -1)
                             for g in (math.gcd(p, q),)})
        for p, q in candidates:
            mult = 0
            while len(coeffs) > 1 and scaled_value(coeffs, p, q) == 0:
                coeffs = deflate(coeffs, p, q)
                mult += 1
            if mult:
                roots.append((p, q, mult))
    return roots, len(coeffs) - 1


def fraction_analyze(rows):
    """What analyze(A).to_json_dict() must hold, computed over Fraction from
    the unscaled matrix, or ("irrational", degree) when some eigenvalue is
    not rational."""
    roots, remainder = fraction_rational_roots(char_poly_by_interpolation(rows))
    if remainder:
        return ("irrational", remainder)
    entries, groups = [], []
    for lam, _ in roots:
        ranks = fraction_rank_pattern(rows, lam)
        growth = [a - b for a, b in zip(ranks, ranks[1:])]
        blocks = conjugate_by_transpose(growth)
        groups.append(blocks)
        entries.append({"value": str(lam), "rank_pattern": list(ranks),
                        "blocks": list(blocks)})
    segre = "[" + ",".join("(" + ",".join(map(str, g)) + ")"
                           for g in canonical_groups(groups)) + "]"
    return {"segre": segre, "eigenvalues": entries}
