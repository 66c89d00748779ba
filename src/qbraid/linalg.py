"""Dense exact linear algebra over any Scalar field.

Matrices are immutable, 0-indexed, row-major grids of Scalars sharing one
FieldContext.  `EchelonSpan` is the one elimination routine for spans, over
the field or over F_p: an incremental row-echelon span.  Over Q and Q(zeta_m)
it stores primitive integer rows with rational-integer pivots and reduces a
vector on the integer kernel of `scalar`, by whole-row int products and one
gcd per step (`_IntegerRows`); over F_p, Q(q) and Q(zeta_m)(q) its stored
rows hold payloads with a leading 1 and keep their supports, so that reducing
a vector touches only nonzero entries.  Ranks grown vector by vector insert
into it directly; `echelon` inserts the rows of a matrix sparsest first, and
rank, rref, nullspace and inverse are read off the span.  Since the rank, the
reduced row echelon form and the inverse of a matrix are unique, every result
is independent of the insertion order and of the route, and reproducible.

A determinant is the one fraction-free (Bareiss) recurrence `_bareiss` on
the integer kernel, with no division that is not exact and no gcd: each row
is first made into ints over Q, and otherwise into int lists in y under the
ring map zeta -> y, q -> y^N of `scalar._zeta_pack`.

Over Q and Q(zeta_m) a matrix may also be held as integer rows: one
denominator per row and phi(m) power-basis ints per entry (one over Q),
with its Scalar entries built only when they are first read
(`ExactMatrix.as_integer_rows`).  A product whose right factor is held so
takes the integer-row route (`_integer_product`) before any other, and is
held so too: row i of a b is sum_k a_ik (row k of b), each
a_ik = sum_t c_t zeta^t applied through the zeta^t-multiples of b's rows,
which are formed once per matrix by shifting each column up one power and
folding the top power back with the tail of Phi_m; each row of the result
is divided by the gcd of its ints and its denominator.  No Scalar is built,
and the exact algebra span (`irred._burnside_exact`) keeps every word in
this form and inserts its integer rows into the span as they are
(`EchelonSpan.insert_matrix`).  Every product whose right factor holds
Scalars takes the routes below.

Sums, negatives and scalings return exact-zero entries as they are.  A
matrix product skips every term with an exactly zero factor.  A monomial
factor (a left factor with at most one nonzero entry in every row, or a
right factor with at most one in every column: a diagonal, an
antidiagonal, a permutation times a diagonal, the superdiagonal T) leaves
one term or none per entry, and the product scales and moves the rows or
columns of the other factor, over every field.  Otherwise, over Q and
Q(zeta_m) the product is row-packed: each row of the right factor is one big
integer with a slot of 2 phi(m) - 1 digits per column (Kronecker
substitution lifted to matrices, on the integer kernel of `scalar`).  Over
Q(q), when every entry of both factors is a Laurent polynomial, each entry
is one big-integer dot product of packed rows and columns, since slots as
wide as the longest Laurent entry would waste digits.  Every other product
(over Q(q) or Q(zeta_m)(q)) adds up its terms one by one.

Index conventions for the three involutions on an (n+1)x(n+1) matrix:
t is the ordinary transpose, s reflects in the antidiagonal
(a^s_ij = a_{n-j,n-i}), and sharp rotates by a half turn
(a^#_ij = a_{n-i,n-j}); sharp = s . t = t . s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress, count, islice, repeat
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from operator import add, floordiv, mul, sub

from .errors import FieldMismatch, NonPolynomialQuotient, NonSquare, ShapeMismatch, Singular
from .scalar import (
    Cyclotomic,
    LaurentPoly,
    RatFunc,
    Scalar,
    _check_degree,
    _common_den,
    _cyclotomic,
    _degree_cap,
    _digit_size,
    _int_exact_div,
    _int_mul,
    _inverse,
    _is_one,
    _laurent,
    _lp_monic_gcd,
    _pack,
    _phi_tail,
    _unpack,
    _zeta_pack,
    _zeta_unpack,
    euler_phi,
    laurent_exact_div,
)


class ExactMatrix:
    """Immutable dense matrix of Scalars over a single field context.

    Over Q and Q(zeta_m) a matrix may also be in integer-row form: `_ints`
    holds one (den, ints) pair per row, the row being ints / den, with ints
    flat, phi(m) power-basis ints per entry (one over Q), den > 0 and
    gcd(den, *ints) = 1, so that the form is unique (a zero row is den 1).
    `as_integer_rows` gives it, and a product whose right factor has it
    takes the integer-row route (`_integer_product`) and has it too.  Such
    a matrix builds its Scalar entries on their first read (`_e`), which
    code outside this module never needs.
    """

    __slots__ = ("rows", "cols", "ctx", "_entries", "_ints", "_multiples")

    def __init__(self, rows, cols, ctx, entries, ints=None):
        self.rows = rows
        self.cols = cols
        self.ctx = ctx
        self._entries = entries
        self._ints = ints
        self._multiples = None

    @property
    def _e(self):
        """The entries, a tuple of row tuples of Scalars, built from the
        integer rows on the first read (`_scalar_rows`)."""
        entries = self._entries
        if entries is None:
            entries = self._entries = _scalar_rows(self.ctx, self._ints)
        return entries

    def as_integer_rows(self):
        """This matrix in integer-row form over Q and Q(zeta_m), so that
        products with it on the right take the integer-row route; itself
        over a field with q, or when it has that form already."""
        if self._ints is not None or self.ctx.with_q:
            return self
        order = self.ctx.order
        return ExactMatrix(self.rows, self.cols, self.ctx, self._e,
                           [_payload_ints(order, [x.val for x in r]) for r in self._e])

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeMismatch("matrix needs at least one entry")
        width = len(rows[0])
        ctx = rows[0][0].ctx
        for r in rows:
            if len(r) != width:
                raise ShapeMismatch("ragged rows")
            for x in r:
                if x.ctx is not ctx and x.ctx != ctx:
                    raise FieldMismatch("mixed field contexts in matrix")
        return cls(len(rows), width, ctx, tuple(tuple(r) for r in rows))

    @classmethod
    def from_fn(cls, rows, cols, ctx, fn):
        return cls(rows, cols, ctx, tuple(tuple(fn(i, j) for j in range(cols))
                                          for i in range(rows)))

    @classmethod
    def identity(cls, n, ctx):
        one, zero = Scalar.one(ctx), Scalar.zero(ctx)
        return cls.from_fn(n, n, ctx, lambda i, j: one if i == j else zero)

    @classmethod
    def zeros(cls, rows, cols, ctx):
        zero = Scalar.zero(ctx)
        return cls(rows, cols, ctx, tuple((zero,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        ctx = entries[0].ctx
        zero = Scalar.zero(ctx)
        n = len(entries)
        return cls.from_fn(n, n, ctx, lambda i, j: entries[i] if i == j else zero)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    def row(self, i):
        return self._e[i]

    def col(self, j):
        return tuple(r[j] for r in self._e)

    def _payloads(self):
        """The entries' field payloads, as a fresh list of row lists."""
        return [[x.val for x in r] for r in self._e]

    def to_strs(self):
        return [[str(x) for x in r] for r in self._e]

    # -- structure predicates ---------------------------------------------------

    def is_square(self):
        return self.rows == self.cols

    def is_upper_triangular(self):
        e = self._e
        return all(e[i][j].is_zero() for i in range(self.rows) for j in range(min(i, self.cols)))

    def is_unit_upper_triangular(self):
        return self.is_square() and self.is_upper_triangular() \
            and all(r[i].is_one() for i, r in enumerate(self._e))

    def is_strictly_upper_triangular(self):
        e = self._e
        return all(e[i][j].is_zero()
                   for i in range(self.rows) for j in range(min(i + 1, self.cols)))

    # -- arithmetic ---------------------------------------------------------------

    def _check_same_field(self, other):
        if self.ctx != other.ctx:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition of different shapes")
        return ExactMatrix(self.rows, self.cols, self.ctx,
                           tuple(tuple(a if not b.val else b if not a.val else a + b
                                       for a, b in zip(ra, rb))
                                 for ra, rb in zip(self._e, other._e)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, self.ctx,
                           tuple(tuple(-a if a.val else a for a in r) for r in self._e))

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if other._ints is not None:
            return ExactMatrix(self.rows, other.cols, self.ctx, None, _integer_product(self, other))
        # Terms with an exactly zero factor are skipped: they add nothing to an
        # exact sum, and triangular factors make about half of them zero.  The
        # term-by-term sums run on the field payloads; the context was checked once.
        ctx, cols, zero = self.ctx, other.cols, Scalar.zero(self.ctx)
        rows_a = [[(k, x.val) for k, x in enumerate(r) if x.val] for r in self._e]
        # Over Q and Q(zeta_m) each term of b also carries its denominator and
        # power-basis ints, for `_row_packed_product`, in the same scan.
        if ctx.with_q:
            terms_b = [(k, j, x.val) for k, r in enumerate(other._e)
                       for j, x in enumerate(r) if x.val]
        elif ctx.order == 1:
            terms_b = [(k, j, y, y.denominator, (y.numerator,)) for k, r in enumerate(other._e)
                       for j, x in enumerate(r) if (y := x.val)]
        else:
            terms_b = [(k, j, y, y.den, y.ints) for k, r in enumerate(other._e)
                       for j, x in enumerate(r) if (y := x.val)]
        # A monomial factor: every row of a, or every column of b (no column
        # index repeated among the terms of b), has one nonzero entry or none.
        if max(map(len, rows_a), default=0) < 2 or (
                len(terms_b) <= cols and len({t[1] for t in terms_b}) == len(terms_b)):
            return ExactMatrix(self.rows, cols, ctx,
                               _monomial_product(rows_a, terms_b, other.rows, cols, zero))
        if not ctx.with_q:
            return ExactMatrix(self.rows, cols, ctx, _row_packed_product(rows_a, terms_b, cols, ctx))
        cols_b = [{} for _ in range(cols)]
        for k, j, y in terms_b:
            cols_b[j][k] = y
        if ctx.order == 1 and _packable(rows_a, cols_b):
            return ExactMatrix(self.rows, cols, ctx, _packed_product(rows_a, cols_b, ctx))
        out = []
        for terms_a in rows_a:
            out_row = []
            for cb in cols_b:
                acc = None
                for k, x in terms_a:
                    y = cb.get(k)
                    if y is not None:
                        acc = x * y if acc is None else acc + x * y
                out_row.append(zero if acc is None else Scalar(ctx, acc))
            out.append(tuple(out_row))
        return ExactMatrix(self.rows, cols, ctx, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        if s.ctx != self.ctx:
            raise FieldMismatch("scalar from a different field")
        return ExactMatrix(self.rows, self.cols, self.ctx,
                           tuple(tuple(s * a if a.val else a for a in r) for r in self._e))

    def apply(self, vec):
        """Matrix-vector product; vec is a tuple of Scalars."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        out = []
        for row in self._e:
            acc = row[0] * vec[0]
            for k in range(1, self.cols):
                acc = acc + row[k] * vec[k]
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.ctx == other.ctx and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    # -- involutions -----------------------------------------------------------

    def transpose_s(self):
        if not self.is_square():
            raise NonSquare("antidiagonal transpose needs a square matrix")
        n, e = self.rows - 1, self._e
        return ExactMatrix.from_fn(self.rows, self.cols, self.ctx,
                                   lambda i, j: e[n - j][n - i])

    def sharp(self):
        if not self.is_square():
            raise NonSquare("sharp needs a square matrix")
        n, e = self.rows - 1, self._e
        return ExactMatrix.from_fn(self.rows, self.cols, self.ctx,
                                   lambda i, j: e[n - i][n - j])

    # -- elimination-based operations ------------------------------------------

    def inverse(self):
        """The right half of [A | I] reduced to its reduced row echelon form."""
        if not self.is_square():
            raise NonSquare("inverse needs a square matrix")
        n, ctx = self.rows, self.ctx
        one, zero = Scalar.one(ctx).val, Scalar.zero(ctx).val
        aug = [[x.val for x in r] + [one if j == i else zero for j in range(n)]
               for i, r in enumerate(self._e)]
        pivots, rows = echelon(aug, 2 * n).reduced()
        if pivots != list(range(n)):
            raise Singular("matrix is singular")
        return ExactMatrix(n, n, ctx, tuple(tuple(Scalar(ctx, x) for x in row[n:]) for row in rows))

    def determinant(self):
        """Fraction-free (Bareiss) elimination, `_bareiss`; 1 for the 0x0 matrix.

        Each row, times the lcm of its denominators and with q a q-power, is
        put on the integer kernel: ints over Q (`_integer_rows`), otherwise
        int lists in y under zeta -> y, q -> y^N (`_polynomial_rows`), N = 1
        over Q(q) and size (phi(m) - 1) + 1 over Q(zeta_m) and Q(zeta_m)(q).
        The map is a ring homomorphism, so the recurrence divides exactly,
        checked, with no reduction modulo Phi_m between steps.  Every minor
        has zeta-degree below N, so the determinant is read back per q-step,
        each reduced modulo Phi_m once, and the row scales divided out."""
        if not self.is_square():
            raise NonSquare("determinant needs a square matrix")
        ctx = self.ctx
        rows = self._payloads()
        if ctx.order == 1 and not ctx.with_q:
            rows, scale = _integer_rows(rows)
            sign, det = _bareiss(rows, 1, _int_update)
            return Scalar(ctx, Fraction(sign * det, scale)) if sign else Scalar.zero(ctx)
        stride = 1 if ctx.order == 1 else self.rows * (euler_phi(ctx.order) - 1) + 1
        rows, shift, scale, den = _polynomial_rows(rows, stride)
        sign, det = _bareiss(rows, [1], partial(_poly_update, stride=stride))
        if not sign:
            return Scalar.zero(ctx)
        det = [sign * c for c in det]
        if ctx.order != 1:
            det, scale = _zeta_unpack(det, stride, ctx.order, scale), 1
            if not ctx.with_q:
                return Scalar(ctx, det[0])
        num = _laurent(ctx.order, shift, scale, det)
        return Scalar(ctx, RatFunc.make(num, den) if den else RatFunc.from_laurent(num))

    def submatrix(self, rows, cols):
        rows, cols = list(rows), list(cols)
        for i in rows:
            if not 0 <= i < self.rows:
                raise ShapeMismatch("row index out of bounds")
        for j in cols:
            if not 0 <= j < self.cols:
                raise ShapeMismatch("column index out of bounds")
        e = self._e
        return ExactMatrix(len(rows), len(cols), self.ctx,
                           tuple(tuple(e[i][j] for j in cols) for i in rows))

    def minor(self, rows, cols):
        """Determinant of the selected submatrix; index sets must match in size."""
        rows, cols = _index_subset(rows, self.rows), _index_subset(cols, self.cols)
        if len(rows) != len(cols):
            raise ShapeMismatch("minor needs equally many rows and columns")
        return self.submatrix(rows, cols).determinant()

    def cofactor(self, rows, cols):
        """Signed complementary minor: (-1)^(sum rows + sum cols) times the minor
        of the complementary index sets."""
        rows, cols = _index_subset(rows, self.rows), _index_subset(cols, self.cols)
        if len(rows) != len(cols):
            raise ShapeMismatch("cofactor needs equally many rows and columns")
        crows = [i for i in range(self.rows) if i not in set(rows)]
        ccols = [j for j in range(self.cols) if j not in set(cols)]
        value = self.minor(crows, ccols)
        return -value if (sum(rows) + sum(cols)) % 2 else value

    def rref(self):
        """(reduced rows, pivot column list); rows include the zero tail."""
        pivots, rows = echelon(self._payloads(), self.cols).reduced()
        ctx = self.ctx
        zero = Scalar.zero(ctx)
        out = [[zero] * c + [Scalar(ctx, x) for x in row[c:]] for c, row in zip(pivots, rows)]
        out += [[zero] * self.cols for _ in range(self.rows - len(rows))]
        return out, pivots

    def rank(self):
        return echelon(self._payloads(), self.cols).dim

    def nullspace(self):
        """Exact basis of the right kernel, one vector per free column, each
        normalized so its first nonzero coordinate is 1."""
        ctx = self.ctx
        zero, one = Scalar.zero(ctx), Scalar.one(ctx)
        _, basis = echelon(self._payloads(), self.cols).nullspace(zero.val, one.val)
        return [tuple(leading_one([Scalar(ctx, x) for x in vec])) for vec in basis]

    # -- output -----------------------------------------------------------------

    def __str__(self):
        return "\n".join("  ".join(str(x) for x in r) for r in self._e)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.ctx.describe()})\n{self}"


def leading_one(vec):
    """The nonzero vector vec of Scalars scaled so that its first nonzero
    coordinate is 1, the normalization of `ExactMatrix.nullspace`."""
    lead = next(x for x in vec if not x.is_zero())
    if lead.is_one():
        return vec
    inv = lead.inverse()
    return [inv * x for x in vec]


def _monomial_product(rows_a, terms_b, rows, cols, zero):
    """The entries of a product with a monomial factor, given by the nonzero
    (k, payload) pairs of each row of a and the nonzero (k, j, payload, ...)
    terms of the rows x cols matrix b in row-major order: either every row
    of a or every column of b has at most one nonzero entry, so every entry
    of the product is one term or none.  Row i of the product is then row k
    of b times a_ik, or column j is column k of a times b_kj; each term is
    one payload product, in the (i, j) order of the term-by-term loop, so
    that a degree cap stops at the same term."""
    ctx, out = zero.ctx, []
    if max(map(len, rows_a), default=0) < 2:
        rows_b = [[] for _ in range(rows)]
        for k, j, y, *_ in terms_b:
            rows_b[k].append((j, y))
        for r in rows_a:
            row = [zero] * cols
            for k, x in r:
                for j, y in rows_b[k]:
                    row[j] = Scalar(ctx, x * y)
            out.append(tuple(row))
        return tuple(out)
    terms = [(None, None)] * cols   # column j of b: its one nonzero (k, b_kj)
    for k, j, y, *_ in terms_b:
        terms[j] = (k, y)
    for r in rows_a:
        row = dict(r)
        out.append(tuple(Scalar(ctx, row[k] * y) if k in row else zero for k, y in terms))
    return tuple(out)


def _packable(rows_a, cols_b):
    """True when every nonzero entry over Q(q), given by the nonzero (k, entry)
    pairs of each row of a and each column of b, is a Laurent polynomial."""
    return (all(_is_one(x.den) for r in rows_a for _, x in r)
            and all(_is_one(x.den) for c in cols_b for x in c.values()))


def _aligned(terms):
    """A row of a or a column of b, given as its nonzero (k, entry) pairs, on
    one q-shift and one integer denominator.

    Returns (shift, den, width, top, packing): packing lists (k, coeffs,
    factor, pad) for each pair, whose aligned int list is
    [0] * pad + [c * factor for c in coeffs]; width is the longest aligned
    list and top its largest absolute coefficient.
    """
    if not terms:
        return 0, 1, 0, 0, ()
    polys = [(k, x.num) for k, x in terms]
    shift = min([p.shift for _, p in polys])
    den = _int_lcm(*[p.den for _, p in polys])
    packing, width, top = [], 0, 0
    for k, p in polys:
        f, pad = den // p.den, p.shift - shift
        packing.append((k, p.coeffs, f, pad))
        width = max(width, pad + len(p.coeffs))
        top = max(top, max(map(abs, p.coeffs)) * f)
    return shift, den, width, top, packing


def _base_ints(x):
    """A nonzero Fraction or `Cyclotomic` as (den, power-basis ints)."""
    if type(x) is Cyclotomic:
        return x.den, x.ints
    return x.denominator, (x.numerator,)


def _row_packed_product(rows_a, terms_b, cols, ctx):
    """The entries of a product over Q or Q(zeta_m), given by the nonzero
    (k, payload) pairs of each row of a and the nonzero (k, j, payload, den,
    power-basis ints) terms of b, which has `cols` columns.

    All of b is put on one integer denominator e, and row i of a on one, d_i,
    so that entry (i, j) is sum_k A_ik B_kj / (d_i e), a sum of products of
    int lists of length phi or less (phi = 1 over Q).  Each nonzero row k of
    b is packed once into one big integer whose slot j, 2 phi - 1 digits
    wide, holds B_kj, so A_ik packed times it holds A_ik B_kj in slot j; row
    i of the product is the sum of these over k, unpacked once.  The digit
    width covers the largest ints of a and of b on their denominators, times
    phi, times the number of terms.  Each slot is read back with one
    reduction modulo Phi_m and one gcd with d_i e (`_cyclotomic`).
    """
    phi, zero = euler_phi(ctx.order), Scalar.zero(ctx)
    order, stride = ctx.order, 2 * phi - 1
    e = _int_lcm(*[t[3] for t in terms_b])
    rows, top_a, terms = [], 0, 0
    nonzero = {t[0] for t in terms_b}
    for r in rows_a:
        row, d, top = [], 1, 0
        for k, x in r:
            if k in nonzero:
                den, ints = _base_ints(x)
                d = _int_lcm(d, den)
                top = max(top, max(map(abs, ints)))
                row.append((k, den, ints))
        rows.append((d, row))
        top_a, terms = max(top_a, top * d), max(terms, len(row))
    if not terms:
        return ((zero,) * cols,) * len(rows)
    top_b = max([max(map(abs, t[4])) for t in terms_b]) * e
    size = _digit_size(top_a * top_b * phi * terms)
    w = 8 * size * stride
    packed_b = dict.fromkeys(nonzero, 0)
    for k, j, _, den, ints in terms_b:
        packed_b[k] += _pack(ints, size) * (e // den) << w * j
    out = []
    for d, row in rows:
        acc = 0
        for k, den, ints in row:
            acc += _pack(ints, size) * (d // den) * packed_b[k]
        slots, den = _unpack(acc, cols * stride, size), d * e
        if order == 1:
            out.append(tuple(Scalar(ctx, Fraction(c, den)) if c else zero for c in slots))
            continue
        out_row = []
        for j in range(0, cols * stride, stride):
            ints = slots[j:j + stride]
            out_row.append(Scalar(ctx, _cyclotomic(order, den, ints)) if any(ints) else zero)
        out.append(tuple(out_row))
    return tuple(out)


def _payload_ints(order, vec):
    """A vector of Fraction (order 1) or `Cyclotomic` payloads as (den,
    ints): den the lcm of their denominators, and ints the vector times den,
    flat, phi(order) power-basis ints per entry.  gcd(den, *ints) is 1."""
    if order == 1:
        den = _int_lcm(*[x.denominator for x in vec])
        return den, [x.numerator * (den // x.denominator) for x in vec]
    den = _int_lcm(*[x.den for x in vec])
    ints, pad = [], (0,) * euler_phi(order)
    for x in vec:
        f = den // x.den
        ints += [a * f for a in x.ints] if f != 1 else x.ints
        ints += pad[len(x.ints):]
    return den, ints


def _scalar_rows(ctx, int_rows):
    """The Scalar entries of the integer rows of a matrix over ctx, Q or
    Q(zeta_m) (see `ExactMatrix`), as a tuple of row tuples."""
    order, zero = ctx.order, Scalar.zero(ctx)
    if order == 1:
        return tuple(tuple(Scalar(ctx, Fraction(c, den)) if c else zero for c in ints)
                     for den, ints in int_rows)
    phi = euler_phi(order)
    out = []
    for den, ints in int_rows:
        out.append(tuple(Scalar(ctx, _cyclotomic(order, den, x)) if any(x) else zero
                         for x in (ints[j:j + phi] for j in range(0, len(ints), phi))))
    return tuple(out)


def _zeta_multiples(order, ints):
    """[v, zeta v, ..., zeta^(phi-1) v] for the flat list v of phi(order)
    power-basis ints per column, phi = phi(order): each multiple shifts
    every column of the one before up by one power, and folds the column's
    top int c back as c zeta^phi, through the nonzero terms of zeta^phi
    (`_phi_tail`).  Over Q it is [v]."""
    phi, tail = _phi_tail(order)
    out = [ints]
    for _ in range(phi - 1):
        v = out[-1]
        top = v[phi - 1::phi]
        w = [0] + v[:-1]
        w[::phi] = [0] * len(top)
        if any(top):
            for i, a in tail:
                w[i::phi] = map(add, w[i::phi], map(mul, top, repeat(a)))
        out.append(w)
    return out


def _int_combination(terms):
    """sum c v over the (c, v) pairs of `terms`, the v int lists of one
    length, by whole-list `map`s; None when there is no pair."""
    acc = None
    for c, v in terms:
        v = map(mul, v, repeat(c))
        acc = v if acc is None else map(add, acc, v)
    return None if acc is None else list(acc)


def _right_multiples(b):
    """(e, multiples) of b in integer-row form, formed once per matrix and
    kept on it: e is the lcm of its row denominators, and multiples the flat
    int lists zeta^t R_k at index k phi + t, t < phi, for each row R_k of b
    times e (`_zeta_multiples`)."""
    m = b._multiples
    if m is None:
        order = b.ctx.order
        e = _int_lcm(*[d for d, _ in b._ints])
        multiples = []
        for d, ints in b._ints:
            multiples += _zeta_multiples(order, ints if d == e else [x * (e // d) for x in ints])
        m = b._multiples = (e, multiples)
    return m


def _integer_product(a, b):
    """The integer rows of a b over Q or Q(zeta_m), b in integer-row form.

    a's rows are its integer rows, or are made so from its entries: row i is
    A_i / d_i, A_i holding a_ik d_i as sum_t A_i[k phi + t] zeta^t, at the
    index of zeta^t R_k among b's multiples (`_right_multiples`).  So row i
    of a b is sum_(k,t) A_i[k phi + t] zeta^t R_k / (d_i e): one whole-row
    `map` of int products per nonzero int of A_i, and no product of power
    bases or reduction modulo Phi_m.  Each row is then divided by the gcd
    of its ints and its denominator d_i e, which makes it the unique
    integer row of its value.
    """
    order = a.ctx.order
    e, multiples = _right_multiples(b)
    rows_a = a._ints
    if rows_a is None:
        rows_a = [_payload_ints(order, [x.val for x in r]) for r in a._e]
    width, out = euler_phi(order) * b.cols, []
    for d, ints in rows_a:
        row = _int_combination(zip(compress(ints, ints), compress(multiples, ints)))
        if row is None:
            out.append((1, [0] * width))
            continue
        den = d * e
        g = _int_gcd(den, *row)
        if g != 1:
            row, den = [x // g for x in row], den // g
        out.append((den, row))
    return out


def _packed_product(rows_a, cols_b, ctx):
    """The entries of the product of matrices of Laurent polynomials over Q,
    given by the nonzero (k, entry) pairs of each row of a and each column of
    b, each entry one big-integer dot product.

    Row i of a is put on one q-shift s_i and one integer denominator d_i, and
    column j of b on t_j and e_j; entry (i, j) is then q^(s_i + t_j) times
    sum_k A_ik B_kj over d_i e_j, a sum of products of int lists.  Every
    nonzero list is packed once by Kronecker substitution, with one digit
    width for the whole product that covers the largest coefficient of any
    such sum: the largest coefficients of a and of b, times the shorter list
    length, times the number of terms.  Packing is linear, so an aligned list
    is its stored coefficients packed, times its factor, shifted by its pad.
    Each entry multiplies and adds the packed integers over the k where both
    factors are nonzero, and is unpacked once.

    Under a degree cap, the exponent range of every nonzero term is checked in
    the (i, j, k) order of the term-by-term loop, so the same term raises.
    """
    if _degree_cap.get() is not None:
        for ra in rows_a:
            for cb in cols_b:
                for k, x in ra:
                    y = cb.get(k)
                    if y is not None:
                        x, y = x.num, y.num
                        _check_degree(x.shift + y.shift, x.max_exp() + y.max_exp())
    rows_a = [_aligned(r) for r in rows_a]
    cols_b = [_aligned(c.items()) for c in cols_b]
    zero, one = Scalar.zero(ctx), LaurentPoly.one(1)
    _, _, widths_a, tops_a, packing_a = zip(*rows_a)
    _, _, widths_b, tops_b, packing_b = zip(*cols_b)
    size = _digit_size(max(tops_a) * max(tops_b) * min(max(widths_a), max(widths_b))
                       * min(max(map(len, packing_a)), max(map(len, packing_b))))
    w = 8 * size

    def packed(packing):
        return {k: _pack(c, size) * f << w * pad for k, c, f, pad in packing}

    cols_b = [(t, e, packed(packing)) for t, e, _, _, packing in cols_b]
    out = []
    for s, d, _, _, packing in rows_a:
        pa = packed(packing).items()
        out_row = []
        for t, e, pb in cols_b:
            acc = 0
            for k, x in pa:
                y = pb.get(k)
                if y is not None:
                    acc += x * y
            if not acc:
                out_row.append(zero)
                continue
            # Only the digits from the lowest to the highest nonzero one are
            # read.  Every digit is below 2^(w-1) in absolute value, so a lowest
            # nonzero digit at index l leaves acc divisible by 2^(w l) but not
            # by 2^(w l + w - 1), and then a highest at index h gives a bit
            # length from w h to w h + w - 1.
            low = ((acc & -acc).bit_length() - 1) // w
            acc >>= w * low
            out_row.append(Scalar(ctx, RatFunc(1, _laurent(
                1, s + t + low, d * e, _unpack(acc, acc.bit_length() // w + 1, size)), one)))
        out.append(tuple(out_row))
    return tuple(out)


class EchelonSpan:
    """Incremental row-echelon span of vectors of one width: int vectors over
    F_p when p is given, vectors of field payloads (Fractions, `Cyclotomic`s
    or `RatFunc`s of one field) when p is None.  It is the one elimination
    routine; `echelon` fills it from a row list.

    `insert` reduces a vector by the stored rows in pivot order and keeps it
    when a nonzero entry is left, and returns whether it did; `dim` is the
    rank of everything inserted.  Reduction stops at the first column
    without a pivot, which becomes the new row's pivot.  `reduced`
    back-reduces the stored rows to the reduced row echelon form, and
    `nullspace` solves them by back substitution.

    Over F_p, Q(q) and Q(zeta_m)(q) a stored row is scaled to a leading 1
    and keeps its support, so that reducing a vector touches only the row's
    nonzero entries; over F_p an entry is taken mod p only when its column
    is reached.  Over Q and Q(zeta_m) the stored rows are primitive integer
    rows with rational-integer pivots, and a vector is reduced on the integer
    kernel (`_IntegerRows`), with no Fraction or `Cyclotomic` built; `reduced`
    and `nullspace` divide each such row by its pivot first, so that every
    result is the one the field payloads give.  `insert_matrix` inserts the
    entries of a matrix as one vector, from its integer rows when it has
    them.
    """

    def __init__(self, width, p=None):
        self.p = p
        self.dim = 0
        # pivot column -> (row, support), or over Q and Q(zeta_m) the (pivot,
        # multiples) of `_IntegerRows`, found at the first nonzero vector
        self._rows = [None] * width
        self._ints = None

    def insert_matrix(self, m):
        """`insert` of the entries of the matrix m, row by row, as one
        vector.  Over Q and Q(zeta_m), when m is in integer-row form, its
        rows are put on one denominator and go to the integer kernel as
        they are, and no entry of m is built."""
        int_rows = m._ints
        if int_rows is None or self.p is not None:
            return self.insert([x.val for r in m._e for x in r])
        if self._ints is None:
            self._ints = _IntegerRows(m.ctx.order)
        den, ints = _int_lcm(*[d for d, _ in int_rows]), []
        for d, r in int_rows:
            ints += r if d == den else [x * (den // d) for x in r]
        grew = self._ints.insert(self._rows, ints)
        self.dim += grew
        return grew

    def insert(self, vec):
        p, rows = self.p, self._rows
        if p is None:
            if self._ints is None:
                self._ints = _IntegerRows.of(vec)
            if self._ints:
                grew = self._ints.insert(rows, _payload_ints(self._ints.order, vec)[1])
                self.dim += grew
                return grew
        vec = list(vec)
        for k, stored in enumerate(rows):
            c = vec[k] if p is None else vec[k] % p
            if not c:
                continue
            if stored is None:
                if p is None:
                    inv = _inverse(c)
                    row = [0] * k + [inv * x if x else x for x in vec[k:]]
                else:
                    inv = pow(c, -1, p)
                    row = [0] * k + [x * inv % p for x in vec[k:]]
                rows[k] = (row, [j for j in range(k, len(row)) if row[j]])
                self.dim += 1
                return True
            row, support = stored
            for j in support:
                vec[j] -= c * row[j]
        return False

    def _field_rows(self):
        """pivot column -> (row of field payloads, or of ints mod p, with a
        leading 1, support)."""
        if not self._ints:
            return self._rows
        rows = []
        for k, stored in enumerate(self._rows):
            if stored is not None:
                row = self._ints.field_row(k, stored)
                stored = row, [j for j, x in enumerate(row) if x]
            rows.append(stored)
        return rows

    def reduced(self):
        """Over the field: the pivot columns in increasing order and copies
        of the stored rows in that order, back-reduced (last pivot first) to
        the reduced row echelon form of everything inserted.  Each row holds
        int 0 before its pivot."""
        stored_rows = self._field_rows()
        pivots = [c for c, stored in enumerate(stored_rows) if stored is not None]
        rows = [list(stored_rows[c][0]) for c in pivots]
        for i in range(len(rows) - 1, 0, -1):
            col, prow = pivots[i], rows[i]
            support = [j for j in range(col, len(prow)) if prow[j]]
            for row in rows[:i]:
                f = row[col]
                if f:
                    for j in support:
                        row[j] = row[j] - f * prow[j]
        return pivots, rows

    def nullspace(self, zero=0, one=1):
        """The free columns, those without a pivot, and for each free column f
        the vector v_f of the right kernel of the stored rows that has `one`
        at f, `zero` at every other free column and nothing after f: the
        reduced row echelon nullspace basis, which `ExactMatrix.nullspace`
        scales further to a leading 1.  Over F_p the defaults give int
        vectors mod p; over the field pass the field's zero and one payloads.

        Back substitution: each pivot entry of v_f, from the last pivot before
        f down, is minus the stored row's dot product with v_f up to f (the
        row's leading 1 meets the still-zero pivot entry, and the entries of
        v_f after f are 0).
        """
        p, rows = self.p, self._field_rows()
        free = [k for k, stored in enumerate(rows) if stored is None]
        basis = []
        for f in free:
            vec = [zero] * len(rows)
            vec[f] = one
            for k in range(f - 1, -1, -1):
                stored = rows[k]
                if stored is not None:
                    row, support = stored
                    acc = zero
                    for j in support:
                        if j > f:
                            break
                        if vec[j]:
                            acc = acc + row[j] * vec[j]
                    vec[k] = -acc if p is None else -acc % p
            basis.append(vec)
        return free, basis


class _IntegerRows:
    """The integer kernel of an `EchelonSpan` over Q (order 1) or Q(zeta_m)
    (order m).

    A vector is a flat list of phi(m) power-basis ints per column (one int
    over Q).  A stored row is primitive (the gcd of all its ints is 1) with
    a positive rational-integer pivot E: E times the field route's row,
    whose pivot is 1.  An incoming vector becomes ints, times the lcm of its
    denominators.  Reducing it by the stored row R at column k, where it
    holds c, is

        v <- (E/g) v - (c/g) R,    g = gcd(E, content of c),

    a nonzero rational multiple of the field route's step v <- v - c R/E,
    and the removal of v's content follows.  c R is sum_i c_i (zeta^i R),
    and each stored row keeps its multiples zeta^i R reduced modulo Phi_m,
    i < phi(m) (`_zeta_multiples`), so that a step is a few `map`s of int
    products over the columns from k on, with no Python loop over them, no
    product of power bases and no reduction modulo Phi_m.  A vector left
    nonzero at a column without a pivot is stored there: over Q(zeta_m) it
    is first multiplied by the numerator of the pivot's inverse, the product
    of the pivot's other Galois conjugates (`Cyclotomic.inverse`), as the
    sum of that numerator's ints times the vector's zeta-multiples, which
    makes the pivot rational, and then divided by its content; over Q its
    sign is made that of a positive pivot.  Every vector is thus a rational multiple of the
    field route's, so `insert` answers as that route does, and a stored row
    divided by its pivot is the field route's row (`field_row`).
    """

    __slots__ = ("order", "phi")

    def __init__(self, order):
        self.order = order
        self.phi = euler_phi(order)

    @classmethod
    def of(cls, vec):
        """The kernel for the field of vec's payloads, False over a field
        with q, None while vec is zero."""
        x = next((x for x in vec if x), None)
        if x is None:
            return None
        if isinstance(x, RatFunc):
            return False
        return cls(x.order if isinstance(x, Cyclotomic) else 1)

    def insert(self, rows, ints):
        """Reduce a vector by `rows` (pivot column -> (pivot, multiples) or
        None) and store what is left; True when it was stored.  The vector
        is given as a fresh flat list `ints` of phi(m) power-basis ints per
        column, times any nonzero rational (`_payload_ints`)."""
        phi = self.phi
        start = 0
        while True:
            g = _int_gcd(*ints)
            if not g:
                return False
            if g != 1:
                ints = list(map(floordiv, ints, repeat(g)))
            # the first nonzero int from `start` on, past every column reduced
            # so far, lies in the first column left to reduce
            k = next(compress(count(start), islice(ints, start, None))) // phi
            start = k * phi
            c = ints[start:start + phi]
            stored = rows[k]
            if stored is None:
                rows[k] = self._row(k, ints)
                return True
            e, multiples = stored
            g = _int_gcd(e, *c)
            if g != 1:
                e, c = e // g, [a // g for a in c]
            tail = ints[start:]
            if e != 1:
                tail = map(mul, tail, repeat(e))
            for a, m in zip(c, multiples):
                if a:
                    tail = map(sub, tail, map(mul, islice(m, start, None), repeat(a)))
            ints[start:] = tail
            start += phi

    def _row(self, k, ints):
        """The stored row (pivot, multiples) for the primitive vector `ints`
        whose first nonzero column is k."""
        phi, order = self.phi, self.order
        start = k * phi
        if order == 1:
            if ints[start] < 0:
                ints = [-a for a in ints]
            return ints[start], (ints,)
        # inv v = sum_t inv_t zeta^t v, inv the numerator of the pivot's inverse
        inv = _cyclotomic(order, 1, ints[start:start + phi]).inverse()
        row = _int_combination((c, v) for c, v in zip(inv.ints, _zeta_multiples(order, ints)) if c)
        g = _int_gcd(*row)
        if g != 1:
            row = [a // g for a in row]
        return row[start], _zeta_multiples(order, row)

    def field_row(self, k, stored):
        """The stored row at pivot column k divided by its pivot, as field
        payloads, int 0 before the pivot."""
        phi, order = self.phi, self.order
        e, multiples = stored
        ints = multiples[0]
        if order == 1:
            return [0] * k + [Fraction(a, e) for a in ints[k:]]
        return [0] * k + [_cyclotomic(order, e, ints[j:j + phi])
                          for j in range(k * phi, len(ints), phi)]


def echelon(rows, width, p=None, target=None):
    """The rows inserted into an `EchelonSpan(width, p)` sparsest first
    (fewest nonzero entries, ties in row order), stopping once the span
    reaches dimension `target`.  Sparse rows fill the stored rows in less.
    Once every row is in, the spanned space, its pivot columns, its reduced
    rows and its nullspace do not depend on the order."""
    span = EchelonSpan(width, p)
    for row in sorted(rows, key=lambda row: sum(1 for x in row if x)):
        if span.insert(row) and span.dim == target:
            break
    return span


def _bareiss(rows, one, update):
    """Bareiss's fraction-free elimination of the square list `rows` (lists
    of ring elements, zero falsy), in place: (sign, last pivot) with
    det = sign * last pivot, or (0, None) when the matrix is singular.

    Step k replaces each entry (i, j) with i, j > k by
    (p_kk p_ij - p_ik p_kj) / p_(k-1)(k-1), the previous pivot being `one`
    at k = 0.  Every entry is then a minor of the matrix (Sylvester's
    identity), so each division is exact and no gcd is taken.
    `update(row, pivot_row, k, (p_kk, previous pivot))` applies it to one
    row below the pivot.  A zero pivot is swapped with the first lower row
    that has a nonzero entry in its column, and the sign flips."""
    n, sign, prev = len(rows), 1, one
    for k in range(n):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return 0, None
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        pivot_row = rows[k]
        p = pivot_row[k]
        for row in rows[k + 1:]:
            update(row, pivot_row, k, (p, prev))
        prev = p
    return sign, prev


def _int_update(row, pivot_row, k, s):
    """One Bareiss row step over Z, s = (pivot, previous pivot)."""
    p, d = s
    a = row[k]
    for j in range(k + 1, len(row)):
        quo, rem = divmod(p * row[j] - a * pivot_row[j], d)
        if rem:
            raise NonPolynomialQuotient("fraction-free division left a remainder")
        row[j] = quo


def _poly_update(row, pivot_row, k, s, stride):
    """One Bareiss row step on int lists in y ([] for zero), s = (pivot,
    previous pivot), q -> y^stride.  Each product's q-degree, the sum of its
    factors' (len - 1) // stride, is checked against the degree cap, and
    each division must be exact (`_int_exact_div`)."""
    p, d = s
    a = row[k]
    for j in range(k + 1, len(row)):
        x, y = row[j], pivot_row[j]
        if x:
            _check_degree(0, (len(p) - 1) // stride + (len(x) - 1) // stride)
            t = _int_mul(p, x)
        else:
            t = []
        if a and y:
            _check_degree(0, (len(a) - 1) // stride + (len(y) - 1) // stride)
            u = _int_mul(a, y)
            if len(t) < len(u):
                t += [0] * (len(u) - len(t))
            for i, c in enumerate(u):
                t[i] -= c
            while t and not t[-1]:
                t.pop()
        row[j] = _int_exact_div(t, d) if t else t


def _integer_rows(rows):
    """Rows of Fractions as int rows, each times the lcm of its
    denominators, and the product of those lcms."""
    out, scale = [], 1
    for row in rows:
        den = _common_den(row)
        out.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return out, scale


def _polynomial_rows(rows, stride):
    """Rows of `RatFunc`s or `Cyclotomic`s as rows of int lists in y from
    y^0 ([] for zero), q -> y^stride and zeta -> y (`_zeta_pack`): row i
    times L_i, the lcm of its denominators, then times d_i q^-s_i, d_i the
    lcm of the integer denominators and s_i the lowest q-power of its
    entries.  Returns the lists, sum(s_i), prod(d_i) and prod(L_i), the
    last None when every L_i is 1."""
    out, shift, scale, den = [], 0, 1, None
    for row in rows:
        order = row[0].order
        if isinstance(row[0], Cyclotomic):
            d = _int_lcm(*[x.den for x in row])
            out.append([[a * (d // x.den) for a in x.ints] for x in row])
            scale *= d
            continue
        lcm = None
        for x in row:
            if x and not _is_one(x.den) and x.den != lcm:
                lcm = x.den if lcm is None else \
                    lcm * laurent_exact_div(x.den, _lp_monic_gcd(lcm, x.den))
        if lcm is not None:
            row = [x.num * laurent_exact_div(lcm, x.den) if x else None for x in row]
            den = lcm if den is None else den * lcm
        else:
            row = [x.num if x else None for x in row]
        polys = [x for x in row if x is not None]
        s = min([x.shift for x in polys], default=0)
        if order == 1:
            d = _int_lcm(*[x.den for x in polys])
            out.append([[0] * (x.shift - s) + [c * (d // x.den) for c in x.coeffs]
                        if x is not None else [] for x in row])
        else:
            d = _int_lcm(*[c.den for x in polys for c in x.coeffs])
            out.append([_zeta_pack(x.coeffs, stride, d, x.shift - s)
                        if x is not None else [] for x in row])
        shift += s
        scale *= d
    return out, shift, scale, den


def first_mismatch(a, b):
    """The first entry of equally shaped a and b, in row-major order, where
    they differ, as {"entry": [i, j], "lhs": str(a_ij), "rhs": str(b_ij)};
    None when every entry agrees."""
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return {"entry": [i, j], "lhs": str(a[i, j]), "rhs": str(b[i, j])}
    return None


def compare_all(named):
    """Compare each (name, lhs, rhs) triple of equally shaped matrices, in order.

    Returns the checks as [{"check": name, "passed": bool}, ...] and the first
    failing one as {"check": name, **first_mismatch(lhs, rhs)}, or None."""
    checks, first = [], None
    for name, lhs, rhs in named:
        ok = lhs == rhs
        checks.append({"check": name, "passed": ok})
        if not ok and first is None:
            first = {"check": name, **first_mismatch(lhs, rhs)}
    return checks, first


def _index_subset(indices, bound):
    out = list(indices)
    if any(not 0 <= i < bound for i in out):
        raise ShapeMismatch("index out of bounds")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ShapeMismatch("index subset must be strictly increasing")
    return out
