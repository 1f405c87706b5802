"""The group of order preserving automorphisms of the operator ring.

With theta_i = x_i d_i, every divided power is d^[beta] = x^{-beta}
C(theta, beta), and C(theta, j) = x^j d^[j].  A monomial automorphism
tau: x_j -> lambda_j x^{A e_j} (det A = +-1) sends theta to A^{-1} theta;
a shift s fixes every Laurent polynomial and sends theta to theta + s.
So the shift s after tau acts by one closed form, `FactoredAut.apply`:

    x^gamma d^[beta] -> lambda^(gamma - beta) x^(A(gamma - beta))
                        * prod_i C((A^{-1} theta)_i + t_i, beta_i),

t = A^{-1} s, the product expanded as sum_j c_j x^j d^[j] by its Mahler
coefficients, with no operator product.  At tau = 1 it is `shift_apply`,
conjugation by the unit x^s for any integer representative of s: one
operator product by x^s, which `DiffOp.__mul__` takes as a roll of
theta-tables, theta -> theta + s, where theta's rule finds that cheaper;
`monomial_apply` is the zero shift.

`theta` alone knows the table format and the one rule that decides where
tables are used.  The closed form and validation ask it
(`theta.expansion`, `theta.validation_tables`), as does the product, and
no table is kept in this module's values.

`GeneratorImages` presents an automorphism by finitely many images.  It
acts only once factored: `apply_images` is `factorize(g).apply`, and one
helper maps a `FactoredAut` over images, which composes automorphisms and
builds `FactoredAut.to_images` from the identity.  Images that present no
automorphism fail `factorize`, so they never act.  The factorization of
images is read off the x images (tau) and the level images: the order-0
part of the image of d_i^[p^k] under the shift t is C(t_i, p^k)
x_i^{-p^k}, and C(t_i, p^k) is digit k of t_i by Lucas' theorem; tau
keeps order-0 parts, so `extract_digits` (tau = 1) and `factorize` read
the digits of t = A^{-1} s off them, then certify the reading by
rebuilding every level image with `FactoredAut.apply`.  `factorize` keeps
the certified factorization on the images.

`validate_generator_images` certifies first: images that factor are
those of an automorphism, which preserves every defining relation, so
they pass every check with no product of images.  Only images that the
certificate rejects have their relations decided, on theta-tables where
theta's rule admits them and on `DiffOp`s otherwise, with the same
report.  That multiplies each level image by each x image for the
brackets; once those pass and the x images are monomials on a unimodular
matrix, Jacobi's identity leaves the commutators and the p-th powers to
the module action, acting on 1.
"""

from __future__ import annotations

from itertools import combinations

from .diffop import DiffOp, _add_into
from .errors import (
    InvalidAutomorphism,
    MismatchError,
    NotAUnit,
    NotGL,
    NotInStabilizer,
    NotSigmaForm,
    PrecisionMismatch,
)
from .laurent import LaurentPoly
from .report import CheckReport
from .scalars import (
    FpScalar,
    PadicInt,
    Prime,
    _assign,
    _inverse_factorial,
    _Value,
    as_prime,
    check_index_digits,
    index_digits,
    padic_length,
)

# theta is imported where tables are used, validation and the closed form at
# tau != 1, so that the shifts of sigma, build-sigma and extract skip it

# ---------------------------------------------------------------------------
# shift automorphisms
# ---------------------------------------------------------------------------


class ShiftVector(_Value):
    """A vector of truncated p-adic integers, one per variable; the
    parameter of a shift automorphism."""

    __slots__ = ("components",)  # tuple[PadicInt, ...]

    def _validate(self):
        if not self.components:
            raise ValueError("need at least one component")
        first = self.components[0]
        for c in self.components[1:]:
            if c.p != first.p:
                raise MismatchError("components disagree on the prime")
            if c.precision != first.precision:
                raise MismatchError("components disagree on precision")

    @property
    def p(self) -> Prime:
        return self.components[0].p

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def precision(self) -> int:
        return self.components[0].precision

    @classmethod
    def from_ints(cls, values, p, precision) -> "ShiftVector":
        return cls(tuple(PadicInt.from_int(v, p, precision) for v in values))

    @classmethod
    def from_digits(cls, digit_rows, p) -> "ShiftVector":
        return cls(tuple(PadicInt(tuple(row), p) for row in digit_rows))

    @classmethod
    def zeros(cls, p, n, precision) -> "ShiftVector":
        return cls((PadicInt.from_int(0, p, precision),) * n)

    def digit_rows(self) -> list[list[int]]:
        return [list(c.digits) for c in self.components]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "ShiftVector") -> "ShiftVector":
        if self.n != other.n:
            raise MismatchError("length mismatch")
        return ShiftVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "ShiftVector":
        return ShiftVector(tuple(-a for a in self.components))


def matrix_shift(matrix, s: ShiftVector) -> ShiftVector:
    """Matrix-vector product over the p-adics at the vector's precision."""
    n = s.n
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise MismatchError("matrix shape does not match the shift vector")
    vals = [c.to_int() for c in s.components]
    out = [sum(matrix[i][j] * vals[j] for j in range(n)) for i in range(n)]
    return ShiftVector.from_ints(out, s.p, s.precision)


def _check_shift_operand(s: ShiftVector, op: DiffOp):
    """A shift by s needs its precision to cover every index of op."""
    if op.p != s.p or op.n != s.n:
        raise MismatchError("operand mismatch in shift application")
    check_index_digits(op.parts, s.p.p, s.precision)


def shift_apply(s: ShiftVector, op: DiffOp) -> DiffOp:
    """Apply the shift automorphism with parameter s to an operator.

    The shift is conjugation by the unit x^t, for t the integer
    representative of s: x^{-t} d^[beta] x^t sends x^m to
    C(m + t, beta) x^{m - beta}, and by Lucas' theorem C(m + t, beta) mod p
    reads only the digits of t below the p-adic length of beta, so any
    representative gives the same operator.  Requires the precision of s
    to cover the p-adic length of every divided index in `op`.  An
    operand of order 0 comes back as it is: x^-t commutes with it.

    x^-t op, which only shifts the coefficients, is wrapped, not rebuilt,
    and the shift is the one product by x^t, (f x^-t) d^[beta] x^t =
    f sum_j C(t, j) x^-j d^[beta - j]: by `DiffOp.__mul__`, which rolls
    the theta-tables of x^-t op by t where theta's rule finds that cheaper.
    """
    _check_shift_operand(s, op)
    if op.is_laurent():
        return op
    t = tuple(c.to_int() for c in s.components)
    minus_t = tuple(-v for v in t)
    left = op._wrap({beta: f.times_monomial(1, minus_t) for beta, f in op.parts.items()})
    return left * DiffOp.monomial(s.p, s.n, t)


# ---------------------------------------------------------------------------
# monomial automorphisms
# ---------------------------------------------------------------------------


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan elimination, in place, of n integer rows
    on their first n columns A; returns d = det A.  A row swap negates one
    row, so d stays put.  Each step clears the pivot column, dividing
    exactly by the previous pivot, so every entry stays a minor; A ends as
    d times 1, and the columns after it multiplied by d A^-1."""
    n, prev = len(rows), 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], [-x for x in rows[col]]
        top = rows[col]
        pivot = top[col]
        for r, row in enumerate(rows):
            if r != col:
                a = row[col]
                rows[r] = [(pivot * x - a * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return prev


def int_det(matrix) -> int:
    """Exact integer determinant."""
    return _eliminate([list(row) for row in matrix])


def int_inverse_unimodular(matrix) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix A with determinant d = +-1, read off
    the elimination of [A | 1], which ends as [d 1 | d A^-1]."""
    n = len(matrix)
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix)]
    det = _eliminate(rows)
    if det not in (1, -1):
        raise NotGL(f"determinant {det} is not +-1")
    return tuple(tuple(det * x for x in row[n:]) for row in rows)


class MonomialAut(_Value):
    """x_j -> scalars[j] * x^(column j of matrix), a Laurent algebra
    automorphism; acts on operators by conjugation."""

    __slots__ = ("matrix", "scalars", "_inverse")  # _inverse: inverse_matrix, once found

    def _validate(self):
        n = len(self.scalars)
        if n < 1:
            raise ValueError("need at least one variable")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise MismatchError("matrix must be n x n")
        if int_det(self.matrix) not in (1, -1):
            raise NotGL(f"matrix {self.matrix} has determinant != +-1")
        p = self.scalars[0].p
        for lam in self.scalars:
            if lam.p != p:
                raise MismatchError("scalars disagree on the prime")
            if lam.value == 0:
                raise ValueError("scalars must be nonzero")

    @property
    def p(self) -> Prime:
        return self.scalars[0].p

    @property
    def n(self) -> int:
        return len(self.scalars)

    @property
    def inverse_matrix(self) -> tuple[tuple[int, ...], ...]:
        """A^-1, inverted once per automorphism."""
        if self._inverse is None:
            _assign(self, "_inverse", int_inverse_unimodular(self.matrix))
        return self._inverse

    @classmethod
    def create(cls, matrix, scalars, p) -> "MonomialAut":
        p = as_prime(p)
        return cls(
            tuple(tuple(int(e) for e in row) for row in matrix),
            tuple(FpScalar(int(v) % p.p, p) for v in scalars),
        )

    @classmethod
    def identity(cls, p, n) -> "MonomialAut":
        p = as_prime(p)
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(eye, tuple(FpScalar(1, p) for _ in range(n)))

    def is_identity(self) -> bool:
        return (all(lam.value == 1 for lam in self.scalars)
                and all(e == (i == j) for i, row in enumerate(self.matrix)
                        for j, e in enumerate(row)))

    def apply_exponents(self, gamma) -> tuple[int, tuple[int, ...]]:
        """Image of the monomial x^gamma as (coefficient, exponent vector)."""
        pp = self.p.p
        n = self.n
        coeff = 1
        for j in range(n):
            if gamma[j]:
                coeff = coeff * pow(self.scalars[j].value, gamma[j], pp) % pp
        exps = tuple(
            sum(self.matrix[i][j] * gamma[j] for j in range(n)) for i in range(n)
        )
        return coeff, exps

    def apply_laurent(self, f: LaurentPoly) -> LaurentPoly:
        if f.p != self.p or f.n != self.n:
            raise MismatchError("operand mismatch in monomial automorphism")
        # A is invertible, so distinct monomials keep distinct images
        out: dict[tuple[int, ...], int] = {}
        for gamma, c in f.terms.items():
            coeff, exps = self.apply_exponents(gamma)
            out[exps] = c * coeff % self.p.p
        return LaurentPoly.zero(self.p, self.n)._wrap(out)

    def compose(self, other: "MonomialAut") -> "MonomialAut":
        """self after other."""
        if self.p != other.p or self.n != other.n:
            raise MismatchError("automorphism mismatch")
        n = self.n
        pp = self.p.p
        a, b = self.matrix, other.matrix
        matrix = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        scal = tuple(
            FpScalar(lam.value * self.apply_exponents(col)[0] % pp, self.p)
            for lam, col in zip(other.scalars, zip(*b))
        )
        return MonomialAut(matrix, scal)

    def inverse(self) -> "MonomialAut":
        binv = self.inverse_matrix
        scal = tuple(
            FpScalar(self.apply_exponents([-e for e in col])[0], self.p) for col in zip(*binv)
        )
        return MonomialAut(binv, scal)


def monomial_apply(tau: MonomialAut, op: DiffOp) -> DiffOp:
    """Conjugate an operator by a monomial automorphism: `FactoredAut.apply`
    with the zero shift, at a precision covering the divided indices of op.
    The tests check it against the operator recovered from its action
    f -> tau(op * tau^{-1}(f))."""
    digits = index_digits(op.parts, tau.p.p)
    return FactoredAut(ShiftVector.zeros(tau.p, tau.n, digits), tau).apply(op)


# ---------------------------------------------------------------------------
# truncated generator images
# ---------------------------------------------------------------------------


class GeneratorImages(_Value):
    """A truncated presentation of an automorphism: images of x_i, of
    x_i^{-1}, and of the divided-power levels d_i^[p^k] for k < precision."""

    # _factored: the FactoredAut that factorize certified
    __slots__ = ("p", "n", "precision", "x_images", "xinv_images", "d_images", "_factored")

    def _validate(self):
        _assign(self, "p", as_prime(self.p))
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        if len(self.x_images) != self.n or len(self.xinv_images) != self.n:
            raise MismatchError("need one x image and one inverse image per variable")
        if len(self.d_images) != self.n or any(
            len(row) != self.precision for row in self.d_images
        ):
            raise MismatchError("divided-power images must form an n x precision grid")
        for img in (*self.x_images, *self.xinv_images, *(d for row in self.d_images for d in row)):
            if img.p != self.p or img.n != self.n:
                raise MismatchError("image operator mismatch")

    @classmethod
    def identity(cls, p, n, precision) -> "GeneratorImages":
        p = as_prime(p)
        return cls(
            p,
            n,
            precision,
            tuple(DiffOp.from_laurent(LaurentPoly.variable(p, n, i)) for i in range(1, n + 1)),
            tuple(DiffOp.from_laurent(LaurentPoly.variable(p, n, i, -1)) for i in range(1, n + 1)),
            tuple(
                tuple(DiffOp.partial(p, n, i, p.p ** k) for k in range(precision))
                for i in range(1, n + 1)
            ),
        )

    def restriction(self) -> MonomialAut:
        """The monomial automorphism read off from the x images."""
        cols = []
        scal = []
        for i in range(self.n):
            xi = self.x_images[i]
            if not xi.is_laurent():
                raise NotAUnit(f"image of x{i + 1} has positive order")
            lam, exps = xi.to_laurent().unit_decompose()
            unit = (xi * self.xinv_images[i]).to_laurent() if self.xinv_images[i].is_laurent() else None
            if unit is None or not unit.is_one():
                raise NotAUnit(f"x{i + 1} image and its declared inverse do not multiply to 1")
            cols.append(exps)
            scal.append(lam)
        matrix = tuple(tuple(cols[j][i] for j in range(self.n)) for i in range(self.n))
        return MonomialAut(matrix, tuple(scal))  # raises NotGL unless det = +-1

    def fixes_variables(self) -> bool:
        ident = GeneratorImages.identity(self.p, self.n, 1)
        return self.x_images == ident.x_images and self.xinv_images == ident.xinv_images


def shift_generator_images(s: ShiftVector) -> GeneratorImages:
    """Generator images of the shift automorphism with parameter s."""
    return FactoredAut(s, MonomialAut.identity(s.p, s.n)).to_images()


def monomial_generator_images(tau: MonomialAut, precision: int) -> GeneratorImages:
    """Generator images of a monomial automorphism acting by conjugation."""
    return FactoredAut(ShiftVector.zeros(tau.p, tau.n, precision), tau).to_images()


def _map_images(aut: FactoredAut, h: GeneratorImages) -> GeneratorImages:
    """Images of aut after h: aut applied to every image of h."""
    if aut.p != h.p or aut.n != h.n:
        raise MismatchError("automorphism mismatch")
    if aut.precision != h.precision:
        raise PrecisionMismatch(f"precision mismatch: {aut.precision} vs {h.precision}")
    fn = aut.apply
    return GeneratorImages(
        h.p,
        h.n,
        h.precision,
        tuple(fn(img) for img in h.x_images),
        tuple(fn(img) for img in h.xinv_images),
        tuple(tuple(fn(img) for img in row) for row in h.d_images),
    )


def apply_images(g: GeneratorImages, op: DiffOp) -> DiffOp:
    """Apply the automorphism presented by g to an arbitrary operator:
    `factorize(g).apply(op)`.  Images that present no automorphism raise
    `factorize`'s error; every index's p-adic length must fit inside
    g.precision."""
    if op.p != g.p or op.n != g.n:
        raise MismatchError("operand mismatch")
    return factorize(g).apply(op)


def compose_images(g: GeneratorImages, h: GeneratorImages) -> GeneratorImages:
    """Images of the composite automorphism g after h."""
    return _map_images(factorize(g), h)


def shift_compose_images(s: ShiftVector, h: GeneratorImages) -> GeneratorImages:
    """Images of (shift s) after h, using the closed-form shift action."""
    return _map_images(FactoredAut(s, MonomialAut.identity(s.p, s.n)), h)


def validate_generator_images(g: GeneratorImages) -> CheckReport:
    """Check the defining relations on a truncated set of generator images.

    Exactly: x images are two-sided units against their declared inverses;
    x images commute; level images commute; [d_i^[p^k], x_j] equals
    delta_ij times E_ik, the image of d_i^[p^k - 1]; and every level image
    has vanishing p-th power.

    The images are certified first, as `factorize` does and with its memo
    (`_certify`, not the public name).  Images that factor are those of the
    automorphism shift s after tau, which preserves every relation, so every
    check passes with no table and no product of images.  Images that the
    certificate rejects have each relation decided (`_decide_relations`),
    which words every failure.  Both reports list the checks of `_relations`,
    in its order.
    """
    levels = [(i, k) for i in range(g.n) for k in range(g.precision)]
    try:
        _certify(g)
        verdicts = None
    except InvalidAutomorphism:
        verdicts = _decide_relations(g, levels)
    report = CheckReport("generator image relations")
    for name, key in _relations(g.n, levels):
        report.add(name, verdicts is None or verdicts[key])
    return report


def _relations(n: int, levels: list) -> list[tuple[str, tuple]]:
    """The checks of `validate_generator_images` in report order, each a
    name and the key of its verdict in `_decide_relations`."""
    return ([(f"unit x[{i + 1}]", ("unit", i)) for i in range(n)]
            + [(f"commute x[{i + 1}] x[{j + 1}]", ("x", i, j))
               for i, j in combinations(range(n), 2)]
            + [(f"commute d[{i + 1}]^[p^{k}] d[{j + 1}]^[p^{l}]", ("commute", (i, k), (j, l)))
               for (i, k), (j, l) in combinations(levels, 2)]
            + [(f"bracket [d[{i + 1}]^[p^{k}], x[{j + 1}]]", ("bracket", i, k, j))
               for i, k in levels for j in range(n)]
            + [(f"p-th power d[{i + 1}]^[p^{k}]", ("power", i, k)) for i, k in levels])


def _decide_relations(g: GeneratorImages, levels: list) -> dict[tuple, bool]:
    """The verdicts of `validate_generator_images`, by their keys in
    `_relations`.

    The unit and x checks multiply Laurent polynomials as `DiffOp`s.  The
    level relations run on theta-tables where theta's rule admits them
    (`theta.validation_tables`), and on `DiffOp`s otherwise, with the same
    verdicts: the tables are a faithful image of the operators.  E_ik =
    prod_{l<k} (d_i^[p^l])^{p-1} / (p-1)!, one running product per
    variable, and the brackets multiply each level image by each x image.

    The commutators and the p-th powers are decided by the module action
    where it suffices.  Let the x images X_j be monomials lambda_j x^(a_j)
    with det [a_1 ... a_n] = +-1, so that an operator commuting with every
    X_j is a Laurent polynomial C, and C = 0 iff C(1) = 0.  Take level
    images D_a = d_i^[p^k] and D_b = d_j^[p^l] whose brackets pass, where
    D_a commutes with the lower levels of variable j, so with E_jl, and D_b
    with those of variable i.  By Jacobi, [[D_a, D_b], X_r] = [D_a, [D_b,
    X_r]] - [D_b, [D_a, X_r]] = delta_jr [D_a, E_jl] - delta_ir [D_b, E_ik]
    = 0, so D_a D_b = D_b D_a iff D_a(D_b(1)) = D_b(D_a(1)).  Likewise, if
    D = D_a also commutes with the lower levels of variable i, [D^p, X_r] =
    delta_ir p D^{p-1} E_ik = 0, so D^p = 0 iff p actions take 1 to 0.  The
    pairs are decided by increasing k + l, since a pair's condition reads
    only pairs of smaller level sum, so the conditions hold up to the
    lowest sum of a pair that fails; where they fail, the check multiplies
    the images.
    """
    p, n, prec = g.p, g.n, g.precision
    pp = p.p
    one = DiffOp.one(p, n)
    xs, xinvs, rows = g.x_images, g.xinv_images, g.d_images
    verdicts = {("unit", i): x * xinv == one and xinv * x == one
                for i, (x, xinv) in enumerate(zip(xs, xinvs))}
    verdicts.update((("x", i, j), xs[i] * xs[j] == xs[j] * xs[i])
                    for i, j in combinations(range(n), 2))
    try:  # are the x images monomials on a unimodular matrix
        spans = int_det([x.to_laurent().unit_decompose()[1] for x in xs]) in (1, -1)
    except (MismatchError, NotAUnit):  # positive order, or not one term
        spans = False
    from .theta import validation_tables

    tables = validation_tables(xs, rows, one)
    if tables is not None:
        xs, rows, one = tables
    below = {}  # E_ik, the image of d_i^[p^k - 1]
    inv_fact = _inverse_factorial(pp - 1, pp)
    for i in range(n):
        running = one
        for k in range(prec):
            below[i, k] = running
            if k + 1 < prec:
                step = (rows[i][k] ** (pp - 1)).scale(inv_fact)
                running = step if k == 0 else running * step
    for i, k in levels:
        dik = rows[i][k]
        for j in range(n):
            com = dik * xs[j] - xs[j] * dik
            verdicts["bracket", i, k, j] = com == below[i, k] if i == j else com.is_zero()
    # the levels whose relations the module action may decide, with their image of 1
    constant = LaurentPoly.one(p, n)
    at_one = {(i, k): rows[i][k].act(constant) for i, k in levels
              if spans and all(verdicts["bracket", i, k, j] for j in range(n))}
    lowest_failing_sum = 2 * prec  # every pair of smaller level sum commutes
    for a, b in sorted(combinations(levels, 2), key=lambda ab: ab[0][1] + ab[1][1]):
        (i, k), (j, l) = a, b
        # a commutes with the levels of j below l, and b with those of i below k
        if a in at_one and b in at_one and k + l <= lowest_failing_sum:
            ok = rows[i][k].act(at_one[b]) == rows[j][l].act(at_one[a])
        else:
            ok = rows[i][k] * rows[j][l] == rows[j][l] * rows[i][k]
        verdicts["commute", a, b] = ok
        if not ok:
            lowest_failing_sum = min(lowest_failing_sum, k + l)
    for i, k in levels:
        # the level commutes with those of i below k, pairs of sum below 2k
        if (i, k) in at_one and 2 * k <= lowest_failing_sum:
            f = at_one[i, k]
            for _ in range(pp - 1):
                if not f:
                    break
                f = rows[i][k].act(f)
            verdicts["power", i, k] = not f
        else:
            verdicts["power", i, k] = (rows[i][k] ** pp).is_zero()
    return verdicts


# ---------------------------------------------------------------------------
# digit extraction and factorization
# ---------------------------------------------------------------------------


class FactoredAut(_Value):
    """An order preserving automorphism in factored form: a shift followed
    after a monomial automorphism (apply tau first, then the shift)."""

    __slots__ = ("shift", "tau", "_ainv_and_t")  # (A^{-1}, A^{-1} s) for apply; () at tau = 1

    def _validate(self):
        if self.shift.p != self.tau.p or self.shift.n != self.tau.n:
            raise MismatchError("factors disagree on prime or variable count")

    @property
    def p(self) -> Prime:
        return self.shift.p

    @property
    def n(self) -> int:
        return self.shift.n

    @property
    def precision(self) -> int:
        return self.shift.precision

    def is_identity(self) -> bool:
        return self.shift.is_zero() and self.tau.is_identity()

    def compose(self, other: "FactoredAut") -> "FactoredAut":
        """self after other.  The monomial factor twists the shift of the
        right operand by its exponent matrix."""
        if self.precision != other.precision:
            raise PrecisionMismatch("precision mismatch in composition")
        return FactoredAut(
            self.shift + matrix_shift(self.tau.matrix, other.shift),
            self.tau.compose(other.tau),
        )

    def inverse(self) -> "FactoredAut":
        tinv = self.tau.inverse()
        return FactoredAut(-matrix_shift(tinv.matrix, self.shift), tinv)

    def apply(self, op: DiffOp) -> DiffOp:
        """Apply the shift s after tau to an operator in closed form (see
        the module docstring).  C(m + t_i, beta_i) mod p reads only t_i mod
        p^len(beta_i), so that residue keys the expansion of a part
        (`theta.expansion`, which also picks its engine) with the rows of
        A^{-1} that it reads, those of the nonzero beta_i; the terms are
        summed per output index with no intermediate operator.  At tau = 1
        it is `shift_apply`."""
        if self._ainv_and_t is None:
            ainv = () if self.tau.is_identity() else self.tau.inverse_matrix
            s = [c.to_int() for c in self.shift.components]
            t = [sum(a * v for a, v in zip(row, s)) for row in ainv]
            _assign(self, "_ainv_and_t", ainv and (ainv, t))
        if not self._ainv_and_t:
            return shift_apply(self.shift, op)
        from .theta import expansion

        _check_shift_operand(self.shift, op)
        tau, (ainv, t), pp = self.tau, self._ainv_and_t, self.p.p
        zero = (0,) * self.n
        acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for beta, f in op.parts.items():
            coeff = tau.apply_laurent(f.times_monomial(1, tuple(-b for b in beta))).terms.items()
            residue = tuple(v % pp ** padic_length(b, pp) for v, b in zip(t, beta))
            rows = tuple([row if b else zero for row, b in zip(ainv, beta)])  # the rows it reads
            _add_into(acc, [((j, j), c) for j, c in expansion(rows, beta, pp, residue)], coeff, pp)
        return op._from_terms(acc)

    def to_images(self) -> GeneratorImages:
        """Truncated generator images of the factored automorphism."""
        return _map_images(self, GeneratorImages.identity(self.p, self.n, self.precision))


def _read_shift(g: GeneratorImages, tau: MonomialAut) -> FactoredAut:
    """Read g = (shift s) after tau off the order-0 parts of the level
    images, then certify it level by level, lowest first.

    g is also tau after the shift t = A^{-1} s, so the order-0 part of the
    image of d_i^[p^k] is digit k of t_i times tau(x_i^{-p^k}) =
    lambda_i^{-1} x^{-p^k A e_i}; a missing coefficient reads as 0.  The
    certificate compares each level image with the closed form on
    d_i^[p^k], x^{-p^k A e_i} lambda_i^{-1} C((A^{-1} theta)_i + t_i,
    p^k), rebuilt by `FactoredAut.apply`, and words the first difference;
    the x images are never conjugated.  The images of one automorphism
    satisfy every defining relation, so a set that passes needs no
    relation checked (`validate_generator_images`).
    """
    p, n, prec = g.p, g.n, g.precision
    pp, zero = p.p, (0,) * n
    levels = [(i, k) for k in range(prec) for i in range(n)]
    unit = {(i, k): tau.apply_exponents(tuple(-pp ** k if j == i else 0 for j in range(n)))
            for i, k in levels}  # tau(x_i^{-p^k}) as (scalar, exponent)
    digits = [[0] * prec for _ in range(n)]
    for (i, k), (scale, exps) in unit.items():
        order0 = g.d_images[i][k].parts.get(zero)
        if order0 is not None:
            digits[i][k] = order0.terms.get(exps, 0) * pow(scale, -1, pp) % pp
    t = ShiftVector.from_digits(digits, p)
    aut = FactoredAut(matrix_shift(tau.matrix, t), tau)
    for i, k in levels:
        image, rebuilt = g.d_images[i][k], aut.apply(DiffOp.partial(p, n, i + 1, pp ** k))
        if image == rebuilt:
            continue
        wrong = image - rebuilt
        name = f"perturbation of d{i + 1}^[{pp ** k}]"
        if not wrong.is_laurent():
            raise NotSigmaForm(f"{name} has positive order")
        # the digit was read off this order-0 part, so it is more than a
        # multiple of tau(x_i^{-p^k})
        try:
            _, exps = image.parts[zero].unit_decompose()
        except NotAUnit as exc:
            raise NotSigmaForm(f"{name} is not a monomial") from exc
        raise NotSigmaForm(f"{name} sits on x^{exps}, expected x^{unit[i, k][1]}")
    return aut


def extract_digits(g: GeneratorImages) -> ShiftVector:
    """Recover the shift parameter from images that fix every variable."""
    if not g.fixes_variables():
        raise NotInStabilizer("images do not fix the variables pointwise")
    return _read_shift(g, MonomialAut.identity(g.p, g.n)).shift


def _certify(g: GeneratorImages) -> FactoredAut:
    """`_read_shift` at the x images' tau, certified once per images and
    kept on them (`GeneratorImages._factored`)."""
    if g._factored is None:
        _assign(g, "_factored", _read_shift(g, g.restriction()))
    return g._factored


def factorize(g: GeneratorImages) -> FactoredAut:
    """Factor generator images into a shift and the monomial automorphism
    read off from the x images; a validated set was certified already."""
    return _certify(g)
