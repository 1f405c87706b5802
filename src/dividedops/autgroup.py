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
conjugation by the unit x^s for any integer representative of s (one
operator product); `monomial_apply` is the zero shift.

`theta.expansion` finds and caches the Mahler coefficients of a part;
`theta` alone knows the table format and the rule that picks between a
byte table with one inverse Mahler transform and Newton differences.

`GeneratorImages` presents an automorphism by finitely many images; one
helper maps an automorphism's operator action over them, which composes
automorphisms and builds the images of `FactoredAut.to_images` from the
identity.  The factorization of images is read off the x images (tau)
and the level images: the order-0 part of the image of d_i^[p^k] under
the shift t is C(t_i, p^k) x_i^{-p^k}, and C(t_i, p^k) is digit k of
t_i by Lucas' theorem; tau keeps order-0 parts, so `extract_digits`
(tau = 1) and `factorize` read the digits of t = A^{-1} s off them, then
certify the reading by rebuilding every level image with the closed form.

`validate_generator_images` checks the defining relations of the level
images on theta-tables (`theta.ThetaTable`), a faithful image of the
operators in which a product is a roll and a pointwise product instead
of a Leibniz expansion, when theta's table rule admits the x and level
images; otherwise on `DiffOp`s, where sparse operators stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .diffop import DiffOp, divided_image_from_levels
from .errors import (
    InsufficientPrecision,
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
    _inverse_factorial,
    as_prime,
    padic_length,
)
from .theta import ThetaTable, expansion, index_digits, tables_fit

# ---------------------------------------------------------------------------
# shift automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftVector:
    """A vector of truncated p-adic integers, one per variable; the
    parameter of a shift automorphism."""

    components: tuple[PadicInt, ...]

    def __post_init__(self):
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
        p = as_prime(p)
        return cls(tuple(PadicInt.from_int(v, p, precision) for v in values))

    @classmethod
    def from_digits(cls, digit_rows, p) -> "ShiftVector":
        p = as_prime(p)
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
    for beta in op.parts:
        for b in beta:
            length = padic_length(b, s.p.p)
            if length > s.precision:
                raise InsufficientPrecision(
                    f"index {b} needs {length} digits, precision is {s.precision}"
                )


def shift_apply(s: ShiftVector, op: DiffOp) -> DiffOp:
    """Apply the shift automorphism with parameter s to an operator.

    The shift is conjugation by the unit x^t, for t the integer
    representative of s: x^{-t} d^[beta] x^t sends x^m to
    C(m + t, beta) x^{m - beta}, and by Lucas' theorem C(m + t, beta) mod p
    reads only the digits of t below the p-adic length of beta, so any
    representative gives the same operator.  Requires the precision of s
    to cover the p-adic length of every divided index in `op`.
    """
    _check_shift_operand(s, op)
    t = [c.to_int() for c in s.components]
    # x^-t only shifts the coefficients; the one product by x^t writes
    # (f x^-t) d^[beta] x^t = f sum_j C(t, j) x^-j d^[beta - j]
    minus_t = tuple(-v for v in t)
    left = DiffOp(s.p, s.n, {beta: f.times_monomial(1, minus_t) for beta, f in op.parts.items()})
    return left * DiffOp.monomial(s.p, s.n, t)


# ---------------------------------------------------------------------------
# monomial automorphisms
# ---------------------------------------------------------------------------


def int_det(matrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[-1][-1]


def int_inverse_unimodular(matrix) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix with determinant +-1, via the adjugate."""
    n = len(matrix)
    det = int_det(matrix)
    if det not in (1, -1):
        raise NotGL(f"determinant {det} is not +-1")
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = int_det(minor)
            if (i + j) % 2:
                cof = -cof
            inv[j][i] = cof * det
    return tuple(tuple(row) for row in inv)


@dataclass(frozen=True)
class MonomialAut:
    """x_j -> scalars[j] * x^(column j of matrix), a Laurent algebra
    automorphism; acts on operators by conjugation."""

    matrix: tuple[tuple[int, ...], ...]
    scalars: tuple[FpScalar, ...]

    def __post_init__(self):
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
        binv = int_inverse_unimodular(self.matrix)
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


@dataclass(frozen=True)
class GeneratorImages:
    """A truncated presentation of an automorphism: images of x_i, of
    x_i^{-1}, and of the divided-power levels d_i^[p^k] for k < precision."""

    p: Prime
    n: int
    precision: int
    x_images: tuple[DiffOp, ...]
    xinv_images: tuple[DiffOp, ...]
    d_images: tuple[tuple[DiffOp, ...], ...]

    def __post_init__(self):
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

    def divided_image(self, i: int, j: int) -> DiffOp:
        """Image of d_i^[j], reassembled p-adically from the level images."""
        return divided_image_from_levels(self.d_images[i - 1], j)

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
        if int_det(matrix) not in (1, -1):
            raise NotGL(f"exponent matrix {matrix} is not invertible over the integers")
        return MonomialAut(matrix, tuple(scal))

    def fixes_variables(self) -> bool:
        ident = GeneratorImages.identity(self.p, self.n, 1)
        return self.x_images == ident.x_images and self.xinv_images == ident.xinv_images


def shift_generator_images(s: ShiftVector) -> GeneratorImages:
    """Generator images of the shift automorphism with parameter s."""
    return FactoredAut(s, MonomialAut.identity(s.p, s.n)).to_images()


def monomial_generator_images(tau: MonomialAut, precision: int) -> GeneratorImages:
    """Generator images of a monomial automorphism acting by conjugation."""
    return FactoredAut(ShiftVector.zeros(tau.p, tau.n, precision), tau).to_images()


def _map_images(fn, h: GeneratorImages, p: Prime, n: int,
                precision: int | None = None) -> GeneratorImages:
    """Images of phi after h, where fn applies the automorphism phi (on
    `p`, `n` and, when given, `precision`) to one operator."""
    if p != h.p or n != h.n:
        raise MismatchError("automorphism mismatch")
    if precision is not None and precision != h.precision:
        raise PrecisionMismatch(f"precision mismatch: {precision} vs {h.precision}")
    return GeneratorImages(
        h.p,
        h.n,
        h.precision,
        tuple(fn(img) for img in h.x_images),
        tuple(fn(img) for img in h.xinv_images),
        tuple(tuple(fn(img) for img in row) for row in h.d_images),
    )


def apply_images(g: GeneratorImages, op: DiffOp) -> DiffOp:
    """Apply the automorphism presented by g to an arbitrary operator.

    Coefficients map through the Laurent restriction of g; each divided
    power maps through the p-adic factorization of its index into level
    images.  Needs every index's p-adic length to fit inside g.precision.
    """
    if op.p != g.p or op.n != g.n:
        raise MismatchError("operand mismatch")
    tau = g.restriction()
    cache: dict[tuple[int, int], DiffOp] = {}
    result = DiffOp.zero(g.p, g.n)
    for beta, f in op.parts.items():
        img = None
        for i in range(g.n):
            if beta[i]:
                key = (i, beta[i])
                if key not in cache:
                    cache[key] = g.divided_image(i + 1, beta[i])
                img = cache[key] if img is None else img * cache[key]
        coeff = DiffOp.from_laurent(tau.apply_laurent(f))
        result = result + (coeff if img is None else coeff * img)
    return result


def compose_images(g: GeneratorImages, h: GeneratorImages) -> GeneratorImages:
    """Images of the composite automorphism g after h."""
    return _map_images(lambda img: apply_images(g, img), h, g.p, g.n, g.precision)


def shift_compose_images(s: ShiftVector, h: GeneratorImages) -> GeneratorImages:
    """Images of (shift s) after h, using the closed-form shift action."""
    return _map_images(lambda img: shift_apply(s, img), h, s.p, s.n, s.precision)


def validate_generator_images(g: GeneratorImages) -> CheckReport:
    """Check the defining relations on a truncated set of generator images.

    Exactly: x images are two-sided units against their declared inverses;
    x images commute; level images commute; [d_i^[p^k], x_j] equals
    delta_ij times the image of d_i^[p^k - 1]; and every level image has
    vanishing p-th power.

    The unit and x checks multiply Laurent polynomials as `DiffOp`s.  The
    level relations run on theta-tables (`theta.ThetaTable`) when the x
    and level images fit `theta.tables_fit`, and on `DiffOp`s otherwise;
    the tables are a faithful image of the operators, so both give the
    same report.  The image of d_i^[p^k - 1] is prod_{l<k} (d_i^[p^l])^{p-1}
    / (p-1)!, one running product per variable that shares its powers with
    the p-th power checks.
    """
    report = CheckReport("generator image relations")
    p, n, prec = g.p, g.n, g.precision
    pp = p.p
    one = DiffOp.one(p, n)
    for i in range(n):
        ok = (
            g.x_images[i] * g.xinv_images[i] == one
            and g.xinv_images[i] * g.x_images[i] == one
        )
        report.add(f"unit x[{i + 1}]", ok)
    for i in range(n):
        for j in range(i + 1, n):
            ok = g.x_images[i] * g.x_images[j] == g.x_images[j] * g.x_images[i]
            report.add(f"commute x[{i + 1}] x[{j + 1}]", ok)
    xs, rows = g.x_images, g.d_images
    digits = index_digits([beta for op in (*xs, *sum(rows, ())) for beta in op.parts], pp)
    if tables_fit(pp, n, digits):
        xs = [ThetaTable.from_diffop(x, digits) for x in xs]
        rows = [[ThetaTable.from_diffop(d, digits) for d in row] for row in rows]
        one = ThetaTable.from_diffop(one, digits)
    below, nilpotent = {}, {}  # image of d_i^[p^k - 1]; is (image of d_i^[p^k])^p zero
    inv_fact = _inverse_factorial(pp - 1, pp)
    for i in range(n):
        running = one
        for k in range(prec):
            below[i, k] = running
            top = rows[i][k] ** (pp - 1)
            nilpotent[i, k] = (top * rows[i][k]).is_zero()
            if k + 1 < prec:
                running = running * top.scale(inv_fact)
    levels = [(i, k) for i in range(n) for k in range(prec)]
    for a in range(len(levels)):
        for b in range(a + 1, len(levels)):
            (i, k), (j, l) = levels[a], levels[b]
            di = rows[i][k]
            dj = rows[j][l]
            ok = di * dj == dj * di
            report.add(f"commute d[{i + 1}]^[p^{k}] d[{j + 1}]^[p^{l}]", ok)
    for i, k in levels:
        dik = rows[i][k]
        for j in range(n):
            com = dik * xs[j] - xs[j] * dik
            ok = com == below[i, k] if i == j else com.is_zero()
            report.add(f"bracket [d[{i + 1}]^[p^{k}], x[{j + 1}]]", ok)
    for i, k in levels:
        report.add(f"p-th power d[{i + 1}]^[p^{k}]", nilpotent[i, k])
    return report


# ---------------------------------------------------------------------------
# digit extraction and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredAut:
    """An order preserving automorphism in factored form: a shift followed
    after a monomial automorphism (apply tau first, then the shift)."""

    shift: ShiftVector
    tau: MonomialAut

    def __post_init__(self):
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

    @cached_property
    def _ainv_and_t(self):
        """(A^{-1}, t = A^{-1} s) for `apply`, or None at tau = 1; computed
        once, since building the images applies it 2n + n * precision times."""
        if self.tau.is_identity():
            return None
        ainv = int_inverse_unimodular(self.tau.matrix)
        s = [c.to_int() for c in self.shift.components]
        return ainv, [sum(a * v for a, v in zip(row, s)) for row in ainv]

    def apply(self, op: DiffOp) -> DiffOp:
        """Apply the shift s after tau to an operator in closed form (see
        the module docstring).  C(m + t_i, beta_i) mod p reads only t_i mod
        p^len(beta_i), so that residue keys the expansion of a part
        (`theta.expansion`, which also picks its engine).  At tau = 1 it is
        `shift_apply`, whose products write C(theta + s, beta) in time
        proportional to their output, where Newton differences would cost
        |beta|^2 per index."""
        if self._ainv_and_t is None:
            return shift_apply(self.shift, op)
        _check_shift_operand(self.shift, op)
        tau, (ainv, t), pp = self.tau, self._ainv_and_t, self.p.p
        parts = []
        for beta, f in op.parts.items():
            coeff = tau.apply_laurent(f.times_monomial(1, tuple(-b for b in beta)))
            residue = tuple(v % pp ** padic_length(b, pp) for v, b in zip(t, beta))
            parts += [(j, coeff.times_monomial(c, j)) for j, c in expansion(ainv, beta, pp, residue)]
        return DiffOp(self.p, self.n, parts)

    def to_images(self) -> GeneratorImages:
        """Truncated generator images of the factored automorphism."""
        ident = GeneratorImages.identity(self.p, self.n, self.precision)
        return _map_images(self.apply, ident, self.p, self.n)


def _read_shift(g: GeneratorImages, tau: MonomialAut) -> FactoredAut:
    """Read g = (shift s) after tau off the order-0 parts of the level
    images, then certify it by rebuilding them, lowest level first.

    g is also tau after the shift t = A^{-1} s, so the order-0 part of the
    image of d_i^[p^k] is digit k of t_i times tau(x_i^{-p^k}) =
    lambda_i^{-1} x^{-p^k A e_i}; a missing coefficient reads as 0.  The
    certificate compares each level image with `FactoredAut.apply` on
    d_i^[p^k], the closed form x^{-p^k A e_i} lambda_i^{-1}
    C((A^{-1} theta)_i + t_i, p^k); the x images are never conjugated.
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
    aut = FactoredAut(matrix_shift(tau.matrix, ShiftVector.from_digits(digits, p)), tau)
    for i, k in levels:
        image = g.d_images[i][k]
        wrong = image - aut.apply(DiffOp.partial(p, n, i + 1, pp ** k))
        if wrong.is_zero():
            continue
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


def factorize(g: GeneratorImages) -> FactoredAut:
    """Factor generator images into a shift and the monomial automorphism
    read off from the x images."""
    return _read_shift(g, g.restriction())
