"""Independent brute-force verifiers.

These are the ground-truth side of every derived formula in the package:
a window-restricted kernel computation for the map d^{p-1} + Frobenius,
an action-equivalence sampler, and a randomized suite for the defining
relations of the operator ring.  Everything is exact and deterministic
under a seed.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product as iproduct
from math import prod
from typing import Callable, Hashable, Mapping, Sequence

from .diffop import DiffOp
from .errors import MismatchError, WindowTooLarge
from .laurent import LaurentPoly
from .report import CheckReport
from .scalars import Prime, _Value, as_prime, binom_int_mod_p

MAX_WINDOW_MONOMIALS = 10_000


class ExponentWindow(_Value):
    """A box of exponent vectors, per-variable bounds inclusive."""

    __slots__ = ("lo", "hi")  # tuple[int, ...] each

    def _validate(self):
        if len(self.lo) != len(self.hi):
            raise MismatchError("window bounds disagree on dimension")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty window {self.lo}..{self.hi}")

    @classmethod
    def cube(cls, lo: int, hi: int, n: int) -> "ExponentWindow":
        return cls((lo,) * n, (hi,) * n)

    @property
    def n(self) -> int:
        return len(self.lo)

    def count(self) -> int:
        c = 1
        for l, h in zip(self.lo, self.hi):
            c *= h - l + 1
        return c

    def monomials(self):
        """Exponent vectors in lexicographic order."""
        return iproduct(*[range(l, h + 1) for l, h in zip(self.lo, self.hi)])

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(rng.randint(l, h) for l, h in zip(self.lo, self.hi))


def nullspace_mod_p(columns: Sequence[Mapping[Hashable, int]], p: int) -> list[dict[int, int]]:
    """Basis of the null space mod p of a matrix given by sparse columns.

    Each column maps a row key to its entry.  The columns are reduced left
    to right, and each pivot keeps the combination of original columns it
    came from, so a column c that reduces to zero yields the kernel vector
    e_c - sum_k R[k, c] e_(pivot k).  That is the basis read off the
    reduced row echelon form R: one vector per free column, in column
    order, each a dict from column index to nonzero residue.
    """
    pivot_of_row: dict[Hashable, int] = {}
    pivots: list[tuple[Hashable, dict, dict[int, int]]] = []  # (row, column, combination)
    basis = []
    for c, column in enumerate(columns):
        vec = {r: v % p for r, v in column.items() if v % p}
        combo = {c: 1}
        # a pivot's column is zero on the rows of earlier pivots, so clearing
        # the earliest pivot row left in vec never refills an earlier one
        while hits := [pivot_of_row[r] for r in vec if r in pivot_of_row]:
            row, pcol, pcombo = pivots[min(hits)]
            f = vec[row]
            for target, source in ((vec, pcol), (combo, pcombo)):
                for key, v in source.items():
                    w = (target.get(key, 0) - f * v) % p
                    if w:
                        target[key] = w
                    else:
                        target.pop(key, None)
        if not vec:
            basis.append(dict(sorted(combo.items())))
            continue
        row = next(iter(vec))
        inv = pow(vec[row], -1, p)
        pivot_of_row[row] = len(pivots)
        pivots.append((
            row,
            {r: v * inv % p for r, v in vec.items()},
            {j: v * inv % p for j, v in combo.items()},
        ))
    return basis


def kernel_bruteforce(i: int, window: ExponentWindow, p, n: int) -> list[LaurentPoly]:
    """Kernel of f -> d_i^{p-1} f + f^p restricted to a monomial window.

    The ordinary power d_i^{p-1} equals -(p-1)! times the divided power,
    i.e. minus d_i^[p-1].  The map is assembled exactly as a matrix over
    F_p from the window monomials into all monomials it reaches, so any
    kernel vector found here is a kernel element of the unrestricted map.
    """
    p = as_prime(p)
    if window.n != n:
        raise MismatchError("window dimension does not match variable count")
    if not 1 <= i <= n:
        raise MismatchError(f"variable index {i} out of range 1..{n}")
    if window.count() > MAX_WINDOW_MONOMIALS:
        raise WindowTooLarge(
            f"window holds {window.count()} monomials, budget is {MAX_WINDOW_MONOMIALS}"
        )
    monomials = sorted(window.monomials())
    images = []
    for exps in monomials:
        f = LaurentPoly.monomial(p, n, exps)
        images.append(((-f.divided_partial(i, p.p - 1)) + f.frobenius()).terms)
    return [
        LaurentPoly(p, n, {monomials[j]: v for j, v in vec.items()})
        for vec in nullspace_mod_p(images, p.p)
    ]


def action_equiv_check(
    op: DiffOp,
    reference: Callable[[tuple[int, ...]], LaurentPoly],
    probes: int,
    window: ExponentWindow,
    seed: int,
) -> bool:
    """Compare an operator against a black-box action on random monomials."""
    rng = random.Random(seed)
    for _ in range(probes):
        exps = window.sample(rng)
        if op.act_monomial(exps) != reference(exps):
            return False
    return True


def relation_suite(p, n: int, max_index: int, trials: int, seed: int) -> CheckReport:
    """Exhaustive defining relations up to max_index plus randomized checks."""
    p = as_prime(p)
    rng = random.Random(seed)
    report = CheckReport(f"defining relations p={p.p} n={n}")
    variables, indices = range(1, n + 1), range(1, max_index + 1)
    pairs = list(combinations(variables, 2))  # i < j, in lexicographic order

    @cache  # each operand is built once and shared by every instance that uses it
    def x(i):
        return DiffOp.from_laurent(LaurentPoly.variable(p, n, i))

    @cache
    def dd(i, k):
        return DiffOp.partial(p, n, i, k)

    def d(beta):
        return DiffOp(p, n, {beta: LaurentPoly.one(p, n)})

    def x_commutators():  # [x_i, x_j] = 0
        for i, j in pairs:
            yield x(i) * x(j) == x(j) * x(i), lambda: f"[x{i}, x{j}] != 0"

    def compositions():  # d_i^[k] d_i^[l] = C(k+l, k) d_i^[k+l]
        for i, k in iproduct(variables, indices):
            dik = dd(i, k)
            for l in indices:
                c = binom_int_mod_p(k + l, k, p).value
                yield dik * dd(i, l) == dd(i, k + l).scale(c), lambda: f"d{i}^[{k}] d{i}^[{l}]"

    def d_commutators():  # [d_i^[k], d_j^[l]] = 0 for i != j
        for (i, j), k in iproduct(pairs, indices):
            dik = dd(i, k)
            for l in indices:
                djl = dd(j, l)
                yield dik * djl == djl * dik, lambda: f"[d{i}^[{k}], d{j}^[{l}]] != 0"

    def brackets():  # [d_i^[k], x_j] = delta_ij d_i^[k-1]
        zero = DiffOp.zero(p, n)
        for i, j, k in iproduct(variables, variables, indices):
            dik = dd(i, k)
            expect = dd(i, k - 1) if i == j else zero
            yield dik * x(j) - x(j) * dik == expect, lambda: f"[d{i}^[{k}], x{j}]"

    def multi_index():  # random instances of the composition rule
        for _ in range(trials):
            alpha = tuple(rng.randint(0, max_index) for _ in range(n))
            beta = tuple(rng.randint(0, max_index) for _ in range(n))
            c = prod(binom_int_mod_p(a + b, a, p).value for a, b in zip(alpha, beta))
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            yield d(alpha) * d(beta) == d(gamma).scale(c), lambda: f"d^{alpha} d^{beta}"

    report.tally("x commutators", x_commutators(), "instances")
    report.tally("divided power composition", compositions(), "instances")
    report.tally("divided power commutators", d_commutators(), "instances")
    report.tally("variable brackets", brackets(), "instances")
    report.tally("multi-index composition", multi_index(), "instances")
    report.tally("binomial p-th power", pth_power_instances(p, n, rng, trials), "instances")
    return report


def pth_power_instances(p: Prime, n: int, rng: random.Random, trials: int):
    """`trials` instances of (d_i + f)^p = d_i^{p-1} f + f^p, a Weyl algebra
    identity, for random i and Laurent polynomials f drawn from `rng`, as
    `(holds, label)` pairs for `CheckReport.tally`."""
    for _ in range(trials):
        i = rng.randint(1, n)
        f = LaurentPoly(p, n, {  # a key is drawn before its value
            tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(1, p.p - 1)
            for _ in range(rng.randint(0, 4))})
        base = DiffOp.partial(p, n, i) + DiffOp.from_laurent(f)
        power = DiffOp.one(p, n)
        for _ in range(p.p):
            power = power * base
        rhs = DiffOp.from_laurent((-f.divided_partial(i, p.p - 1)) + f.frobenius())
        yield power == rhs, lambda: f"(d{i} + {f})^{p.p}"
