"""Independent brute-force verifiers.

These are the ground-truth side of every derived formula in the package:
a window-restricted kernel computation for the map d^{p-1} + Frobenius,
an action-equivalence sampler, and a randomized suite for the defining
relations of the operator ring.  Everything is exact and deterministic
under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Hashable, Mapping, Sequence

from .diffop import DiffOp
from .errors import MismatchError, WindowTooLarge
from .laurent import LaurentPoly
from .report import CheckReport
from .scalars import Prime, as_prime, binom_int_mod_p

MAX_WINDOW_MONOMIALS = 10_000


@dataclass(frozen=True)
class ExponentWindow:
    """A box of exponent vectors, per-variable bounds inclusive."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
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

    def x(i):
        return DiffOp.from_laurent(LaurentPoly.variable(p, n, i))

    def dd(i, k):
        return DiffOp.partial(p, n, i, k)

    # [x_i, x_j] = 0
    count, bad = 0, None
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            count += 1
            if x(i) * x(j) != x(j) * x(i):
                bad = bad or f"[x{i}, x{j}] != 0"
    report.add("x commutators", bad is None, bad or f"{count} instances")

    # d_i^[k] d_i^[l] = C(k+l, k) d_i^[k+l]
    count, bad = 0, None
    for i in range(1, n + 1):
        for k in range(1, max_index + 1):
            dik = dd(i, k)
            for l in range(1, max_index + 1):
                count += 1
                c = binom_int_mod_p(k + l, k, p)
                if dik * dd(i, l) != dd(i, k + l).scale(c.value):
                    bad = bad or f"d{i}^[{k}] d{i}^[{l}]"
                    break
            if bad:
                break
    report.add("divided power composition", bad is None, bad or f"{count} instances")

    # [d_i^[k], d_j^[l]] = 0 for i != j
    count, bad = 0, None
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, max_index + 1):
                dik = dd(i, k)
                for l in range(1, max_index + 1):
                    count += 1
                    djl = dd(j, l)
                    if dik * djl != djl * dik:
                        bad = bad or f"[d{i}^[{k}], d{j}^[{l}]] != 0"
                        break
                if bad:
                    break
    report.add("divided power commutators", bad is None, bad or f"{count} instances")

    # [d_i^[k], x_j] = delta_ij d_i^[k-1]
    count, bad = 0, None
    one = DiffOp.one(p, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, max_index + 1):
                count += 1
                com = dd(i, k) * x(j) - x(j) * dd(i, k)
                if i == j:
                    expect = dd(i, k - 1) if k > 1 else one
                else:
                    expect = DiffOp.zero(p, n)
                if com != expect:
                    bad = bad or f"[d{i}^[{k}], x{j}]"
                    break
            if bad:
                break
    report.add("variable brackets", bad is None, bad or f"{count} instances")

    # random multi-index instances of the composition rule
    count, bad = 0, None
    for _ in range(trials):
        alpha = tuple(rng.randint(0, max_index) for _ in range(n))
        beta = tuple(rng.randint(0, max_index) for _ in range(n))
        count += 1
        da = DiffOp(p, n, {alpha: LaurentPoly.one(p, n)})
        db = DiffOp(p, n, {beta: LaurentPoly.one(p, n)})
        c = 1
        for a, b in zip(alpha, beta):
            c = c * binom_int_mod_p(a + b, a, p).value % p.p
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        expect = DiffOp(p, n, {gamma: LaurentPoly.one(p, n)}).scale(c)
        if da * db != expect:
            bad = bad or f"d^{alpha} d^{beta}"
    report.add("multi-index composition", bad is None, bad or f"{count} instances")

    bad = pth_power_failure(p, n, rng, trials)
    report.add("binomial p-th power", bad is None, bad or f"{trials} instances")

    return report


def pth_power_failure(p: Prime, n: int, rng: random.Random, trials: int) -> str | None:
    """Check (d_i + f)^p = d_i^{p-1} f + f^p, a Weyl algebra identity, on
    `trials` random i and Laurent polynomials f drawn from `rng`; the first
    failing instance, or None when all hold."""
    bad = None
    for _ in range(trials):
        i = rng.randint(1, n)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(-2, 2) for _ in range(n))
            terms[exps] = rng.randint(1, p.p - 1)
        f = LaurentPoly(p, n, terms)
        base = DiffOp.partial(p, n, i) + DiffOp.from_laurent(f)
        power = DiffOp.one(p, n)
        for _ in range(p.p):
            power = power * base
        rhs = DiffOp.from_laurent((-f.divided_partial(i, p.p - 1)) + f.frobenius())
        if power != rhs:
            bad = bad or f"(d{i} + {f})^{p.p}"
    return bad
