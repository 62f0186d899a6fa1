"""Closed forms for the periodic points of f(x) = floor(lam*x + mu).

For lam >= 0 the map is monotone non-decreasing, so it has fixed points
but never cycles; for lam < 0 it is non-increasing, carries at most one
fixed point, and all remaining periodicity sits in 2-cycles (no cycle of
length >= 3 exists for any parameters). Both sets admit exact
descriptions by floors/ceilings of the parameters, with matching
counting formulas; this module evaluates those descriptions on the
integer form of the map, with integer floor division only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Params, _integer_form


@dataclass(frozen=True)
class CountValue:
    """A cardinality: a non-negative integer or infinity."""

    kind: str  # "finite" | "infinite"
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if self.n is None or self.n < 0:
                raise ValueError("finite count requires n >= 0")
        elif self.kind == "infinite":
            if self.n is not None:
                raise ValueError("infinite count carries no n")
        else:
            raise ValueError(f"unknown count kind {self.kind!r}")

    @classmethod
    def finite(cls, n: int) -> CountValue:
        return cls("finite", n)

    @classmethod
    def infinite(cls) -> CountValue:
        return cls("infinite")

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "n": self.n}
        return {"kind": "infinite"}


@dataclass(frozen=True)
class IntegerSet:
    """A set of integers that is empty, one contiguous run, or all of Z.

    Contiguity is deliberate: the fixed-point set is always a single run,
    and the type makes anything else unrepresentable.
    """

    kind: str  # "empty" | "range" | "all_integers"
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "range":
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise ValueError("range requires lo <= hi")
        elif self.kind in ("empty", "all_integers"):
            if self.lo is not None or self.hi is not None:
                raise ValueError(f"{self.kind} carries no bounds")
        else:
            raise ValueError(f"unknown set kind {self.kind!r}")

    @classmethod
    def empty(cls) -> IntegerSet:
        return cls("empty")

    @classmethod
    def run(cls, lo: int, hi: int) -> IntegerSet:
        return cls("range", lo, hi)

    @classmethod
    def all_integers(cls) -> IntegerSet:
        return cls("all_integers")

    def __contains__(self, z: int) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "range":
            return self.lo <= z <= self.hi
        return True

    def size(self) -> CountValue:
        if self.kind == "empty":
            return CountValue.finite(0)
        if self.kind == "range":
            return CountValue.finite(self.hi - self.lo + 1)
        return CountValue.infinite()

    def clip(self, lo: int, hi: int) -> list[int]:
        """Members inside [lo, hi], ascending; symbolic Z clips to the window."""
        if lo > hi:
            raise ValueError("clip window requires lo <= hi")
        if self.kind == "empty":
            return []
        if self.kind == "range":
            return list(range(max(lo, self.lo), min(hi, self.hi) + 1))
        return list(range(lo, hi + 1))

    def to_json(self) -> dict:
        if self.kind == "range":
            return {"kind": "range", "lo": self.lo, "hi": self.hi}
        return {"kind": self.kind}


@dataclass(frozen=True)
class TwoCycleSet:
    """The set of 2-cycles: finitely many unordered pairs, or the lam = -1
    family {{x, c - x} : x in Z, 2x != c} with c = floor(mu).

    Finite pairs are stored canonically: each as (a, b) with a < b, the
    tuple sorted by (a, b) and duplicate-free.
    """

    kind: str  # "finite" | "neg_one_family"
    pairs: tuple[tuple[int, int], ...] = ()
    c: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if self.c is not None:
                raise ValueError("finite set carries no family offset")
            for a, b in self.pairs:
                if a >= b:
                    raise ValueError(f"pair ({a}, {b}) is not canonical (need a < b)")
            if list(self.pairs) != sorted(set(self.pairs)):
                raise ValueError("pairs must be sorted and duplicate-free")
        elif self.kind == "neg_one_family":
            if self.pairs or self.c is None:
                raise ValueError("family requires offset c and no explicit pairs")
        else:
            raise ValueError(f"unknown cycle-set kind {self.kind!r}")

    @classmethod
    def finite(cls, pairs: Iterable[tuple[int, int]]) -> TwoCycleSet:
        canon = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"degenerate pair ({a}, {b})")
            canon.add((min(a, b), max(a, b)))
        return cls("finite", tuple(sorted(canon)))

    @classmethod
    def neg_one_family(cls, c: int) -> TwoCycleSet:
        return cls("neg_one_family", (), c)

    def contains_pair(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self.kind == "finite":
            return (min(a, b), max(a, b)) in self.pairs
        return a + b == self.c

    def size(self) -> CountValue:
        if self.kind == "finite":
            return CountValue.finite(len(self.pairs))
        return CountValue.infinite()

    def clip(self, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
        """Pairs whose both elements lie in [lo, hi], canonically ordered."""
        if lo > hi:
            raise ValueError("clip window requires lo <= hi")
        if self.kind == "finite":
            return tuple((a, b) for a, b in self.pairs if lo <= a and b <= hi)
        out = []
        for a in range(lo, hi + 1):
            b = self.c - a
            if a < b <= hi:
                out.append((a, b))
        return tuple(out)

    def points_in(self, lo: int, hi: int) -> list[int]:
        """Period-2 points inside [lo, hi] (pair partners may fall outside)."""
        if lo > hi:
            raise ValueError("window requires lo <= hi")
        if self.kind == "finite":
            members = {z for pair in self.pairs for z in pair if lo <= z <= hi}
            return sorted(members)
        return [z for z in range(lo, hi + 1) if 2 * z != self.c]

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "pairs": [[a, b] for a, b in self.pairs]}
        return {"kind": "neg_one_family", "c": self.c}


def fixed_points(p: Params) -> IntegerSet:
    """Exact fixed-point set of f, in O(1).

    With f(z) = (scale*z + offset) // den (see ``core._integer_form``),
    f(z) = z exactly when 0 <= s*z + offset < den for s = scale - den,
    whose sign is that of lam - 1. Solving both inequalities for z pins a
    single contiguous integer run (floors flip under a negative s):

        lam > 1 : -(offset // s) .. -((offset - den) // s) - 1
        lam = 1 : all of Z when 0 <= offset < den (i.e. 0 <= mu < 1), else empty
        lam < 1 : (offset - den) // -s + 1 .. offset // -s

    These are ceil(-mu/(lam-1)) .. ceil(-(mu-1)/(lam-1)) - 1 and
    floor(-(mu-1)/(lam-1)) + 1 .. floor(-mu/(lam-1)) with b*d cleared.
    An inverted run means the set is empty.
    """
    scale, offset, den = _integer_form(p)
    s = scale - den
    if s == 0:
        return IntegerSet.all_integers() if 0 <= offset < den else IntegerSet.empty()
    if s > 0:
        lo, hi = -(offset // s), -((offset - den) // s) - 1
    else:
        lo, hi = (offset - den) // -s + 1, offset // -s
    return IntegerSet.run(lo, hi) if lo <= hi else IntegerSet.empty()


def count_fixed_points(p: Params) -> CountValue:
    """Number of fixed points: the size of the run :func:`fixed_points`
    delimits (hi - lo + 1, 0 when inverted, infinite at lam = 1 with
    0 <= mu < 1), in O(1) and without listing."""
    return fixed_points(p).size()


def _two_cycle_runs(p: Params) -> Iterator[tuple[int, int, int]]:
    """Yield (k, x_lo, x_hi): the pairs {x, x + k} with x in x_lo .. x_hi
    are exactly the 2-cycles of gap k; lam = -1 is excluded.

    f(x) = x + k and f(x + k) = x say 0 <= s*x + offset - den*k < den and
    0 <= s*x + offset + scale*k < den (s = scale - den). Subtracting them
    gives |scale + den|*k < den, i.e. |lam + 1|*k < 1, so the gap is
    bounded by k_hi = (den - 1) // |scale + den| and no k exists when
    lam >= 0 or lam <= -2. For lam < 0 one has s < 0, and intersecting the
    two bands of s*x gives one floor-delimited run per k:

        x_lo = (den + min(den, -scale)*k - offset) // s + 1
        x_hi = (max(den, -scale)*k - offset) // s

    For -1 < lam < 0 these read floor((-lam*k - mu + 1)/(lam-1)) + 1 ..
    floor((k - mu)/(lam-1)); for -2 < lam < -1, floor((k + 1 - mu)/(lam-1))
    + 1 .. floor((-lam*k - mu)/(lam-1)). Inverted x-runs are yielded too:
    they are how the counting formula encodes an empty k-slot.
    """
    scale, offset, den = _integer_form(p)
    s = scale - den
    near, far = min(den, -scale), max(den, -scale)
    for k in range(1, (den - 1) // abs(scale + den) + 1):
        yield k, (den + near * k - offset) // s + 1, (far * k - offset) // s


def two_cycles(p: Params) -> TwoCycleSet:
    """Exact 2-cycle set {{x, f(x)} : f(x) != x and f(f(x)) = x}.

    lam = -1 gives the symbolic family {x, floor(mu) - x} over x in Z,
    because f(x) = floor(mu) - x there; every other slope gives the finite
    union of the runs of :func:`_two_cycle_runs` (none for lam <= -2 or
    lam >= 0).
    """
    if p.lam == -1:
        return TwoCycleSet.neg_one_family(p.mu.numerator // p.mu.denominator)
    return TwoCycleSet.finite(
        (x, x + k) for k, x_lo, x_hi in _two_cycle_runs(p) for x in range(x_lo, x_hi + 1)
    )


def count_two_cycles(p: Params) -> CountValue:
    """Number of 2-cycles, from the summation formula (not by listing):
    the sum over the gaps k of max(0, x_hi - x_lo + 1), infinite at lam = -1.
    Costs O(k_hi) with k_hi < 1/|lam + 1|."""
    if p.lam == -1:
        return CountValue.infinite()
    return CountValue.finite(sum(max(0, x_hi - x_lo + 1) for _, x_lo, x_hi in _two_cycle_runs(p)))
