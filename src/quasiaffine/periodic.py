"""Closed forms for the periodic points of f(x) = floor(lam*x + mu).

For lam >= 0 the map is monotone non-decreasing, so it has fixed points
but never cycles; for lam < 0 it is non-increasing, carries at most one
fixed point, and all remaining periodicity sits in 2-cycles (no cycle of
length >= 3 exists for any parameters), at most one per gap b - a of a
pair a < b. Both sets admit exact descriptions by floors/ceilings of the
parameters, with matching counting formulas; this module evaluates those
descriptions on the map on integers, ``Params.form``, with integer floor
division only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Params


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
            prev = None
            for pair in self.pairs:
                a, b = pair
                if a >= b:
                    raise ValueError(f"pair ({a}, {b}) is not canonical (need a < b)")
                if prev is not None and prev >= pair:
                    raise ValueError("pairs must be sorted and duplicate-free")
                prev = pair
        elif self.kind == "neg_one_family":
            if self.pairs or self.c is None:
                raise ValueError("family requires offset c and no explicit pairs")
        else:
            raise ValueError(f"unknown cycle-set kind {self.kind!r}")

    @classmethod
    def finite(cls, pairs: Iterable[tuple[int, int]]) -> TwoCycleSet:
        """Canonicalise pairs given in any order and orientation, dropping
        repeats. The library's own pair lists are built canonical and go to
        the validating constructor directly."""
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
        # (a, c - a) with lo <= a and a < c - a <= hi, i.e. c - hi <= a < c/2
        return tuple((a, self.c - a) for a in range(max(lo, self.c - hi), (self.c + 1) // 2))

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


def fixed_run(scale: int, offset: int, den: int) -> tuple[int, int] | None:
    """Fixed points of f(z) = (scale*z + offset) // den as the run lo..hi
    (empty when lo > hi), or None for all of Z, in O(1).

    f(z) = z exactly when 0 <= s*z + offset < den for s = scale - den,
    whose sign is that of lam - 1. Solving both inequalities for z pins a
    single contiguous integer run (floors flip under a negative s):

        lam > 1 : -(offset // s) .. -((offset - den) // s) - 1
        lam = 1 : all of Z when 0 <= offset < den (i.e. 0 <= mu < 1), else empty
        lam < 1 : (offset - den) // -s + 1 .. offset // -s

    These are ceil(-mu/(lam-1)) .. ceil(-(mu-1)/(lam-1)) - 1 and
    floor(-(mu-1)/(lam-1)) + 1 .. floor(-mu/(lam-1)) with mu replaced by
    offset/den = floor(b*mu)/b, which gives the same map on Z.
    """
    s = scale - den
    if s == 0:
        return None if 0 <= offset < den else (0, -1)
    if s > 0:
        return -(offset // s), -((offset - den) // s) - 1
    return (offset - den) // -s + 1, offset // -s


def fixed_points(p: Params) -> IntegerSet:
    """Exact fixed-point set of f, in O(1): the run of :func:`fixed_run` on
    ``Params.form``. An inverted run means the set is empty."""
    run = fixed_run(*p.form)
    if run is None:
        return IntegerSet.all_integers()
    lo, hi = run
    return IntegerSet.run(lo, hi) if lo <= hi else IntegerSet.empty()


def count_fixed_points(p: Params) -> CountValue:
    """Number of fixed points: the size of the run :func:`fixed_points`
    delimits (hi - lo + 1, 0 when inverted, infinite at lam = 1 with
    0 <= mu < 1), in O(1) and without listing."""
    return fixed_points(p).size()


def _gaps(scale: int, den: int) -> tuple[int, int, int, int]:
    """The gap terms (k_hi, S, near, far) of f(z) = (scale*z + offset) // den
    for lam != -1, where S = den - scale and near, far = min(den, -scale),
    max(den, -scale); they do not depend on offset.

    A 2-cycle (x, x + k), k >= 1, has f(x) = x + k and f(x + k) = x, that is
    0 <= offset - S*x - den*k < den and 0 <= offset - S*x + scale*k < den.
    The two bands of S*x overlap only when |scale + den|*k < den, i.e.
    |lam + 1|*k < 1, so the gap is bounded by k_hi = (den - 1) // |scale + den|
    and k_hi = 0 when lam >= 0 or lam <= -2. For lam < 0 one has S > 0, and
    the overlap leaves

        (offset - den - near*k) // S < x <= (offset - far*k) // S.

    The two floored numbers differ by (den - |den + scale|*k)/S, which lies
    in (0, 1) for 1 <= k <= k_hi, so the right end is the only candidate and
    gap k holds a pair exactly when the two floors differ, by 1.
    """
    near, far = (den, -scale) if den < -scale else (-scale, den)
    return (den - 1) // abs(scale + den), den - scale, near, far


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over 0 <= i < n, for n >= 0 and, when n > 0,
    m > 0, in O(log m) rounds (the Euclid-like reduction of AtCoder Library's
    ``floor_sum`` in ``math.hpp``). Python's floor division and non-negative
    remainder take any sign of a and b into the first round; each round
    then counts the lattice points under the line with the roles of a and m
    exchanged, and ends when no point is left (n = 0)."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        (n, b), m, a = divmod(a * n + b, m), a, m
    return total


def _two_cycle_pairs(scale: int, offset: int, den: int) -> Iterator[tuple[int, int]]:
    """Yield the 2-cycles (x, x + k) of f(z) = (scale*z + offset) // den,
    at most one per gap k, in increasing k; lam = -1 is excluded. Each gap
    tests its candidate end against its lower bound, both from :func:`_gaps`.

    The ends move monotonically with k. As k grows, offset - far*k falls
    and S > 0, so the candidate x never rises; and x + k =
    (offset - (far - S)*k) // S with far - S = max(scale, -den) < 0, so
    x + k never falls. Among the pairs themselves both moves are strict,
    since f(x) has one value: the lower ends strictly fall and the upper
    ends strictly rise, and every lower end lies below every upper end.
    """
    k_hi, S, near, far = _gaps(scale, den)
    for k in range(1, k_hi + 1):
        x = (offset - far * k) // S
        if x > (offset - den - near * k) // S:
            yield x, x + k


def periodic_hull(scale: int, offset: int, den: int) -> tuple[int, int]:
    """Integer bounds bottom, top on every periodic point of
    f(z) = (scale*z + offset) // den for lam < 0, lam != -1: the candidate
    pair x, x + k_hi of the widest gap of :func:`_gaps`.

    Every pair sits at a gap k <= k_hi, and as k grows the lower candidate
    end never rises and the upper end never falls (both in
    :func:`_two_cycle_pairs`); the fixed point, when one exists, is the
    k = 0 candidate offset // S.
    """
    k_hi, S, _, far = _gaps(scale, den)
    x = (offset - far * k_hi) // S
    return x, x + k_hi


def two_cycles(p: Params) -> TwoCycleSet:
    """Exact 2-cycle set {{x, f(x)} : f(x) != x and f(f(x)) = x}.

    lam = -1 gives the symbolic family {x, floor(mu) - x} over x in Z,
    because f(x) = floor(mu) - x there; every other slope gives the pairs
    of :func:`_two_cycle_pairs` (none for lam <= -2 or lam >= 0). Their
    lower ends strictly fall along the walk, so the reversed list is
    already canonical and goes straight to the validating constructor, in
    O(k_hi) with no sort.
    """
    scale, offset, den = p.form
    if scale == -den:
        return TwoCycleSet.neg_one_family(offset // den)
    pairs = list(_two_cycle_pairs(scale, offset, den))
    pairs.reverse()
    return TwoCycleSet("finite", tuple(pairs))


def two_cycle_points(scale: int, offset: int, den: int, lo: int, hi: int) -> list[int]:
    """Period-2 points of f(z) = (scale*z + offset) // den inside [lo, hi],
    ascending: ``two_cycles(p).points_in(lo, hi)`` without building the set,
    and without walking the gaps whose pairs cannot reach the window.

    The pairs of :func:`_two_cycle_pairs` arrive as (x, x + k) in increasing
    k, with x falling and x + k rising along the walk (shown there). Hence
    once a pair has x < lo and x + k > hi, every later pair lies outside
    [lo, hi] at both ends, and the walk stops there. The same monotony
    orders the members: the lower ends reversed, then the upper ends, are
    ascending. lam = -1 is the family of :meth:`TwoCycleSet.neg_one_family`.
    """
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    if scale == -den:
        return TwoCycleSet.neg_one_family(offset // den).points_in(lo, hi)
    lows: list[int] = []
    highs: list[int] = []
    for x, y in _two_cycle_pairs(scale, offset, den):
        if x < lo and y > hi:
            break
        if lo <= x <= hi:
            lows.append(x)
        if lo <= y <= hi:
            highs.append(y)
    lows.reverse()
    return lows + highs


def count_two_cycles(p: Params) -> CountValue:
    """Number of 2-cycles, infinite at lam = -1. Elsewhere it is the number
    of gaps 1 <= k <= k_hi of :func:`_gaps` that hold a pair, the sum of the
    0-or-1 terms (offset - far*k) // S - (offset - den - near*k) // S; with
    i = k - 1 that is a difference of two :func:`_floor_sum`. It costs
    O(log den) whatever k_hi, and lists nothing. k_hi = 0 (lam >= 0 or
    lam <= -2) sums no term."""
    scale, offset, den = p.form
    if scale == -den:
        return CountValue.infinite()
    k_hi, S, near, far = _gaps(scale, den)
    return CountValue.finite(
        _floor_sum(k_hi, S, -far, offset - far) - _floor_sum(k_hi, S, -near, offset - den - near)
    )
