"""Seeded op streams, op runners and correctness references, one class per workload.

Every workload is an endless stream of ops built from ``--seed`` alone; the
package only ever sees the generated inputs. The ops come in shuffled
blocks. Within a block, the input properties that set an op's cost are laid
out evenly: lambda walks a fixed grid (scan, verify), the zoom distance to
-1 is drawn once from each of a few equal slices of its range, and n with
the size of a huge start follow a low-discrepancy sequence. So any run of a
few seconds covers the same cost mix, and different seeds give comparable
figures; the seed picks the draws inside the slices, the other parameters
and the order.

Each op's output is checked against a reference that does not come from
the closed forms being timed: plain integer iteration written here for
``scan``, the package's brute-force oracle for ``omega_limit``, and the
theorem that the closed forms agree with iteration for ``verify``, whose
summary must also name the number of parameter pairs the column holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

DESIGN = json.loads(Path(__file__).with_name("design.json").read_text())


@dataclass(frozen=True)
class Op:
    """One operation: ``args`` are what the package receives, ``units`` the
    work units it completes, ``ref`` what the reference check needs."""

    args: tuple
    units: int
    ref: Any = None


def rand_rat(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """Uniform rational with denominator ``den`` in [lo, hi]."""
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def grid(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    """start, start + step, ... while <= stop: the grid the CLI walks."""
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v += step
    return out


def strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [0, 1)."""
    return [(i + rng.random()) / count for i in range(count)]


def r2(j: int) -> tuple[float, float]:
    """The j-th point of the R2 low-discrepancy sequence: any run of points
    spreads evenly over the unit square, the same way for every seed."""
    g = 1.324717957244746  # the plastic number, g**3 = g + 1
    return (0.5 + j / g) % 1.0, (0.5 + j / g**2) % 1.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def image(lam: Fraction, mu: Fraction):
    """f(z) = floor(lam*z + mu) on integers, written independently of the package."""
    scale = lam.numerator * mu.denominator
    offset = mu.numerator * lam.denominator
    den = lam.denominator * mu.denominator
    return lambda z: (scale * z + offset) // den


class Workload:
    name = ""
    unit = ""

    def __init__(self, pkg):
        self.pkg = pkg
        self.sizes = DESIGN["workloads"][self.name]["sizes"]

    def ops(self, seed: int) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> bool:
        raise NotImplementedError


class CliWorkload(Workload):
    """Ops are argv lists for ``quasiaffine.cli.main``; the output is the exit
    status and a digest of the captured stdout."""

    def run(self, op: Op) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.pkg.cli.main(list(op.args))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, digest(buf.getvalue())


class ScanDiagram(CliWorkload):
    name = "scan-diagram"
    unit = "cells"

    def ops(self, seed: int) -> Iterator[Op]:
        s = self.sizes
        rng = random.Random(seed)
        broad = grid(*(Fraction(v) for v in s["broad_lambda"]), Fraction(s["broad_lambda_step"]))
        m_lo, m_hi = s["zoom_m"]
        while True:
            block = [self._op(rng, lam, target, fmt, s["broad_mu_span"], s["broad_mu_step"])
                     for lam in broad for target in ("per2", "fix") for fmt in ("csv", "jsonl")]
            for side in (-1, 1):
                for fmt in ("csv", "jsonl"):
                    for u in strata(rng, s["zoom_columns"] // 4):
                        lam = Fraction(-1) + Fraction(side, round(m_lo * (m_hi / m_lo) ** u))
                        block.append(self._op(rng, lam, "per2", fmt, s["zoom_mu_span"], s["zoom_mu_step"]))
            rng.shuffle(block)
            yield from block

    def _op(self, rng, lam, target, fmt, span, step) -> Op:
        mu_lo, mu_hi = (Fraction(v) for v in self.sizes["mu_from"])
        mu_from = rand_rat(rng, mu_lo, mu_hi, 97)
        mu_to = mu_from + Fraction(span)
        step = Fraction(step)
        lo, hi = self.sizes["x_window"]
        argv = (
            "scan", "--target", target,
            "--lambda-range", f"{lam}..{lam}", "--lambda-step", "1",
            "--mu-range", f"{mu_from}..{mu_to}", "--mu-step", str(step),
            "--x-window", f"{lo}..{hi}", "--format", fmt,
        )
        mus = grid(mu_from, mu_to, step)
        return Op(argv, len(mus), (lam, tuple(mus), lo, hi, target, fmt))

    def check(self, op: Op, out: tuple[int, str]) -> bool:
        lam, mus, lo, hi, target, fmt = op.ref
        lines = ["lambda,mu,x"] if fmt == "csv" else []
        for mu in mus:
            f = image(lam, mu)
            for z in range(lo, hi + 1):
                y = f(z)
                if (y == z) if target == "fix" else (y != z and f(y) == z):
                    if fmt == "csv":
                        lines.append(f"{lam},{mu},{z}")
                    else:
                        lines.append(json.dumps({"lambda": str(lam), "mu": str(mu), "x": z},
                                                separators=(",", ":")))
        want = "".join(line + "\n" for line in lines)
        return out == (0, digest(want))


class VerifyGrid(CliWorkload):
    name = "verify-grid"
    unit = "samples"

    def ops(self, seed: int) -> Iterator[Op]:
        s = self.sizes
        rng = random.Random(seed)
        lams = grid(*(Fraction(v) for v in s["lambda"]), Fraction(s["lambda_step"]))
        mu_lo, mu_hi = (Fraction(v) for v in s["mu_from"])
        lo, hi = s["window"]
        while True:
            block = []
            for lam in lams:
                mu_from = rand_rat(rng, mu_lo, mu_hi, 7)
                mu_to = mu_from + Fraction(s["mu_span"])
                cells = len(grid(mu_from, mu_to, Fraction(s["mu_step"])))
                argv = (
                    "--plain", "verify",
                    "--lambda-range", f"{lam}..{lam}", "--lambda-step", "1",
                    "--mu-range", f"{mu_from}..{mu_to}", "--mu-step", s["mu_step"],
                    "--window", f"{lo}..{hi}",
                    "--samples", str(s["samples"]), "--seed", str(rng.randrange(10**6)),
                )
                block.append(Op(argv, cells * s["samples"], cells))
            rng.shuffle(block)
            yield from block

    def check(self, op: Op, out: tuple[int, str]) -> bool:
        # the plain summary counts the parameter pairs actually checked
        return out == (0, digest(f"agree ({op.ref} parameter pairs)\n"))


class OmegaWorkload(Workload):
    """Ops are (Params, x) pairs for ``quasiaffine.omega_limit``."""

    unit = "queries"

    def run(self, op: Op):
        return self.pkg.qa.omega_limit(*op.args)

    def check(self, op: Op, out) -> bool:
        oracle = self.pkg.oracle
        p, x = op.args
        # Escape detection must not fire on a huge start that contracts:
        # such an orbit never grows past |x| + |mu| + 1.
        bound = max(oracle.DEFAULT_ESCAPE_BOUND, 2 * abs(math.floor(x)) + 2)
        want = oracle.brute_omega(p, x, self.sizes["reference_max_steps"], bound)
        if isinstance(want, oracle.Unresolved):
            return out.is_escape
        return out == want


class OmegaRandom(OmegaWorkload):
    name = "omega-random"

    def ops(self, seed: int) -> Iterator[Op]:
        s = self.sizes
        rng = random.Random(seed)
        params = self.pkg.qa.Params

        def sample(lo, hi):
            return rand_rat(rng, Fraction(lo), Fraction(hi), rng.randint(1, s["max_den"]))

        while True:
            p = params(sample(*s["lambda"]), sample(*s["mu"]))
            yield Op((p, sample(*s["x"])), 1)


class OmegaAdversarial(OmegaWorkload):
    name = "omega-adversarial"

    def ops(self, seed: int) -> Iterator[Op]:
        s = self.sizes
        rng = random.Random(seed)
        n_lo, n_hi = s["n_log_uniform"]
        k_lo, k_hi = s["huge_x_exponent"]
        mu_lo, mu_hi = (Fraction(v) for v in s["mu"])
        x_lo, x_hi = (Fraction(v) for v in s["small_x"])
        params = self.pkg.qa.Params
        kinds = [(slope, huge) for slope in (-1, 1) for huge in (False, True)]
        for j in itertools.count():
            u, v = r2(j)
            n = round(n_lo * (n_hi / n_lo) ** u)
            k = k_lo + math.floor((k_hi - k_lo + 1) * v)
            rng.shuffle(kinds)
            for slope, huge in kinds:
                mu = rand_rat(rng, mu_lo, mu_hi, rng.randint(1, s["mu_max_den"]))
                if huge:
                    x = rng.choice((-1, 1)) * 10**k + rand_rat(rng, Fraction(0), Fraction(1), rng.randint(1, 64))
                else:
                    x = rand_rat(rng, x_lo, x_hi, rng.randint(1, 64))
                yield Op((params(Fraction(-(n + slope), n), mu), x), 1)


WORKLOADS = {cls.name: cls for cls in (ScanDiagram, OmegaRandom, OmegaAdversarial, VerifyGrid)}
