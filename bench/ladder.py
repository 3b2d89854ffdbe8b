"""Instance ladder: seeded problem files with outcomes fixed by dimension data.

Every rung is a k >= 2 instance with two irregular blocks of nearly equal
multiplicity.  Three eigenvalue families follow the ROADMAP:

* ``generic``   -- distinct eigenvalues per pole and per block;
* ``split``     -- two eigenvalues of multiplicity n/2 per pole;
* ``nilpotent`` -- residues with 2x2 Jordan blocks, zero exponents (zeta = 0).

Eigenvalues are a/p with a distinct prime p > 100 for each one, and the last
one is solved from the trace condition.  An integer relation sum c_j l_j = 0
with |c_j| < 100 then forces every c_j to vanish except the relation the
trace condition imposes, so zeta . w = 0 only where the dimension data forces
it.  The verdict, failed condition and moduli dimension of a rung therefore
depend on its shape alone; the seed changes the eigenvalues (and the
realizer seed), never the outcome.  ``shift`` adds 1/2 to one eigenvalue,
which makes zeta . v = -1/2 * multiplicity != 0.

Exactness keeps the criterion's verdict seed-free, but not the realizer's:
when some sub-vector has a tiny |zeta . w| (a near-resonance, such as
a/p - b/q = 5e-6), every stable point is close to a reducible one and the
float stability test rejects it.  Rungs that must be realized therefore
redraw their eigenvalues until min |zeta . w| over 0 < w < v reaches
``resonance_margin``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

PRIMES = [p for p in range(101, 1000) if all(p % d for d in range(2, 32))]


@dataclass(frozen=True)
class Rung:
    """One ladder instance shape and the outcome it must produce."""

    name: str
    family: str  # generic | split | nilpotent
    rank: int
    poles: int
    k: int
    verdict: str  # what the criterion decides: nonempty | empty
    failed_condition: int | None = None
    dim: int | None = None
    shift: bool = False
    resonance_margin: float = 0.0  # least |zeta . w| over 0 < w < v
    # the default search cap (200 000 nodes) stops before the verdict,
    # so `undecided` is an honest outcome too
    may_stop: bool = False


class _Draw:
    def __init__(self, seed: int, salt: str):
        self.rng = random.Random(f"{seed}:{salt}")
        self.primes = self.rng.sample(PRIMES, len(PRIMES))

    def value(self) -> Fraction:
        p = self.primes.pop()
        a = self.rng.randrange(1, p)
        return Fraction(a if self.rng.random() < 0.5 else -a, p)


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _orbit(pairs):
    return {"eigenvalues": [{"value": _fmt(v), "blocks": list(b)} for v, b in pairs]}


def _balance(orbits):
    """Replace the last eigenvalue so the total trace is zero."""
    *head, last = orbits[-1]
    value, blocks = last
    rest = sum(v * sum(b) for orb in orbits for v, b in orb) - value * sum(blocks)
    orbits[-1] = head + [(-rest / sum(blocks), blocks)]


def problem(rung: Rung, seed: int) -> dict:
    """Problem file (the JSON `check` and `realize` read) for one rung."""
    for attempt in itertools.count():
        doc = _draw_problem(rung, _Draw(seed, f"{rung.name}:{attempt}"))
        if not rung.resonance_margin or resonance(doc) >= rung.resonance_margin:
            return doc


def resonance(doc: dict) -> float:
    """min |zeta . w| over sub-vectors 0 < w < v of the synthesized quiver."""
    import numpy as np
    from dsirr.assembly import build_global_quiver, instance_from_json

    gq = build_global_quiver(instance_from_json(doc, exact=True))
    dims = [gq.dims[x] for x in gq.quiver.vertices]
    zeta = np.array([gq.zeta[x].to_complex() for x in gq.quiver.vertices])
    box = np.array(list(itertools.product(*(range(d + 1) for d in dims))))
    return float(np.abs(box[1:-1] @ zeta).min())  # drops w = 0 and w = v


def _draw_problem(rung: Rung, draw: _Draw) -> dict:
    n, k = rung.rank, rung.k
    mults = [(n + 1) // 2, n // 2]
    # distinct top coefficients give k - 2 core arrows between the blocks
    coeffs = [[_fmt(Fraction(c)) for c in [0] * (k - 2) + [top]] for top in (3, 1)]
    if rung.family == "nilpotent":
        blocks = [[(Fraction(0), [1] * m)] for m in mults]
        poles = [[(Fraction(0), [2] * (n // 2))] for _ in range(rung.poles)]
    else:
        blocks = [[(draw.value(), [1]) for _ in range(m)] for m in mults]
        if rung.family == "generic":
            poles = [[(draw.value(), [1]) for _ in range(n)] for _ in range(rung.poles)]
        else:
            half = [1] * (n // 2)
            poles = [[(draw.value(), half), (draw.value(), half)] for _ in range(rung.poles)]
        orbits = blocks + poles
        _balance(orbits)
        if rung.shift:
            v, b = orbits[-1][0]
            orbits[-1][0] = (v + Fraction(1, 2), b)
        blocks, poles = orbits[: len(mults)], orbits[len(mults):]
    return {
        "rank": n,
        "infinity": {
            "irregular_type": {
                "k": k,
                "blocks": [{"coeffs": c, "mult": m} for c, m in zip(coeffs, mults)],
            },
            "residue_blocks": [_orbit(o) for o in blocks],
        },
        "finite_poles": [
            {"position": str(j + 1), "orbit": _orbit(o)} for j, o in enumerate(poles)
        ],
    }


def _r(family, rank, poles, k=2, **expect):
    name = f"{family[0]}{rank}x{poles}k{k}" + ("-shift" if expect.get("shift") else "")
    expect.setdefault("verdict", "nonempty")
    return Rung(name, family, rank, poles, k, **expect)


MARGIN = 3e-3  # resonance margin of the rungs realize must solve

# workload -> (commands run on each rung in turn, rungs).  Expected outcomes
# were read off the criterion once and confirmed on several seeds; the
# nilpotent 6x3 rung needs 340 609 search nodes to reach its verdict.
WORKLOADS = {
    "check-generic": (("check",), (
        _r("generic", 3, 1, dim=0),
        _r("generic", 3, 2, dim=6),
        _r("generic", 3, 3, dim=12),
        _r("generic", 4, 1, dim=2),
        _r("generic", 4, 2, dim=14),
        _r("generic", 5, 1, dim=4),
        _r("generic", 3, 2, k=3, dim=10),
        _r("generic", 4, 1, k=3, dim=10),
    )),
    "check-degenerate": (("check",), (
        _r("nilpotent", 4, 2, verdict="empty", failed_condition=3),
        _r("nilpotent", 4, 3, dim=10),
        _r("nilpotent", 4, 4, dim=18),
        _r("nilpotent", 6, 2, verdict="empty", failed_condition=3),
        _r("nilpotent", 6, 3, dim=20, may_stop=True),
        _r("nilpotent", 8, 2, verdict="empty", failed_condition=3),
        _r("nilpotent", 4, 2, k=3, dim=10),
        _r("split", 4, 2, dim=6),
        _r("split", 4, 3, dim=14),
    )),
    "realize-verify": (("realize", "verify"), (
        _r("generic", 3, 2, dim=6, resonance_margin=MARGIN),
        _r("generic", 4, 1, dim=2, resonance_margin=MARGIN),
        _r("generic", 3, 2, k=3, dim=10, resonance_margin=MARGIN),
        _r("split", 4, 2, dim=6, resonance_margin=MARGIN),
        _r("split", 4, 3, dim=14, resonance_margin=MARGIN),
        _r("split", 4, 4, dim=22, resonance_margin=MARGIN),
    )),
    "realize-infeasible": (("realize",), (
        _r("generic", 3, 1, verdict="empty", failed_condition=2, shift=True),
        _r("generic", 3, 2, verdict="empty", failed_condition=2, shift=True),
        _r("generic", 4, 1, verdict="empty", failed_condition=2, shift=True),
        _r("split", 4, 2, verdict="empty", failed_condition=2, shift=True),
        _r("split", 6, 3, verdict="empty", failed_condition=2, shift=True),
    )),
}

# workload -> (self-time metrics predicted to make up the largest share of the
# traced time, counters predicted to be zero).  The prediction holds when the
# named metrics together exceed every other layer's self time.
DOMINANT = {
    "check-generic": (("roots.summand_candidates.self_s",), ()),
    "check-degenerate": (("roots.cb_solvable.self_s",), ()),
    "realize-verify": (
        ("quiver.is_stable.self_s", "quiver.algebra_span_dimension.self_s"), ()),
    "realize-infeasible": (
        ("assembly.moment_jacobian.self_s", "assembly.realize_numeric.self_s"),
        ("quiver.is_stable.calls",)),
}
