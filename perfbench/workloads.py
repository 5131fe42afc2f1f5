"""Workload definitions: generated CLI inputs and the checks on their reports.

A run's inputs come from ``random.Random(f"{workload}:{seed}")`` alone.  For
the stream workloads the seed shuffles the pool of small integer lower-order
terms of ``f`` and the run walks that order, reshuffling when the pool is
used up, so a run sees many different functions and repeats none before it
has seen them all; the shape of ``f`` stays fixed.  For ``density-g2`` each
call gets its own CLI ``--seed``.  The program sees only the CLI arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product

CURVE_G1 = ["1", "0", "0", "1"]  # y^2 = x^3 + 1
CURVE_G2 = ["-1", "0", "0", "0", "0", "1"]  # y^2 = x^5 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    h: list
    ops: int  # ops per CLI call: t values swept, or coefficient vectors sampled
    why: str
    function: str = ""  # prospect function; {0}, {1}, ... are the drawn terms
    terms: int = 0  # number of lower-order terms drawn
    height: int = 0  # each term is drawn from [-height, height]

    def inputs(self, seed):
        """Endless sequence of per-call inputs for a run with this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        if not self.function:
            while True:
                yield (rng.randrange(1_000_000),)
        pool = list(product(range(-self.height, self.height + 1), repeat=self.terms))
        while True:
            rng.shuffle(pool)
            yield from pool

    def argv(self, terms, curve_path, report_path):
        if not self.function:
            return ["density", curve_path, "--divisor", "10*inf", "--coeff-height", "3",
                    "--samples", str(self.ops), "--seed", str(terms[0]),
                    "--output", report_path]
        return ["prospect", curve_path, "--function", self.function.format(*terms),
                "--t-height", str(self.ops), "--output", report_path]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "stream-quartic", CURVE_G1, 120,
            "headline primitive-point stream on y^2=x^3+1: exactalg factoring "
            "dominates, plus a small tail of costly imprimitive fibers",
            "x^2 + y + ({0})*x + ({1})", 2, 3,
        ),
        Workload(
            "stream-imprimitive", CURVE_G1, 10,
            "f = x^2 + a*x: every irreducible fiber is imprimitive, so Trager "
            "witnesses and the b = 0 presentation path dominate",
            "x^2 + ({0})*x", 1, 4,
        ),
        Workload(
            "stream-sextic", CURVE_G2, 3,
            "degree-6 primitive fibers on y^2=x^5-1 decided by principal "
            "subfields: numfield.trager_factor dominates",
            "x^3 + y + ({0})*x^2 + ({1})*x + ({2})", 3, 1,
        ),
        Workload(
            "density-g2", CURVE_G2, 12,
            "density box of L(10*inf) on y^2=x^5-1: Laurent-series roots in "
            "hypcurve/contract, and no factoring or numfield calls at all",
        ),
    ]
}


def check_report(workload, report_text):
    """Number of ops whose output fails the checks (all of them if the
    report as a whole is malformed)."""
    from primpoints.exactalg import RatPolynomial
    from primpoints.numfield import IMPRIMITIVE, PrimitivityCertificate

    ops = workload.ops
    try:
        report = json.loads(report_text)
    except ValueError:
        return ops
    if not workload.function:
        counts = report.get("counts", {})
        ok = report.get("sample_count") == ops and sum(counts.values()) == ops
        return 0 if ok else ops
    specs = report.get("specializations", [])
    if len(specs) != ops:
        return ops
    failed = 0
    for spec in specs:
        data = spec["certificate"]
        if spec["status"] != "irreducible":
            failed += data is not None
            continue
        if data is None:
            failed += 1
            continue
        cert = PrimitivityCertificate.from_json(data)
        ok = cert.modulus == RatPolynomial.from_json(spec["fiber_poly"])
        if workload.name == "stream-imprimitive":
            # every irreducible fiber must carry a subfield witness
            ok = ok and cert.verdict == IMPRIMITIVE and cert.witness is not None
        failed += not (ok and cert.verify())
    return failed
