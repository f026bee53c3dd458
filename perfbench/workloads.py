"""Workload definitions, seeded input generators and the per-op correctness gate.

Each workload fixes an anchor pattern: which tableau positions share an
anchor and with which integer offsets.  The combinatorics of every report
(closure sizes, components, audit edges) depend on that pattern, so a seed
picks nothing but the values: a prime p and distinct numerators k/p, one
fresh draw per op.  Distinct numerators below p keep every pair of anchors
a non-integral distance apart, which is what keeps the pattern fixed.  The
one exception is a coefficient that vanishes for particular values; see
``gate``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PRIMES = (17, 19, 23, 29, 31)

# Seed whose first op must reproduce each workload's reference_sha256.
REFERENCE_SEED = 0

# Most drop-audit edges an op may lose to coefficients that vanish for its
# particular values (see ``gate``).
MAX_VANISHED_EDGES = 48


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI arguments before --base-vector
    radius: int
    assignment: tuple[tuple[int, ...], ...]  # anchor index per position, top row first
    offsets: tuple[tuple[int, ...], ...]  # integer offset per position, top row first
    rss_after_ops: int  # peak_rss_mb is read after this many ops
    expected: dict  # seed-independent report fields, as summary() gives them
    reference_sha256: str  # sha256 of the first report under REFERENCE_SEED

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def keys_per_op(self) -> int:
        return (2 * self.radius + 1) ** (self.n * (self.n - 1) // 2)

    def vectors(self, seed: int):
        """Endless stream of distinct base-vector JSON texts for this seed."""
        rng = random.Random(seed)
        anchors = 1 + max(a for row in self.assignment for a in row)
        seen = set()
        while True:
            p = rng.choice(PRIMES)
            ks = tuple(rng.sample(range(1, p), anchors))
            if (p, ks) in seen:
                continue
            seen.add((p, ks))
            yield json.dumps(
                {
                    "n": self.n,
                    "anchors": [f"{k}/{p}" for k in ks],
                    "assignment": [list(row) for row in self.assignment],
                    "offsets": [list(row) for row in self.offsets],
                }
            )

    def argv(self, vector_json: str) -> list[str]:
        return [*self.command, "--radius", str(self.radius), "--base-vector", vector_json]


def summary(report: dict) -> dict:
    """The combinatorial fields of a report; none of them depends on the seed."""
    if report.get("command") == "verify":
        return {
            "classification": report["classification"],
            "passed": report["passed"],
            "suites": {
                name: [s["passed"], s["checked"], len(s["failures"])]
                for name, s in report["suites"].items()
            },
        }
    out = {
        "classification": report.get("classification"),
        "omega_plus": len(report.get("omega_plus", ())),
        "reach_closure_size": report.get("reach_closure_size"),
        "window_size": report.get("window_size"),
        "reach_components": report.get("reach_components"),
    }
    for field in ("basis_N_window_size", "basis_I_window_size", "basis_Ik_window_size", "singular"):
        if field in report:
            out[field] = report[field]
    if "omega_classes" in report:
        out["omega_classes"] = [c["size"] for c in report["omega_classes"]]
    if "drop_audit" in report:
        audit = report["drop_audit"]
        out["drop_audit"] = {
            "edges_scanned": audit["edges_scanned"],
            "violations": len(audit["violations"]),
            "drop_by_one_edges": len(audit["drop_by_one_edges"]),
            "unclassified_drops": len(audit["unclassified_drops"]),
            "ok": audit["ok"],
        }
    return out


def gate(w: Workload, code: int | str, text: str) -> list[str]:
    """Problems with one op's output; an empty list means the op passed."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    if "error" in report:
        return problems + [f"error report: {report['error']}: {report.get('message')}"]
    if w.command[0] == "verify":
        if report.get("passed") is not True:
            problems.append("verify did not pass")
    else:
        size = report.get("window_size")
        if size != w.keys_per_op:
            problems.append(f"window_size {size} != (2R+1)^(n(n-1)/2) = {w.keys_per_op}")
        comps = report.get("reach_components", {})
        if comps.get("count", 11) > 10 or sum(comps.get("sizes", ())) != size:
            problems.append(f"reach component sizes {comps} do not sum to window_size")
        if "drop_audit" in report and report["drop_audit"].get("ok") is not True:
            problems.append("drop_audit.ok is not true")
    got = summary(report)
    audit, generic = got.get("drop_audit"), w.expected.get("drop_audit")
    if audit and generic:
        # For particular values a summand coefficient vanishes (a sum of
        # reciprocal entry differences that happens to be 0), and the audit
        # skips its edge.  Each vanished coefficient removes one scanned edge
        # and at most one drop-by-one edge; the largest shortfall seen was 12.
        missing = generic["edges_scanned"] - audit["edges_scanned"]
        missing_drops = generic["drop_by_one_edges"] - audit["drop_by_one_edges"]
        if 0 < missing <= MAX_VANISHED_EDGES and 0 <= missing_drops <= missing:
            audit["edges_scanned"] = generic["edges_scanned"]
            audit["drop_by_one_edges"] = generic["drop_by_one_edges"]
    if got != w.expected:
        problems.append(f"combinatorial fields differ from the recorded ones: {json.dumps(got)}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="singular4-structure",
            command=("structure",),
            radius=1,
            # (a,b,c,d | e,f,g | x,x | x)
            assignment=((0, 1, 2, 3), (4, 5, 6), (7, 7), (7,)),
            offsets=((0, 0, 0, 0), (0, 0, 0), (0, 0), (0,)),
            rss_after_ops=3,
            expected={
                "classification": "one_singular",
                "omega_plus": 2,
                "reach_closure_size": 486,
                "window_size": 729,
                "reach_components": {"count": 2, "sizes": [486, 243]},
                "basis_Ik_window_size": 378,
                "singular": [2, 1, 2],
                "drop_audit": {
                    "edges_scanned": 10449,
                    "violations": 0,
                    "drop_by_one_edges": 486,
                    "unclassified_drops": 0,
                    "ok": True,
                },
            },
            reference_sha256="765189e75735b27c524be1d4bcb376f97bd4cdfa4fbc4a620fcf4d05c3d19a41",
        ),
        Workload(
            name="generic4-structure",
            command=("structure",),
            radius=1,
            # (x,b,c,d | x-1,f,g | x+1,h | x)
            assignment=((0, 1, 2, 3), (0, 4, 5), (0, 6), (0,)),
            offsets=((0, 0, 0, 0), (-1, 0, 0), (1, 0), (0,)),
            rss_after_ops=10,
            expected={
                "classification": "generic",
                "omega_plus": 2,
                "reach_closure_size": 648,
                "window_size": 729,
                "reach_components": {"count": 4, "sizes": [594, 54, 54, 27]},
                "basis_N_window_size": 648,
                "basis_I_window_size": 594,
                "omega_classes": [54, 594, 27, 54],
            },
            reference_sha256="c33adaa68bbf86c2ab37285001eccb02bccfbe3fc8f3942e52908ae2684c3bc1",
        ),
        Workload(
            name="singular3-verify",
            command=("verify",),
            radius=2,
            # (a,b,c | x,x | x)
            assignment=((0, 1, 2), (3, 3), (3,)),
            offsets=((0, 0, 0), (0, 0), (0,)),
            rss_after_ops=10,
            expected={
                "classification": "one_singular",
                "passed": True,
                "suites": {
                    "relations": [True, "125 keys", 0],
                    "gamma_coherence": [True, "125 keys, levels up to power 2", 0],
                    "dpair_calculus": [True, "100 random functions", 0],
                    "character_pairing": [True, "125^2 label pairs", 0],
                    "separation": [True, "sampled pairs (limit 60)", 0],
                    "omega_drop_bound": [True, "all window edges", 0],
                },
            },
            reference_sha256="f2fca0cd70f57dba2496dfe94bb453241bcd81c6d30d40e01963532b7bd0f62e",
        ),
    )
}
