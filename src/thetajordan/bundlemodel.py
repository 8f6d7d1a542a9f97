"""Level family, parity classes, verification reports and certificates.

Level n carries a cyclic base group of order n (so the pairing space is the
n-torsion (Z_n)^2 of the 2-torus) and the theta group of order n^3.  Total
spaces of orientable S2-bundles over the torus fall into two diffeomorphism
classes by the parity of the level, so reports attach every level to its
parity class.  A verification entry checks that the minimal abelian index
of the level-n theta group is at least n; a threshold certificate names the
smallest level of a class whose index beats a candidate bound c, refuting c
as a Jordan constant for that class.  Each entry first runs heis's seeded
sanity sweep of the group law.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import chain, islice
from time import perf_counter
from typing import Callable, NamedTuple

from .abelian import CapExceeded, Coords, FiniteAbelianGroup, _Frozen
from .abelian import check_int, make_group
from .heis import ThetaGroup, _sanity_sweep, theta_group
from .lattice import DEFAULT_ORACLE_CAP
from .symplectic import structural_min_abelian_index

SCHEMA_VERSION = "theta-jordan/1"
DEFAULT_THRESHOLDS = (1, 5, 10, 1_000_000)

# The level-k symmetry group is pinned to the full k-torsion of the torus,
# the smallest model compatible with the construction; reports carry this
# note because other models can only be larger.
MODEL_NOTE = (
    "level-k symmetry group modeled as the full k-torsion (Z_k)^2 of the "
    "torus, so its order is exactly k^2"
)

_CLASS_DESCRIPTIONS = {
    0: "T2 x S2 (trivial orientable S2-bundle over T2)",
    1: "twisted orientable S2-bundle over T2",
}


class BoundViolation(RuntimeError):
    """A computed entry breaks the index bound, or the two methods disagree."""


class DiffeoClass(_Frozen):
    """Diffeomorphism class of the bundle total space: the level parity."""

    __slots__ = ("parity",)
    _field = "parity"

    def __init__(self, parity: int):
        if check_int(parity, "parity", 0) > 1:
            raise ValueError(f"parity {parity!r} is not the integer 0 or 1")
        object.__setattr__(self, "parity", int(parity))

    @property
    def description(self) -> str:
        return _CLASS_DESCRIPTIONS[self.parity]

    def _levels(self, n_max: int) -> range:
        """The class's levels in 1..n_max, for callers that build each as read."""
        return range(2 - self.parity, check_int(n_max, "n_max", 1) + 1, 2)


def diffeo_class(n: int) -> DiffeoClass:
    """Class of the level-n total space; levels are taken nonnegative."""
    return DiffeoClass(check_int(n, "level", 0) % 2)


def torsion_group(k: int) -> FiniteAbelianGroup:
    """The k-torsion subgroup of the 2-torus: Z_k + Z_k, order k^2."""
    k = check_int(k, "torsion level", 1)
    return make_group([k, k])


def torsion_inclusion(d: int, k: int) -> Callable[[Coords], Coords]:
    """Coordinate embedding of the d-torsion into the k-torsion (d | k).

    Scales each coordinate by k/d; the image is exactly the d-torsion part
    of the larger group.
    """
    d = check_int(d, "torsion level", 1)
    k = check_int(k, "torsion level", 1)
    if k % d:
        raise ValueError(f"{d} does not divide {k}")
    scale = k // d
    src = torsion_group(d)
    dst = torsion_group(k)

    def embed(x: Coords) -> Coords:
        src.check_element(x)
        return tuple(c * scale for c in x) if x else dst.zero()

    return embed


class LevelData(NamedTuple):
    """One member of the family: level n, its base group and theta group."""

    n: int
    torsion_order: int
    base: FiniteAbelianGroup
    theta: ThetaGroup

    @property
    def label(self) -> str:
        """'level n' for a cyclic base (of order n), else the base's spec."""
        if self.base.rank <= 1:
            return f"level {self.n}"
        return self.base.spec_string()


def level_for_base(base: FiniteAbelianGroup) -> LevelData:
    """The level over base K: n = |K|, torsion order n^2, theta over K."""
    n = base.order
    return LevelData(n=n, torsion_order=n * n, base=base, theta=theta_group(base))


def level_data(n: int) -> LevelData:
    """Level n: cyclic base of order n, theta group of order n^3."""
    return level_for_base(make_group([check_int(n, "level", 1)]))


def family_for_class(cls: DiffeoClass, n_max: int) -> list[LevelData]:
    """All levels 1..n_max of the given parity, ascending."""
    return list(map(level_data, cls._levels(n_max)))


class ReportEntry(NamedTuple):
    n: int
    group_order: int
    max_abelian_order: int
    min_abelian_index: int
    method: str  # oracle | structural | both
    elapsed_s: float | None


class Certificate(NamedTuple):
    """Evidence that the threshold is not a Jordan constant for the class."""

    threshold: int
    n: int
    group_order: int
    min_abelian_index: int
    method: str


class VerificationReport(NamedTuple):
    manifold_class: DiffeoClass
    entries: tuple[ReportEntry, ...]
    threshold_certificates: tuple[Certificate, ...]


def _check_run(mode: str, oracle_cap: int, levels=()) -> int:
    """The one admission rule, run before any sweep or table: the oracle cap
    as an int, ValueError naming a bad mode or cap, and in mode 'oracle'
    (the only mode that reads `levels`) CapExceeded naming the first above it."""
    if mode not in ("oracle", "structural", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    oracle_cap = check_int(oracle_cap, "oracle cap")
    if mode == "oracle":
        for level in levels:
            if level.theta.order > oracle_cap:
                raise CapExceeded(
                    f"{level.label}: theta group order {level.theta.order} exceeds "
                    f"the oracle cap {oracle_cap}; use mode 'structural'")
    return oracle_cap


class _Evidence(NamedTuple):
    """One level's index evidence; violation is None or an unlabelled message."""

    max_abelian_order: int
    min_abelian_index: int
    method: str
    violation: str | None


def _index_evidence(level: LevelData, mode: str, oracle_cap: int,
                    evidence: dict | None = None) -> _Evidence:
    """The level's _Evidence, for a mode and an int cap the caller checked.

    mode 'oracle' runs the exhaustive subgroup search, 'structural' uses the
    closed form, and 'both' runs both and records any disagreement; above
    the oracle cap either mode falls back to the closed form, and so does a
    level whose law cells fail the oracle's group proof or whose search
    maximum does not divide the order, which is recorded as well.
    Calls that share an `evidence` dict run each level's oracle search once;
    it keeps these records, never the law's cells, and never changes a result.
    """
    theta = level.theta
    sidx = structural_min_abelian_index(theta.base)
    structural = _Evidence(theta.order // sidx, sidx, "structural", None)
    if mode == "structural" or theta.order > oracle_cap:
        return structural
    evidence = {} if evidence is None else evidence
    key = (level, mode)
    if key not in evidence:
        try:
            oidx = theta.min_abelian_index(oracle_cap)
        except ValueError as exc:  # the law's own cells: a broken law fails here
            return evidence.setdefault(key, structural._replace(
                violation=f"theta table is not a group: {exc}"))
        except RuntimeError as exc:  # a search maximum that breaks Lagrange
            return evidence.setdefault(key, structural._replace(
                violation=f"oracle search failed: {exc}"))
        omax = theta.order // oidx
        disagreement = None
        if mode == "both" and oidx != sidx:  # omax is order // oidx
            disagreement = (f"oracle max abelian order {omax} (index {oidx}) "
                            f"disagrees with structural {theta.order // sidx} "
                            f"(index {sidx})")
        evidence[key] = _Evidence(omax, oidx, mode, disagreement)
    return evidence[key]


def verify_level(level: LevelData, mode: str = "both",
                 oracle_cap: int = DEFAULT_ORACLE_CAP, seed: int = 0,
                 with_timing: bool = True, evidence: dict | None = None):
    """Verify one level; returns (ReportEntry, violation strings).

    A bad mode or cap raises ValueError, and in mode 'oracle' a level above
    the cap raises CapExceeded, before the sweep runs.  Violations start
    with the level's label; repeats collapse to one, '(c times)'.
    """
    check_int(seed, "seed")
    oracle_cap = _check_run(mode, oracle_cap, (level,))
    start = perf_counter()
    rng = random.Random(seed * 1_000_003 + level.n)
    messages = _sanity_sweep(level.theta, rng)
    ev = _index_evidence(level, mode, oracle_cap, evidence)
    if ev.violation:
        messages.append(ev.violation)
    if ev.min_abelian_index < level.n:
        messages.append(f"min abelian index {ev.min_abelian_index} is below "
                        f"the bound {level.n} ({ev.method})")
    violations = [f"{level.label}: {msg}" + (f" ({c} times)" if c > 1 else "")
                  for msg, c in Counter(messages).items()] if messages else []
    elapsed = round(perf_counter() - start, 6) if with_timing else None
    return ReportEntry(level.n, level.theta.order, ev.max_abelian_order,
                       ev.min_abelian_index, ev.method, elapsed), violations


def jordan_certificate(cls: DiffeoClass, threshold: int, mode: str = "both",
                       oracle_cap: int = DEFAULT_ORACLE_CAP,
                       evidence: dict | None = None) -> Certificate:
    """Smallest level of the class above the threshold, with index evidence.

    The oracle supplies the evidence when the group fits under the cap and
    the closed form otherwise, so every threshold is answerable.  Raises
    BoundViolation if the evidence fails to beat the threshold.
    """
    threshold = check_int(threshold, "threshold", 1)
    oracle_cap = _check_run(mode, oracle_cap)
    # levels step by 2: the last up to threshold + 2 is the first above it
    n = cls._levels(threshold + 2)[-1]
    level = level_data(n)
    ev = _index_evidence(level, mode, oracle_cap, evidence)
    idx = ev.min_abelian_index
    if ev.violation:
        # prefixed, so it does not repeat the entry's violation word for word
        raise BoundViolation(f"threshold {threshold}: {level.label}: "
                             f"{ev.violation}")
    if not (idx >= level.n > threshold):
        raise BoundViolation(
            f"certificate failed: index {idx} at level {n} does not exceed "
            f"threshold {threshold}"
        )
    return Certificate(threshold, n, level.theta.order, idx, ev.method)


def _class_reports(classes, n_max: int, mode: str, oracle_cap: int,
                   thresholds, seed: int, with_timing: bool):
    """Reports for the classes, in order; returns (reports, violations).

    The one place a run is admitted: seed, mode, cap, n_max, each level's
    size and every threshold, in that order, are checked before the first
    sweep.  In mode 'oracle' every level of every class is admitted, built
    as it is read, so a refused run stops at the first refused level.
    """
    check_int(seed, "seed")
    oracle_cap = _check_run(mode, oracle_cap)  # mode and cap before n_max
    ns = [cls._levels(n_max) for cls in classes]
    _check_run(mode, oracle_cap, (level_data(n) for levels in ns for n in levels))
    thresholds = [check_int(c, "threshold", 1) for c in thresholds]
    reports, violations = [], []
    for cls, levels in zip(classes, ns):
        entries, certificates = [], []
        evidence: dict = {}  # certificates reuse the entries' oracle searches
        for level in map(level_data, levels):
            entry, vio = verify_level(level, mode, oracle_cap, seed, with_timing,
                                      evidence)
            entries.append(entry)
            violations.extend(vio)
        for c in thresholds:
            try:
                certificates.append(
                    jordan_certificate(cls, c, mode, oracle_cap, evidence))
            except BoundViolation as exc:
                violations.append(str(exc))
        reports.append(VerificationReport(cls, tuple(entries), tuple(certificates)))
    return reports, violations


def build_class_report(cls: DiffeoClass, n_max: int, mode: str = "both",
                       oracle_cap: int = DEFAULT_ORACLE_CAP,
                       thresholds=DEFAULT_THRESHOLDS, seed: int = 0,
                       strict: bool = True, with_timing: bool = True):
    """Report for one parity class; returns (VerificationReport, violations).

    Seed, mode, cap, n_max, each level's size and every threshold, in that
    order, are checked before the first sweep.
    With strict=True (library default) any violation aborts with a
    BoundViolation diagnostic; callers that need to emit the failing report
    first pass strict=False and handle the violation list themselves.
    """
    (report,), violations = _class_reports(
        (cls,), n_max, mode, oracle_cap, thresholds, seed, with_timing)
    if strict and violations:
        raise BoundViolation("; ".join(violations))
    return report, violations


# --- serialization -------------------------------------------------------

def report_to_dict(report: VerificationReport) -> dict:
    # the record fields are the report's field list; elapsed_s is None
    # when timings are off, and is then left out
    entries = [e._asdict() for e in report.entries]
    for row in entries:
        if row["elapsed_s"] is None:
            del row["elapsed_s"]
    return {
        "manifold_class": report.manifold_class.parity,
        "manifold": report.manifold_class.description,
        "entries": entries,
        "threshold_certificates": [
            c._asdict() for c in report.threshold_certificates
        ],
    }


def document(reports, config_echo: dict, violations,
             generated_at: str | None = None) -> dict:
    """Assemble the versioned report document all renderers consume."""
    doc = {
        "schema": SCHEMA_VERSION,
        "ok": not violations,
        "model_note": MODEL_NOTE,
        "config": dict(config_echo),
        "reports": [report_to_dict(r) for r in reports],
        "violations": list(violations),
    }
    if generated_at is not None:
        doc["generated_at"] = generated_at
    return doc


# Each renderer writes the document to fh, an open text stream, through
# _write_batched: under unbuffered stdout (python -u, PYTHONUNBUFFERED) every
# write is a system call, and json.dump would make one per encoder chunk.
# A batch joins WRITE_BATCH pieces (JSON chunks, CSV rows or table lines;
# about 7 KB of JSON), so no copy of the whole text is held; 4096 pieces
# raised a --max-n 1000 run's peak RSS by 0.4 MB and ran no faster.
WRITE_BATCH = 1024


def _write_batched(fh, pieces) -> None:
    pieces = iter(pieces)
    while batch := list(islice(pieces, WRITE_BATCH)):
        fh.write("".join(batch))


def render_json(doc: dict, fh) -> None:
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    _write_batched(fh, chain(encoder.iterencode(doc), "\n"))


class _Echo:
    """A stream whose write returns its text: csv's writerow returns what
    its stream's write returns, so on _Echo it returns the row's line."""

    @staticmethod
    def write(text: str) -> str:
        return text


def render_csv(doc: dict, fh) -> None:
    """One verification entry per row, across all classes in the document."""
    import csv  # only this renderer needs it
    line = csv.writer(_Echo, lineterminator="\n").writerow
    rows = ([report["manifold_class"],
             *(e.get(field, "") for field in ReportEntry._fields)]
            for report in doc["reports"] for e in report["entries"])
    _write_batched(fh, map(line, chain([["class", *ReportEntry._fields]], rows)))


def _aligned(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def render_table(doc: dict, fh) -> None:
    lines = [f"{doc['schema']}  (abelian-index verification)"]
    if "generated_at" in doc:
        lines.append(f"generated at {doc['generated_at']}")
    for report in doc["reports"]:
        lines.append("")
        lines.append(
            f"class {report['manifold_class']}: {report['manifold']}"
        )
        # one heading per ReportEntry field, in field order
        rows = [["n", "|G|", "max abelian", "min index", "method", "elapsed"]]
        rows.extend([str(e.get(field, "-")) for field in ReportEntry._fields]
                    for e in report["entries"])
        lines.extend(_aligned(rows))
        if len(rows) == 1:
            lines.append("  (no levels in range)")
        for c in report["threshold_certificates"]:
            lines.append(
                f"  threshold {c['threshold']} refuted by n={c['n']}: "
                f"min abelian index {c['min_abelian_index']} ({c['method']})"
            )
    if doc["violations"]:
        lines.append("")
        lines.append("VIOLATIONS:")
        lines.extend(f"  {v}" for v in doc["violations"])
    lines.append("")
    lines.append("result: " + ("OK" if doc["ok"] else "FAILED"))
    _write_batched(fh, (f"{line}\n" for line in lines))
