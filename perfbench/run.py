"""Benchmark of the theta-jordan `verify` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload; writes BENCHMARK.json

With --trace 0 every operation is a real CLI subprocess
(`python -m thetajordan verify ... --format json --no-timestamps --seed S`),
run one at a time.  Whole rounds of the workload's invocations repeat while
another round still fits in --seconds, and at least twice, so that every
invocation's output is compared with a repeat of it; the end-to-end metrics
are medians over rounds.  Each invocation's peak RSS comes from its own
os.wait4 rusage.

With --trace 1 the same invocations run in-process through
thetajordan.cli.main in three passes: untraced, with span wrappers that
record calls, inclusive and self time around each layer's public functions,
and with call counters on the hot functions.  Every pass must print the same
bytes as the CLI subprocess; the per-layer metrics are medians over rounds.

Every report is checked against values computed here from the workload
alone (n^3, n^2, n, parity, cap), never against a saved copy.  An operation
fails on a nonzero exit or a failed check.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

A run of every workload (no --workload) also writes BENCHMARK.json from the
definitions in this file, which are its only source.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent.relative_to(ROOT).as_posix()
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
RUN_SECONDS = 40
ORACLE_CAP = 512  # the CLI's default --oracle-cap; no invocation overrides it
THRESHOLDS = (1, 5, 10, 1_000_000)  # the CLI's documented certificate thresholds
SETUP_PROBES_PER_ROUND = 3
MIN_SETUP_PROBES = 15
SCHEMA = "theta-jordan/1"


@dataclass(frozen=True)
class Invocation:
    """One `verify` call and the facts its report is checked against."""

    max_n: int = 6
    mode: str = "both"
    base_group: str | None = None

    def argv(self, seed: int) -> list[str]:
        args = ["verify"]
        if self.base_group:
            args += ["--base-group", self.base_group]
        else:
            if self.max_n != 6:
                args += ["--max-n", str(self.max_n)]
        if self.mode != "both":
            args += ["--mode", self.mode]
        return args + ["--format", "json", "--no-timestamps", "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple[Invocation, ...]


# Each workload stresses different layers, so that an optimisation of one
# layer has a workload that exercises it and one that bypasses it.
WORKLOADS = {
    "default": Workload(
        "the first run users make; table building dominates and 4 of its 10 "
        "tables are rebuilt for certificates, so evidence sharing moves it",
        (Invocation(),),
    ),
    "oracle-512": Workload(
        "Z8, Z4xZ2 and Z2xZ2xZ2 bases at the 512 oracle cap: table build plus "
        "a search from cheap (cyclic) to costly; builds no certificates",
        (Invocation(base_group="Z8"), Invocation(base_group="Z4xZ2"),
         Invocation(base_group="Z2xZ2xZ2")),
    ),
    "structural-1000": Workload(
        "levels 1..1000 by the closed form: no table, no search; the "
        "validated theta mul sanity sweep and a 1000-entry report carry it",
        (Invocation(max_n=1000, mode="structural"),),
    ),
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    ("abelian.check_element.calls", "count"),
    ("heis.mul.calls", "count"),
    ("heis.to_concrete.calls", "count"),
    ("heis.to_concrete.entries", "count"),
    ("heis.to_concrete.self_s", "s"),
    ("heis.to_concrete.ns_per_entry", "ns"),
    ("lattice.ConcreteGroup.self_s", "s"),
    ("lattice.centralizer_masks.self_s", "s"),
    ("lattice.max_abelian_order.self_s", "s"),
    ("lattice.max_abelian_order.calls", "count"),
    ("bundlemodel.verify_level.self_s", "s"),
    ("bundlemodel.verify_level.calls", "count"),
    ("bundlemodel.jordan_certificate.total_s", "s"),
    ("bundlemodel.jordan_certificate.calls", "count"),
    ("bundlemodel.render.self_s", "s"),
    ("cli.main.traced_s", "s"),
    ("cli.main.untraced_s", "s"),
]


def benchmark_manifest() -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": w.why} for k, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


def write_benchmark_json(path: Path) -> None:
    path.write_text(json.dumps(benchmark_manifest(), indent=2) + "\n", encoding="utf-8")


# --- expected reports, computed from the invocation alone --------------------

def _spec_order(spec: str) -> int:
    return math.prod(int(atom[1:]) for atom in spec.lower().split("x"))


def _method(inv: Invocation, n: int) -> str:
    if inv.mode == "structural":
        return "structural"
    return "both" if n ** 3 <= ORACLE_CAP else "structural"


def expected_reports(inv: Invocation) -> list[dict]:
    """The `reports` list a correct program prints for this invocation."""
    if inv.base_group:
        classes = {_spec_order(inv.base_group) % 2: [_spec_order(inv.base_group)]}
    else:
        classes = {p: [n for n in range(1, inv.max_n + 1) if n % 2 == p]
                   for p in (0, 1)}
    out = []
    for parity, levels in classes.items():
        certificates = []
        if not inv.base_group:
            for c in THRESHOLDS:
                n = c + 1 if (c + 1) % 2 == parity else c + 2
                certificates.append({
                    "threshold": c, "n": n, "group_order": n ** 3,
                    "min_abelian_index": n, "method": _method(inv, n),
                })
        out.append({
            "manifold_class": parity,
            "entries": [{
                "n": n, "group_order": n ** 3, "max_abelian_order": n ** 2,
                "min_abelian_index": n, "method": _method(inv, n),
            } for n in levels],
            "threshold_certificates": certificates,
        })
    return out


def check_report(text: str, inv: Invocation, seed: int) -> list[str]:
    """Problems found in one JSON report; empty when it is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema {doc.get('schema')!r}")
    if doc.get("ok") is not True:
        problems.append(f"ok is {doc.get('ok')!r}")
    if doc.get("violations") != []:
        problems.append(f"violations {doc.get('violations')!r}")
    if "generated_at" in doc:
        problems.append("timestamp present under --no-timestamps")
    if doc.get("config", {}).get("seed") != seed:
        problems.append(f"config seed {doc.get('config', {}).get('seed')!r}")
    got = [{
        "manifold_class": r.get("manifold_class"),
        "entries": [{k: e.get(k) for k in ("n", "group_order", "max_abelian_order",
                                           "min_abelian_index", "method")}
                    for e in r.get("entries", [])],
        "threshold_certificates": r.get("threshold_certificates"),
    } for r in doc.get("reports", [])]
    want = expected_reports(inv)
    if got != want:
        problems.append(_first_difference(got, want))
    return problems


def _first_difference(got, want, path="reports") -> str:
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        for k in want:
            if got[k] != want[k]:
                return _first_difference(got[k], want[k], f"{path}.{k}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{path}[{i}]")
    return f"{path}: got {json.dumps(got)[:200]}, want {json.dumps(want)[:200]}"


# --- subprocess operations ---------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(args: list[str], env: dict | None = None):
    """Run `python <args>`; returns (exit code, stdout, stderr, wall s, peak RSS MB).

    Peak RSS is this child's own ru_maxrss from os.wait4, not the running
    maximum over all children that RUSAGE_CHILDREN would give.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env or _child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024


@dataclass
class Outcome:
    failed: bool
    wrong: bool  # exited 0 but printed a wrong report
    stdout: bytes
    wall_s: float
    peak_rss_mb: float


def invoke(inv: Invocation, seed: int, env: dict | None = None) -> Outcome:
    """One checked CLI subprocess."""
    code, out, err, wall, rss = spawn(["-m", "thetajordan", *inv.argv(seed)], env)
    problems = check_report(out.decode("utf-8", "replace"), inv, seed)
    if code != 0:
        why = err.decode("utf-8", "replace").strip().splitlines()[-1:] or problems[:1]
        _log(f"FAILED exit {code}: {' '.join(inv.argv(seed))}: {''.join(why)}")
    elif problems:
        _log(f"WRONG REPORT: {' '.join(inv.argv(seed))}: {problems[0]}")
    return Outcome(code != 0 or bool(problems), code == 0 and bool(problems),
                   out, wall, rss)


def setup_probe() -> float:
    """Seconds to start the interpreter and import thetajordan.cli."""
    code, _, err, wall, _ = spawn(["-c", "import thetajordan.cli"])
    if code != 0:
        raise SystemExit(f"cannot import thetajordan.cli: {err.decode()[-500:]}")
    return wall


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, and whether any exit-0 report was wrong."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, failed: bool, wrong: bool) -> None:
        self.attempted += 1
        self.failed += failed
        self.correct &= not wrong

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _rounds(seconds: float, at_least: int = 1):
    """Count rounds while one more round of the average length so far still
    ends within `seconds`, and at least `at_least` rounds."""
    start = perf_counter()
    n = 0
    while n < at_least or (perf_counter() - start) * (n + 1) / n <= seconds:
        yield n
        n += 1


def run_untraced(workload: Workload, seed: int, seconds: float) -> dict:
    setup_probe()  # untimed: byte-compiles the package in a fresh checkout
    tally = Tally()
    setups, walls, rsss = [], [], []
    first_stdout: list[bytes | None] = [None] * len(workload.invocations)
    # Two rounds at least: the second checks that each report is reproducible.
    for _ in _rounds(seconds, at_least=2):
        setups += [setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        wall, rss = 0.0, 0.0
        for i, inv in enumerate(workload.invocations):
            o = invoke(inv, seed)
            if first_stdout[i] is None:
                first_stdout[i] = o.stdout
            elif o.stdout != first_stdout[i] and not o.failed:
                _log(f"NOT REPRODUCIBLE: {' '.join(inv.argv(seed))}")
                o.failed = o.wrong = True
            tally.add(o.failed, o.wrong)
            wall += o.wall_s
            rss = max(rss, o.peak_rss_mb)
        walls.append(wall)
        rsss.append(rss)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe())
    _log(f"{len(walls)} rounds of {len(workload.invocations)} invocations, "
         f"{len(setups)} set-up probes; round wall s: "
         + " ".join(f"{w:.3f}" for w in walls))
    values = {"wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(rsss),
              "setup_s": statistics.median(setups)}
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return tally.result({k: {"value": v, "unit": units[k]} for k, v in values.items()})


# --- traced in-process run ---------------------------------------------------

class Tracer:
    """Calls, inclusive time and self time per span name.

    A span's self time is its duration minus the time covered by the spans it
    caused.  Counters record calls only.  They wrap functions called millions
    of times, so they are installed in a pass of their own: their overhead
    would otherwise land in the enclosing span's self time.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.entries = 0
        self._children: list[float] = []

    def span(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.total.setdefault(name, 0.0)
        self.self_s.setdefault(name, 0.0)
        stack = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def counter(self, name: str, fn):
        self.calls.setdefault(name, 0)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def table_span(self, name: str, fn):
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = inner(*args, **kwargs)
            self.entries += table.order ** 2
            return table
        return wrapper


# (span name, kind, module that defines the function, attribute path there).
# The wrapper replaces every reference to the function that a caller can look
# up: module globals (including names imported by name), class attributes
# and module-level dicts such as cli._RENDERERS.
TRACE_POINTS = [
    ("abelian.check_element", "counter", "abelian", "FiniteAbelianGroup.check_element"),
    ("heis.mul", "counter", "heis", "ThetaGroup.mul"),
    ("heis.to_concrete", "table", "heis", "ThetaGroup.to_concrete"),
    ("lattice.ConcreteGroup", "span", "lattice", "ConcreteGroup.__init__"),
    ("lattice.centralizer_masks", "span", "lattice", "ConcreteGroup.centralizer_masks"),
    ("lattice.max_abelian_order", "span", "lattice", "max_abelian_order"),
    ("bundlemodel.verify_level", "span", "bundlemodel", "verify_level"),
    ("bundlemodel.jordan_certificate", "span", "bundlemodel", "jordan_certificate"),
    ("bundlemodel.build_class_report", "span", "bundlemodel", "build_class_report"),
    ("bundlemodel.render", "span", "bundlemodel", "render_json"),
    ("bundlemodel.render", "span", "bundlemodel", "render_csv"),
    ("bundlemodel.render", "span", "bundlemodel", "render_table"),
    ("cli.main", "span", "cli", "main"),
]


def _namespaces():
    """Every mutable namespace of the package that can hold a function."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "thetajordan" and not mod_name.startswith("thetajordan."):
            continue
        yield vars(mod), lambda k, v, m=mod: setattr(m, k, v)
        for value in list(vars(mod).values()):
            if isinstance(value, dict):
                yield value, value.__setitem__
            elif isinstance(value, type) and value.__module__.startswith("thetajordan"):
                yield dict(vars(value)), lambda k, v, c=value: setattr(c, k, v)


def _rebind(old, new) -> int:
    count = 0
    for ns, assign in _namespaces():
        for key, value in list(ns.items()):
            if value is old:
                assign(key, new)
                count += 1
    return count


@contextlib.contextmanager
def traced(tracer: Tracer, counters: bool):
    """Install the span wrappers (or the counters), check none is bypassed,
    restore the originals on exit."""
    import importlib
    installed = []
    try:
        for name, kind, module, attr in TRACE_POINTS:
            if (kind == "counter") != counters:
                continue
            owner = importlib.import_module(f"thetajordan.{module}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[attr.split(".")[-1]]
            make = {"span": tracer.span, "counter": tracer.counter,
                    "table": tracer.table_span}[kind]
            wrapper = make(name, original)
            if _rebind(original, wrapper) == 0:
                raise RuntimeError(f"trace point {module}.{attr} not found")
            installed.append((original, wrapper))
        for original, _ in installed:
            if _rebind(original, original):
                raise RuntimeError(f"{original.__qualname__} still reachable unwrapped")
        yield tracer
    finally:
        for original, wrapper in reversed(installed):
            _rebind(wrapper, original)


def _cli_in_process(inv: Invocation, seed: int, cli) -> tuple[int, bytes, float]:
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inv.argv(seed))
    return code, buf.getvalue().encode("utf-8"), perf_counter() - t0


def expected_calls(workload: Workload) -> dict[str, int]:
    """Call counts a traced round must show, derived from the workload."""
    levels = certs = tables_needed = 0
    for inv in workload.invocations:
        for report in expected_reports(inv):
            levels += len(report["entries"])
            certs += len(report["threshold_certificates"])
        tables_needed += inv.mode != "structural"
    want = {"cli.main": len(workload.invocations),
            "bundlemodel.render": len(workload.invocations),
            "bundlemodel.verify_level": levels,
            "bundlemodel.jordan_certificate": certs}
    if not tables_needed:
        want["heis.to_concrete"] = 0
    return want


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thetajordan.cli
    if Path(thetajordan.cli.__file__).resolve().parent != SRC / "thetajordan":
        raise SystemExit(f"imported thetajordan from {thetajordan.cli.__file__}")

    tally = Tally()
    reference = []
    for inv in workload.invocations:
        o = invoke(inv, seed)
        tally.add(o.failed, o.wrong)
        reference.append(o.stdout)

    want = expected_calls(workload)
    rounds = []
    for _ in _rounds(seconds):
        tracer = Tracer()
        passes = {"untraced": contextlib.nullcontext,
                  "spans": lambda: traced(tracer, counters=False),
                  "counters": lambda: traced(tracer, counters=True)}
        seconds_per_pass = {}
        for pass_name, install in passes.items():
            seconds_per_pass[pass_name] = 0.0
            for inv, ref in zip(workload.invocations, reference):
                with install():
                    code, out, dt = _cli_in_process(inv, seed, thetajordan.cli)
                seconds_per_pass[pass_name] += dt
                wrong = code == 0 and out != ref
                if wrong:
                    _log(f"{pass_name} in-process report differs from the "
                         f"subprocess one: {' '.join(inv.argv(seed))}")
                tally.add(code != 0 or wrong, wrong)
        for name, count in want.items():
            if tracer.calls[name] != count:
                raise SystemExit(f"trace: {name} called {tracer.calls[name]} "
                                 f"times, the workload implies {count}")
        rounds.append(_layer_metrics(tracer, seconds_per_pass["spans"],
                                     seconds_per_pass["untraced"]))
    overhead = statistics.median(r["cli.main.traced_s"] - r["cli.main.untraced_s"]
                                 for r in rounds)
    _log(f"{len(rounds)} traced rounds of {len(workload.invocations)} "
         f"invocations; span tracing overhead {overhead:.4f} s")
    units = dict(PER_LAYER)
    return tally.result({
        name: {"value": statistics.median(r[name] for r in rounds), "unit": units[name]}
        for name in units
    })


def _layer_metrics(t: Tracer, traced_s: float, untraced_s: float) -> dict:
    return {
        "abelian.check_element.calls": t.calls["abelian.check_element"],
        "heis.mul.calls": t.calls["heis.mul"],
        "heis.to_concrete.calls": t.calls["heis.to_concrete"],
        "heis.to_concrete.entries": t.entries,
        "heis.to_concrete.self_s": t.self_s["heis.to_concrete"],
        "heis.to_concrete.ns_per_entry":
            t.self_s["heis.to_concrete"] / t.entries * 1e9 if t.entries else 0.0,
        "lattice.ConcreteGroup.self_s": t.self_s["lattice.ConcreteGroup"],
        "lattice.centralizer_masks.self_s": t.self_s["lattice.centralizer_masks"],
        "lattice.max_abelian_order.self_s": t.self_s["lattice.max_abelian_order"],
        "lattice.max_abelian_order.calls": t.calls["lattice.max_abelian_order"],
        "bundlemodel.verify_level.self_s": t.self_s["bundlemodel.verify_level"],
        "bundlemodel.verify_level.calls": t.calls["bundlemodel.verify_level"],
        "bundlemodel.jordan_certificate.total_s": t.total["bundlemodel.jordan_certificate"],
        "bundlemodel.jordan_certificate.calls": t.calls["bundlemodel.jordan_certificate"],
        "bundlemodel.render.self_s": t.self_s["bundlemodel.render"],
        "cli.main.traced_s": traced_s,
        "cli.main.untraced_s": untraced_s,
    }


# --- command line ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "thetajordan" / "cli.py").is_file():
        _log(f"no program source at {SRC / 'thetajordan'}")
        return 2

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    for name in names:
        run = run_traced if ns.trace else run_untraced
        result = run(WORKLOADS[name], ns.seed, ns.seconds)
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  operations: {result['attempted']} attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        print(json.dumps(result), flush=True)
    if ns.workload == "all":
        write_benchmark_json(BENCHMARK_JSON)
    return 0


if __name__ == "__main__":
    sys.exit(main())
