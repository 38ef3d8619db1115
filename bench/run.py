"""Benchmark for sgring: three closed-loop workloads, checked outputs, metrics.

    python3 bench/run.py [--workload population|fixtures|large-instances|all]
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test

Each workload runs whole rounds of ops, one op at a time, until --seconds
have passed.  Every op has a timeout and its outputs are checked against
the benchmark's own arithmetic (bench/oracle.py).  The last stdout line is
one JSON object: correct, attempted, failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics of one traced round (--trace 1).  A
fuller record, with machine facts, goes to .bench_out/.  See
bench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("population", "fixtures", "large-instances")
RUN_BUDGET_S = 160.0      # start no op past this; every run exits well inside 180 s
SETUP_PROBES = 9
OP_TIMEOUT_S = 60.0
FIXTURE_TIMEOUT_S = 90.0
HILBERT_DEADLINE_S = 1.0
HILBERT_TIMEOUT_S = HILBERT_DEADLINE_S + 3.0
TERM_GRACE_S = 5.0

# instances shared with tests/test_acceptance.py
CLOSURE_REGRESSIONS = {
    (57, 95, 56, 96): False,
    (250, 350, 550, 425, 476): False,
    (87, 145, 203, 126, 154): False,
    (87, 145, 203, 189, 231): True,
}
GLUED_INSTANCES = [
    (87, 145, 203, 252, 308), (66, 110, 135, 165), (16, 24, 36, 45),
    (42, 70, 77, 121), (75, 125, 88, 112), (57, 95, 56, 96),
]
TANGENT_REGRESSION = (105, 252, 119, 136)
MATRIX_A = ((3, 0), (5, 0), (0, 1), (1, 3), (2, 3))
MATRIX_B = ((6, 0), (10, 0), (0, 2), (2, 6), (4, 6), (6, 9))  # 2*A plus (6,9)
HILBERT_GENS = "1009,1013,1019"
DRAW_SIZES = (3, 4, 5)          # one large semigroup per generator count per round
DRAW_RANGE = (100, 3000)
DRAW_MAX_FROBENIUS = 100_000
MEMBERSHIP_POINTS = 8


class Op(NamedTuple):
    label: str
    run: Callable[["Context"], object]       # the timed program calls
    check: Callable[[object], tuple]        # -> (problems, decided cross-checks)
    timeout: float
    subprocess: bool = False


class OpTimeout(BaseException):
    """The op's own timeout expired (raised by SIGALRM in the op's frame)."""


class Context:
    """What an op may use besides its inputs: the tracer in a traced round,
    and the CLI figures that traced subprocess ops report back."""

    def __init__(self, tracer=None, trace_data=None):
        self.tracer = tracer
        self.trace_data = trace_data
        self.cli: list[dict] = []
        self.timeout = None   # this op's timeout, capped by the run's budget


# ---------------------------------------------------------------------------
# inputs


def population_gens(population_seed: int):
    """The test suite's rule: 2-4 generators from [2, 40], redrawn until the
    set is a minimal generating set with gcd 1."""
    from sgring.errors import InputError
    from sgring.semigroups import NumericalSemigroup
    rng = random.Random(population_seed)
    out = []
    while len(out) < 50:
        k = rng.randint(2, 4)
        cand = sorted(rng.sample(range(2, 41), k))
        try:
            out.append(NumericalSemigroup(cand).generators)
        except InputError:
            continue
    return out


def large_draw(seed: int):
    """One numerical semigroup per size in DRAW_SIZES, generators from
    DRAW_RANGE, Frobenius number below DRAW_MAX_FROBENIUS, plus the
    membership points near 10^6 for each."""
    from sgring.errors import InputError
    from sgring.semigroups import NumericalSemigroup
    rng = random.Random(seed)
    out = []
    for k in DRAW_SIZES:
        while True:
            cand = sorted(rng.sample(range(DRAW_RANGE[0], DRAW_RANGE[1] + 1), k))
            try:
                gens = NumericalSemigroup(cand).generators
            except InputError:
                continue
            if oracle.Numerical(gens).frobenius < DRAW_MAX_FROBENIUS:
                break
        points = [10**6 + rng.randint(-500, 500) for _ in range(MEMBERSHIP_POINTS)]
        out.append((gens, points))
    return out


def build_inputs(workload: str, seed: int, population_seed: int):
    if workload == "population":
        gens = population_gens(population_seed)
        random.Random(seed).shuffle(gens)
        return gens
    if workload == "fixtures":
        import sgring.cli  # noqa: F401  the CLI import is the set-up here
        return None
    return large_draw(seed)


# ---------------------------------------------------------------------------
# ops and their checks


def _verdict_problems(v, want, label):
    problems = []
    if v.conflict:
        problems.append(f"{label}: verdict {v.name} has a conflict")
    if v.result is not want:
        problems.append(f"{label}: {v.name} = {v.result}, reference says {want}")
    return problems


def _decided(*verdicts):
    return sum(c.result is not None for v in verdicts for c in v.cross_checks)


def population_op(gens) -> Op:
    def run(ctx):
        from sgring.resolution import betti_degrees, pf_via_betti
        from sgring.semigroups import NumericalSemigroup
        from sgring.verdicts import (acm_projective_closure, cm_tangent_cone,
                                     gorenstein_numerical)
        s = NumericalSemigroup(gens)
        table = betti_degrees(s)
        return (cm_tangent_cone(s), acm_projective_closure(s), gorenstein_numerical(s),
                table, pf_via_betti(s, table))

    def check(out):
        tc, acm, gor, table, pf = out
        ref = oracle.Numerical(gens)
        label = f"<{','.join(map(str, gens))}>"
        problems = (_verdict_problems(tc, oracle.tangent_cone_cm(gens), label)
                    + _verdict_problems(acm, oracle.closure_acm(gens), label)
                    + _verdict_problems(gor, ref.symmetric, label))
        if not table.certified:
            problems.append(f"{label}: numerical Betti table not certified")
        if list(pf) != ref.pseudo_frobenius():
            problems.append(f"{label}: pf_via_betti {pf}, Apery gives {ref.pseudo_frobenius()}")
        return problems, _decided(tc, acm, gor)

    return Op(f"population {gens}", run, check, OP_TIMEOUT_S)


def closure_op(gens) -> Op:
    def run(ctx):
        from sgring.semigroups import NumericalSemigroup
        from sgring.verdicts import acm_projective_closure
        return acm_projective_closure(NumericalSemigroup(gens))

    def check(v):
        return _verdict_problems(v, oracle.closure_acm(gens), f"closure {gens}"), _decided(v)

    return Op(f"acm_projective_closure {gens}", run, check, OP_TIMEOUT_S)


def tangent_op(gens) -> Op:
    def run(ctx):
        from sgring.semigroups import NumericalSemigroup
        from sgring.verdicts import cm_tangent_cone
        return cm_tangent_cone(NumericalSemigroup(gens))

    def check(v):
        return (_verdict_problems(v, oracle.tangent_cone_cm(gens), f"tangent cone {gens}"),
                _decided(v))

    return Op(f"cm_tangent_cone {gens}", run, check, OP_TIMEOUT_S)


def matrices_op() -> Op:
    """Matrices A and B through betti_degrees and pf_via_betti; one op, as
    B is checked against A by the extension law."""
    def run(ctx):
        from sgring.resolution import betti_degrees, pf_via_betti
        from sgring.semigroups import AffineSemigroup
        a, b = AffineSemigroup(MATRIX_A), AffineSemigroup(MATRIX_B)
        ta, tb = betti_degrees(a), betti_degrees(b)
        return ta, pf_via_betti(a, ta), tb, pf_via_betti(b, tb)

    def check(out):
        ta, pf_a, tb, pf_b = out
        problems = oracle.extension_law_problems(ta.total, tb.total)
        problems += [f"matrix A: {p}" for p in oracle.affine_pf_problems(MATRIX_A, pf_a)]
        problems += [f"matrix B: {p}" for p in oracle.affine_pf_problems(MATRIX_B, pf_b)]
        # PF of the extension <2A, (6,9)> is 2f + (6,9) for f in PF(A)
        want = sorted(tuple(2 * c + s for c, s in zip(f, (6, 9))) for f in pf_a)
        if sorted(pf_b) != want:
            problems.append(f"matrix B PF {pf_b}, extension formula gives {want}")
        return problems, 0

    return Op("betti_degrees + pf_via_betti matrices A, B", run, check, OP_TIMEOUT_S)


def draw_op(gens, points) -> Op:
    def run(ctx):
        from sgring.semigroups import NumericalSemigroup
        from sgring.toric import toric_ideal
        from sgring.verdicts import gorenstein_numerical
        s = NumericalSemigroup(gens)
        return (s.frobenius(), s.gaps(), s.pf_numeric(), gorenstein_numerical(s),
                toric_ideal(s), [p in s for p in points])

    def check(out):
        frob, gaps, pf, gor, ideal, member = out
        ref = oracle.Numerical(gens)
        label = f"<{','.join(map(str, gens))}>"
        problems = _verdict_problems(gor, ref.symmetric, label)
        if frob != ref.frobenius:
            problems.append(f"{label}: frobenius {frob}, Apery gives {ref.frobenius}")
        if (len(gaps) != ref.gap_count or any(ref.member(x) for x in gaps)
                or any(b <= a for a, b in zip(gaps, gaps[1:]))
                or (gaps and (gaps[0] < 1 or gaps[-1] != ref.frobenius))):
            problems.append(f"{label}: {len(gaps)} gaps listed, Selmer gives {ref.gap_count}")
        if pf != ref.pseudo_frobenius():
            problems.append(f"{label}: pf_numeric {pf}, Apery gives {ref.pseudo_frobenius()}")
        problems += [f"{label}: {p}" for p in oracle.toric_generators_problems(
            gens, [(b.lead, b.tail) for b in ideal.generators], ref.symmetric)]
        want = [ref.member(p) for p in points]
        if member != want:
            problems.append(f"{label}: membership {member}, Apery rule gives {want}")
        return problems, _decided(gor)

    return Op(f"large draw {gens}", run, check, OP_TIMEOUT_S)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    return env


def run_cli(ctx: Context, args):
    """One sgring invocation as a subprocess; traced through cli_child.py in
    a traced round.  On timeout: SIGTERM, a grace period, then SIGKILL."""
    timeout = ctx.timeout
    trace_file = None
    if ctx.tracer is not None:
        fd, trace_file = tempfile.mkstemp(prefix="cli-", suffix=".json", dir=OUT)
        os.close(fd)
        op_frame = ctx.tracer.current()
        cmd = [sys.executable, str(HERE / "cli_child.py"), trace_file,
               str(ctx.tracer.op), str(op_frame[0]), "--", *args]
    else:
        cmd = [sys.executable, "-m", "sgring.cli", *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    wall = perf_counter() - t0
    if trace_file is not None:
        try:
            with open(trace_file) as fh:
                part = json.load(fh)
        except (OSError, ValueError):
            part = None
        os.unlink(trace_file)
        if part is not None:
            cli = part.pop("cli")
            op_frame[1] += cli["main_s"]  # the child's traced time is not the op's own
            ctx.cli.append(dict(cli, invocation_wall_s=wall))
            tracing.merge(ctx.trace_data, part)
    if timed_out:
        raise OpTimeout(f"no answer within {timeout:g} s")
    return proc.returncode, out, err


def fixtures_op(reference: bytes) -> Op:
    def run(ctx):
        return run_cli(ctx, ["fixtures", "--threads", "2"])

    def check(out):
        code, stdout, err = out
        problems = [] if code == 0 else [f"exit code {code}: {err.decode()[-200:]}"]
        if stdout != reference:
            problems.append("stdout at --threads 2 differs from --threads 1")
        p, decided = fixture_report_problems(stdout)
        return problems + p, decided

    return Op("sgring fixtures --threads 2", run, check, FIXTURE_TIMEOUT_S, subprocess=True)


def fixture_report_problems(stdout: bytes):
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], 0
    problems = oracle.job_schema_problems(doc)
    result = doc.get("result", {})
    reports = result.get("reports", [])
    if result.get("conflicts") != "0":
        problems.append(f"{result.get('conflicts')} conflicts reported")
    for rep in reports:
        if any(n.startswith("CONFLICT:") for n in rep.get("notes", [])):
            problems.append(f"{rep.get('label')}: conflict note")
        if all(h["holds"] for h in rep["hypotheses"]) and not rep["agree"]:
            problems.append(f"{rep.get('label')}: hypotheses hold but sides disagree")
    if doc.get("params", {}).get("count") != str(len(reports)) or not reports:
        problems.append(f"{len(reports)} reports for count {doc.get('params')}")
    decided = sum(h["holds"] is not None for rep in reports for h in rep["hypotheses"])
    return problems, decided


def hilbert_op() -> Op:
    """Fails today: hilbert_stabilization fills the order table to 52,382,233
    entries for this input and never checks the deadline.  An exit before
    the op's timeout, with code 3 (deadline honoured) or a report, is a pass."""
    args = ["hilbert", "--numerical", HILBERT_GENS, "--deadline", str(HILBERT_DEADLINE_S)]

    def run(ctx):
        return run_cli(ctx, args)

    def check(out):
        code, stdout, err = out
        if code == 3:
            return [], 0
        if code != 0:
            return [f"exit code {code}: {err.decode()[-200:]}"], 0
        doc = json.loads(stdout)
        problems = oracle.job_schema_problems(doc)
        values = [int(v) for v in doc["result"]["values"]]
        if values[-1] != 1009:
            problems.append(f"H at the stabilization index is {values[-1]}, not n_1 = 1009")
        return problems, 0

    return Op(f"sgring hilbert --numerical {HILBERT_GENS}", run, check, HILBERT_TIMEOUT_S,
              subprocess=True)


def round_ops(workload: str, inputs, reference) -> list[Op]:
    if workload == "population":
        return [population_op(g) for g in inputs]
    if workload == "fixtures":
        return [fixtures_op(reference)]
    ops = [closure_op(g) for g in CLOSURE_REGRESSIONS]
    ops += [tangent_op(g) for g in GLUED_INSTANCES + [TANGENT_REGRESSION]]
    ops.append(matrices_op())
    ops += [draw_op(g, pts) for g, pts in inputs]
    ops.append(hilbert_op())
    return ops


# ---------------------------------------------------------------------------
# running


class Run:
    def __init__(self, started: float):
        self.started = started
        self.records: list[dict] = []
        self.decided_per_round: list[int] = []
        self.incorrect: list[str] = []

    def budget_left(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.started)


def _alarm(signum, frame):
    raise OpTimeout("op timeout")


def run_round(ops: list[Op], run: Run, ctx: Context) -> float:
    """Run each op once, in order; returns the round's wall time."""
    t_round = perf_counter()
    decided = 0
    tracer = ctx.tracer
    for op in ops:
        record = {"op": op.label, "ok": False}
        run.records.append(record)
        timeout = min(op.timeout, run.budget_left())
        if timeout <= 0:
            record.update(ms=0.0, status="not started: run budget exhausted")
            continue
        if tracer is not None:
            tracer.op += 1
        ctx.timeout = timeout
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    out = _timed(op, ctx)
            else:
                out = _timed(op, ctx)
        except OpTimeout:
            record.update(ms=(perf_counter() - t0) * 1e3, status="timeout")
            continue
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record.update(ms=(perf_counter() - t0) * 1e3,
                          status=f"raised {type(exc).__name__}: {exc}")
            continue
        record["ms"] = (perf_counter() - t0) * 1e3
        if tracer is not None:
            with tracer.span("bench.check"):
                problems, n = op.check(out)
        else:
            problems, n = op.check(out)
        decided += n
        if problems:
            record["status"] = "check failed: " + "; ".join(problems)
            run.incorrect.extend(problems)
        else:
            record.update(ok=True, status="ok")
    run.decided_per_round.append(decided)
    return perf_counter() - t_round


def _timed(op: Op, ctx: Context):
    if op.subprocess:   # run_cli enforces ctx.timeout itself
        return op.run(ctx)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ctx.timeout)
    try:
        return op.run(ctx)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def setup_seconds(workload: str, seed: int, population_seed: int) -> list[float]:
    """Import plus input construction, each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--population-seed", str(population_seed)]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=ROOT,
                             timeout=60)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr[-300:]}")
        out.append(float(res.stdout.split()[-1]))
    return out


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(run: Run, setup: list[float]) -> dict:
    ms = [r["ms"] for r in run.records]
    ok = sum(r["ok"] for r in run.records)
    busy = sum(ms) / 1e3
    metrics = {
        "ops_per_s": (ok / busy if busy else 0.0, "ops/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "decided_checks": (statistics.median(run.decided_per_round), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def latency_ms(run: Run) -> dict:
    """Op latency percentiles, reported beside the end-to-end metrics: the
    median, and the 80th percentile when at least 50 ops leave ten beyond it.
    They are left out of BENCHMARK.json because the latency of sub-second
    ops on a shared two-core host spreads by more than any allowed bound."""
    ms = [r["ms"] for r in run.records]
    out = {"op_p50_ms": statistics.median(ms)}
    if len(ms) >= 50:
        out["op_p80_ms"] = statistics.quantiles(ms, n=5)[-1]
    return out


def per_layer(summary: dict, ctx: Context, traced_wall: float, untraced_wall: float) -> dict:
    calls, self_s, distinct = summary["calls"], summary["self_s"], summary["distinct"]
    status = summary["status"]
    closures = calls.get("verdicts.closure_resolution", 0)
    cpu = sum(c["cpu_s"] for c in ctx.cli)
    cli_wall = sum(c["invocation_wall_s"] for c in ctx.cli)
    counts = {
        "toric.toric_ideal.calls": calls.get("toric.toric_ideal", 0),
        "toric.toric_ideal.distinct": distinct.get("toric.toric_ideal", 0),
        "toric.route_elimination.calls": calls.get("toric.route_elimination", 0),
        "toric.route_graph.calls": calls.get("toric.route_graph", 0),
        "groebner.buchberger.calls": calls.get("groebner.buchberger", 0),
        "groebner.normal_form.calls": calls.get("groebner.normal_form", 0),
        "groebner.standard_basis_local.calls": calls.get("groebner.standard_basis_local", 0),
        "groebner.is_groebner.calls": calls.get("groebner.is_groebner", 0),
        "monomials.divides.calls": calls.get("monomials.divides", 0),
        "resolution.betti_degrees.calls": calls.get("resolution.betti_degrees", 0),
        "resolution.betti_degrees.distinct": distinct.get("resolution.betti_degrees", 0),
        "resolution.betti_degrees.refused": status.get("resolution.betti_degrees:InputError", 0),
        "resolution.betti_degrees.clipped": status.get(
            "resolution.betti_degrees:BoundInsufficient", 0),
        "linalg.rational_rank.calls": calls.get("linalg.rational_rank", 0),
        "linalg.nonneg_solve.calls": calls.get("linalg.nonneg_solve", 0),
        "verdicts.closure_resolution.calls": closures,
        "verdicts.closure_resolution.distinct": distinct.get("verdicts.closure_resolution", 0),
        "verdicts.closure_resolution.scans": summary["closure_scans"],
        "verdicts.cross_checks_undecided": summary["events"].get(
            "verdicts.cross_checks_undecided", 0),
        "theorems.fixture.calls": calls.get("theorems.fixture", 0),
    }
    for name in ("membership", "apery", "ord", "hilbert_stabilization", "affine_membership",
                 "gap_set"):
        counts[f"semigroups.{name}.calls"] = calls.get(f"semigroups.{name}", 0)
    metrics = {k: (v, "count") for k, v in counts.items()}
    metrics["verdicts.closure_resolution.scans_per_call"] = (
        summary["closure_scans"] / closures if closures else 0.0, "scans/call")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer, s in summary["layer_self_s"].items():
        metrics[f"layer.{layer}.self_s"] = (s, "s")
    metrics["cli.import_s"] = (sum(c["import_s"] for c in ctx.cli), "s")
    metrics["cli.cpu_s"] = (cpu, "s")
    metrics["cli.wall_s"] = (cli_wall, "s")
    metrics["cli.parallelism"] = (cpu / cli_wall if cli_wall else 0.0, "cpu_s/wall_s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.self_sum_s"] = (sum(summary["layer_self_s"].values()), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


SELF_TIMES = (
    "toric.toric_ideal", "toric.route_elimination", "toric.route_graph",
    "groebner.buchberger", "groebner.normal_form", "groebner.standard_basis_local",
    "groebner.is_groebner",
    "semigroups.membership", "semigroups.apery", "semigroups.ord",
    "semigroups.hilbert_stabilization", "semigroups.affine_membership", "semigroups.gap_set",
    "resolution.betti_degrees", "linalg.rational_rank", "linalg.nonneg_solve",
    "verdicts.closure_resolution", "verdicts.acm_projective_closure",
    "verdicts.cm_tangent_cone", "verdicts.gorenstein_numerical",
    "verdicts.gorenstein_projective_closure", "theorems.verify", "cli.main",
)

# the per-layer metrics printed on the last line (BENCHMARK.json's
# per_layer); the rest are in the .bench_out record.  Self times listed
# here are nonzero on every workload.
HEADLINE = (
    "toric.toric_ideal.calls", "toric.toric_ideal.distinct", "toric.toric_ideal.self_s",
    "toric.route_elimination.calls", "toric.route_graph.calls",
    "groebner.buchberger.calls", "groebner.buchberger.self_s",
    "groebner.normal_form.calls", "groebner.normal_form.self_s",
    "groebner.standard_basis_local.calls", "groebner.standard_basis_local.self_s",
    "groebner.is_groebner.calls", "monomials.divides.calls",
    "semigroups.membership.calls", "semigroups.membership.self_s",
    "semigroups.apery.calls", "semigroups.apery.self_s",
    "semigroups.ord.calls", "semigroups.ord.self_s",
    "semigroups.hilbert_stabilization.calls", "semigroups.affine_membership.calls",
    "semigroups.gap_set.calls",
    "resolution.betti_degrees.calls", "resolution.betti_degrees.distinct",
    "resolution.betti_degrees.self_s", "resolution.betti_degrees.refused",
    "resolution.betti_degrees.clipped",
    "linalg.rational_rank.calls", "linalg.rational_rank.self_s",
    "verdicts.closure_resolution.calls", "verdicts.closure_resolution.distinct",
    "verdicts.closure_resolution.self_s", "verdicts.closure_resolution.scans_per_call",
    "verdicts.cm_tangent_cone.self_s", "verdicts.acm_projective_closure.self_s",
    "verdicts.cross_checks_undecided",
    "linalg.nonneg_solve.calls", "theorems.fixture.calls",
    "trace.overhead_s",
)


def machine_facts() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 population_seed: int) -> int:
    started = perf_counter()
    setup = setup_seconds(workload, seed, population_seed)
    inputs = build_inputs(workload, seed, population_seed)
    run = Run(started)
    reference = None
    if workload == "fixtures":
        # the --threads 1 output every --threads 2 op must reproduce
        ctx = Context()
        ctx.timeout = FIXTURE_TIMEOUT_S
        code, reference, err = run_cli(ctx, ["fixtures", "--threads", "1"])
        problems, _ = fixture_report_problems(reference)
        if code != 0 or problems:
            run.incorrect.append(f"--threads 1 reference: exit {code}; {problems}")
    ops = round_ops(workload, inputs, reference)

    layer = None
    if not trace:
        t0 = perf_counter()
        while True:
            wall = run_round(ops, run, Context())
            elapsed = perf_counter() - t0
            if elapsed >= seconds or run.budget_left() < wall:
                break
    else:
        untraced = run_round(ops, run, Context())
        tracer = tracing.Tracer(proc=os.getpid())
        data = {"spans": [], "hot": [], "counts": {}, "keys": {}, "events": {}}
        ctx = Context(tracer, data)
        tracer.install()
        try:
            traced = run_round(ops, run, ctx)
        finally:
            tracer.uninstall()
        tracing.merge(data, tracer.data())
        summary = tracing.summarize(data)
        layer = per_layer(summary, ctx, traced, untraced)
        tracing.write(OUT / f"{workload}-seed{seed}.spans.json", data)

    failed = sum(not r["ok"] for r in run.records)
    result = {"correct": not run.incorrect, "attempted": len(run.records), "failed": failed}
    if trace:
        result["metrics"] = {k: layer[k] for k in HEADLINE}
    else:
        result["metrics"] = end_to_end(run, setup)

    record = {"workload": workload, "seed": seed, "population_seed": population_seed,
              "seconds": seconds, "trace": trace, "machine": machine_facts(),
              "setup_s": setup, "rounds": len(run.decided_per_round),
              "ops": run.records, "incorrect": run.incorrect, "result": result}
    if trace:
        record["per_layer"] = layer
    else:
        record["latency"] = latency_ms(run)
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {workload}: seed {seed}, {record['rounds']} round(s), "
          f"{result['attempted']} ops attempted, {failed} failed; record in .bench_out/{name}")
    for r in run.records:
        if not r["ok"]:
            print(f"#   failed: {r['op']}: {r['status']}")
    shown = layer if trace else result["metrics"]
    for k, m in shown.items():
        print(f"#   {k} = {m['value']:.6g} {m['unit']}")
    for k, v in record.get("latency", {}).items():
        print(f"#   {k} = {v:.6g} ms (over {len(run.records)} ops; not gated)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# self-test of the checkers


def self_test() -> list[str]:
    """The benchmark's own checkers against values known by hand."""
    problems = []
    s = oracle.Numerical((3, 5, 7))
    if (s.frobenius, s.pseudo_frobenius(), s.gap_count) != (4, [2, 4], 3):
        problems.append(f"<3,5,7>: F={s.frobenius} PF={s.pseudo_frobenius()}")
    if not oracle.Numerical((3, 5)).symmetric or oracle.Numerical((3, 5, 7)).symmetric:
        problems.append("symmetry of <3,5> / <3,5,7>")
    if [x for x in range(12) if not oracle.Numerical((3, 5)).member(x)] != [1, 2, 4, 7]:
        problems.append("gaps of <3,5>")
    for gens, want in CLOSURE_REGRESSIONS.items():
        if oracle.closure_acm(gens) is not want:
            problems.append(f"closure ACM {gens} should be {want}")
    for gens, want in ((TANGENT_REGRESSION, False), ((3, 5, 7), True)):
        if oracle.tangent_cone_cm(gens) is not want:
            problems.append(f"tangent cone CM {gens} should be {want}")
    if oracle.extension_law_problems((1, 2, 1), (1, 3, 3, 1)):
        problems.append("extension law on (1,2,1)")
    return problems


def setup_probe(workload: str, seed: int, population_seed: int) -> None:
    t0 = perf_counter()
    import sgring  # noqa: F401
    build_inputs(workload, seed, population_seed)
    print(perf_counter() - t0)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--population-seed", type=int, default=2026,
                   help="seed of the 50-semigroup population (the test suite's is 2026)")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "sgring" / "__init__.py").is_file():
        sys.stderr.write(f"sgring sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.population_seed)
        return 0
    problems = self_test()
    if problems or args.self_test:
        print("self-test: " + ("; ".join(problems) if problems else "ok"))
        return 2 if problems else 0
    import sgring
    if Path(sgring.__file__).resolve().parent != SRC / "sgring":
        sys.stderr.write(f"imported sgring from {sgring.__file__}, not {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.population_seed)
    codes = [subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace),
                             "--population-seed", str(args.population_seed)],
                            cwd=ROOT).returncode for w in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
