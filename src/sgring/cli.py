"""Command-line front end.

Subcommands: analyze, glue, star-glue, extend, join, betti, pf, sifr,
hilbert, verify <check-id>, fixtures.  Exit codes: 0 success, 1 mathematical
conflict (a cross-check or theorem check disagrees), 2 input error,
3 resource bound (DeadlineExceeded or CertificationError: a deadline, a scan
box past its budget, or a failed certificate), 141 stdout closed by its
reader (no traceback).

JSON documents carry {"schema_version", "type", "generators", "params"}
with every integer as a decimal string; reports add "command" and "result"
and re-parse under the same input schema.  SGRING_DEADLINE (seconds) sets
the default for --deadline; --threads is validated but changes nothing,
since fixture batches run serially.

Each `cmd_*` handler computes and returns a `Report` and writes nothing;
`main` alone writes stdout and picks the exit code.  Its one deadline scope
(`errors.Deadline`) covers the handler and the rendering of the report, and
every loop that can run long checks it, `jsonable` included.  A scope covers only the thread that
opened it; the CLI runs one thread.

Only errors and the numerical layer (semigroups) load with this module.
Each handler, and each branch that reads affine input, imports the affine,
monomials, toric, groebner, resolution, verdicts or theorems names it
calls, so `hilbert` compiles no affine, linear-algebra or Groebner code and
`glue` no Groebner or Betti code; `glue` loads verdicts (and through it the
Groebner stack) only under --projective or --tangent-cone.  `verify` reads
its theorem ids from `theorems` only when its arguments are parsed or its
help is printed.  A command line naming a command builds that command's
arguments alone; help, usage and errors read as with every command built.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import CertificationError, Deadline, DeadlineExceeded, InputError, tick
from .semigroups import NumericalSemigroup

if TYPE_CHECKING:
    from .theorems import TheoremReport

SCHEMA_VERSION = "1"
EXIT_OK, EXIT_CONFLICT, EXIT_INPUT, EXIT_BOUND, EXIT_PIPE = 0, 1, 2, 3, 128 + 13


# ---------------------------------------------------------------------------
# input parsing


class JobSpec(NamedTuple):
    type: str                       # "numerical" | "affine"
    generators: tuple[tuple[int, ...], ...]
    params: dict


def _decimal(cell, path: str) -> int:
    if not isinstance(cell, str) or not (cell.isascii() and cell.isdigit()):
        raise InputError(f"{path}: expected a decimal string of a nonnegative integer")
    return int(cell)


def parse_input(path: str) -> JobSpec:
    """Validated JobSpec from a JSON file; errors carry JSON-pointer paths."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex}")
    except json.JSONDecodeError as ex:
        raise InputError(f"/: not valid JSON: {ex}")
    return parse_job(doc)


def parse_job(doc) -> JobSpec:
    if not isinstance(doc, dict):
        raise InputError("/: expected an object")
    for key in ("schema_version", "type", "generators", "params"):
        if key not in doc:
            raise InputError(f"/{key}: required key missing")
    if str(doc["schema_version"]) != SCHEMA_VERSION:
        raise InputError(f"/schema_version: unsupported version {doc['schema_version']!r}")
    kind = doc["type"]
    if kind not in ("numerical", "affine"):
        raise InputError("/type: must be 'numerical' or 'affine'")
    rows = doc["generators"]
    if not isinstance(rows, list) or not rows:
        raise InputError("/generators: expected a nonempty array")
    gens = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise InputError(f"/generators/{i}: expected a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"/generators/{i}: expected {width} entries, got {len(row)}")
        gens.append(tuple(_decimal(c, f"/generators/{i}/{j}") for j, c in enumerate(row)))
    if kind == "numerical" and width != 1:
        raise InputError("/generators/0: numerical generators are single-entry rows")
    params = doc["params"]
    if not isinstance(params, dict):
        raise InputError("/params: expected an object")
    return JobSpec(kind, tuple(gens), params)


def job_semigroup(job: JobSpec):
    if job.type == "numerical":
        return NumericalSemigroup([g[0] for g in job.generators])
    from .affine import AffineSemigroup
    return AffineSemigroup(job.generators)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"{what}: expected comma-separated integers, got {text!r}")


def _matrix(text: str, what: str) -> tuple[tuple[int, ...], ...]:
    """Rows split on ';', entries on whitespace or one comma."""
    rows = []
    for row in text.split(";"):
        try:
            rows.append(tuple(int(c) for c in re.split(r"\s*,\s*|\s+", row.strip())))
        except ValueError:
            raise InputError(f"{what}: expected integers separated by spaces or "
                             f"commas, got {row!r}")
    return tuple(rows)


def _resolve_semigroup(args):
    """Semigroup from --numerical / --affine / --input, exactly one source."""
    sources = [s for s in (args.numerical, args.affine, args.input) if s]
    if len(sources) != 1:
        raise InputError("semigroup: give exactly one of --numerical, --affine, --input")
    if args.input:
        return job_semigroup(parse_input(args.input))
    if args.numerical:
        return NumericalSemigroup(_int_list(args.numerical, "--numerical"))
    from .affine import AffineSemigroup
    return AffineSemigroup(_matrix(args.affine, "--affine"))


# ---------------------------------------------------------------------------
# output rendering


class Report(NamedTuple):
    """What a handler computed: the semigroup the document describes (None for
    a fixture batch), params, result, text lines, and whether a check disagreed."""
    carrier: object
    params: dict
    result: dict
    lines: list[str]
    conflict: bool = False


def jsonable(value):
    """Ints become decimal strings, tuples become arrays, recursively,
    checking the deadline every 4096 values.  An array converts in chunks of
    4096; a chunk of plain ints (bools are not) goes through `str` at once."""
    seen = 0

    def convert(value):
        nonlocal seen
        seen += 1
        if not seen & 4095:
            tick()
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return value
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            out = []
            for start in range(0, len(value), 4096):
                chunk = value[start:start + 4096]
                if all(type(v) is int for v in chunk):
                    tick()
                    out += map(str, chunk)
                else:
                    out += map(convert, chunk)
            return out
        return str(value)

    return convert(value)


def semigroup_doc(s) -> dict:
    """Type and generator rows of s; None (a fixture batch) gives the row 0."""
    if s is None:
        return {"type": "numerical", "generators": [[0]]}
    if isinstance(s, NumericalSemigroup):
        return {"type": "numerical", "generators": [[g] for g in s.generators]}
    return {"type": "affine", "generators": s.generators}


def degree_doc(d) -> list:
    """A degree as a list; numerical degrees are plain ints."""
    return list(d) if isinstance(d, tuple) else [d]


def verdict_report(carrier, params: dict, result: dict, lines: list[str],
                   verdicts) -> Report:
    """The report with the verdicts appended to its result and its lines."""
    result["verdicts"] = []
    for v in verdicts:
        result["verdicts"].append(
            {"check": v.name, "result": v.result, "method": v.method,
             "witness": v.witness, "conflict": v.conflict,
             "cross_checks": [{"name": c.name, "result": c.result, "note": c.note}
                              for c in v.cross_checks]})
        lines.append(f"[{v.name}] verdict={str(v.result).lower()} ({v.method})")
        for c in v.cross_checks:
            lines.append(f"    cross-check {c.name}: {c.result}"
                         + (f" -- {c.note}" if c.note else ""))
        if v.conflict:
            lines.append("    CONFLICT: cross-checks disagree with the primary method")
    return Report(carrier, params, result, lines, any(v.conflict for v in verdicts))


def theorem_doc(rep: TheoremReport) -> dict:
    return {"check": rep.theorem, "instance": rep.instance,
            "hypotheses": [{"name": h.name, "holds": h.holds, "note": h.note}
                           for h in rep.hypotheses_checked],
            "hypotheses_hold": rep.hypotheses_hold,
            "predicted": rep.predicted, "computed": rep.computed,
            "agree": rep.agree, "notes": list(rep.notes)}


def theorem_report(carrier, params: dict, rep: TheoremReport) -> Report:
    """The report of one theorem check on the constructed semigroup."""
    status = "agree" if rep.agree else "DISAGREE"
    if not rep.hypotheses_hold:
        status += " (hypotheses not satisfied)"
    lines = [f"[{rep.theorem}] {rep.instance}: {status}"]
    for h in rep.hypotheses_checked:
        lines.append(f"    hypothesis {h.name}: {h.holds}"
                     + (f" -- {h.note}" if h.note else ""))
    lines.append(f"    predicted: {rep.predicted}")
    lines.append(f"    computed:  {rep.computed}")
    for n in rep.notes:
        lines.append(f"    note: {n}")
    return Report(carrier, params, theorem_doc(rep), lines, theorem_conflict(rep))


def theorem_conflict(rep: TheoremReport) -> bool:
    if rep.hypotheses_hold and not rep.agree:
        return True
    return any(n.startswith("CONFLICT:") for n in rep.notes)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a Report and writes nothing)


def cmd_analyze(args) -> Report:
    from .monomials import format_binomial
    from .resolution import betti_degrees, resolution_summary
    from .toric import reduced_basis, toric_ideal
    from .verdicts import (acm_projective_closure, cm_tangent_cone,
                           gorenstein_numerical, gorenstein_projective_closure)
    s = _resolve_semigroup(args)
    flags = [f for f in ("tangent_cone", "projective", "gorenstein") if getattr(args, f)]
    ideal = toric_ideal(s)
    gb = reduced_basis(s)
    result = {"embedding_dim": len(ideal.variables),
              "ideal": [format_binomial(b, ideal.variables) for b in ideal.generators],
              "reduced_gb": [format_binomial(b, ideal.variables) for b in gb.elements]}
    lines = [f"generators: {s.generators}",
             f"toric ideal ({len(ideal.generators)} binomials): "
             + "; ".join(result["ideal"]),
             f"reduced degrevlex basis ({len(gb.elements)}): "
             + "; ".join(result["reduced_gb"])]
    verdicts = []
    if isinstance(s, NumericalSemigroup):
        wanted = flags or ("tangent_cone", "projective", "gorenstein")
        if "tangent_cone" in wanted:
            verdicts.append(cm_tangent_cone(s))
        if "projective" in wanted:
            verdicts.append(acm_projective_closure(s))
        if "gorenstein" in wanted:
            verdicts.append(gorenstein_numerical(s))
            verdicts.append(gorenstein_projective_closure(s))
    else:
        table = betti_degrees(s)
        summary = resolution_summary(s, table)
        result["betti_totals"] = table.total
        result["resolution"] = {"pd": summary.pd, "depth": summary.depth,
                                "dim": summary.dim, "cm": summary.cm,
                                "gorenstein": summary.gorenstein}
        lines.append(f"betti totals {table.total}; pd={summary.pd} "
                     f"depth={summary.depth} dim={summary.dim} "
                     f"cm={summary.cm} gorenstein={summary.gorenstein}")
    return verdict_report(s, dict.fromkeys(flags, True), result, lines, verdicts)


def _gluing_from_args(args):
    from .affine import gluing
    return gluing(_int_list(args.left, "--left"), _int_list(args.right, "--right"),
                  _int_list(args.b, "--b"), _int_list(args.a, "--a"))


def cmd_glue(args) -> Report:
    from .affine import glue, is_nice_gluing, is_star_gluing
    spec = _gluing_from_args(args)
    glued = glue(spec)
    result = {"glued_generators": spec.glued_generators,
              "p": spec.p, "q": spec.q,
              "classification": is_nice_gluing(spec),
              "star": is_star_gluing(spec),
              "largest_side": spec.largest_side,
              "smallest_side": spec.smallest_side}
    lines = [f"glued semigroup: {spec.glued_generators} (p={spec.p}, q={spec.q}, "
             f"{result['classification']}, star={result['star']})"]
    verdicts = []
    if args.projective:
        from .verdicts import acm_projective_closure
        verdicts.append(acm_projective_closure(glued))
    if args.tangent_cone:
        from .verdicts import cm_tangent_cone
        verdicts.append(cm_tangent_cone(glued))
    params = {"left": spec.left.generators, "right": spec.right.generators,
              "b": spec.b, "a": spec.a,
              "projective": args.projective, "tangent_cone": args.tangent_cone}
    return verdict_report(glued, params, result, lines, verdicts)


def cmd_star_glue(args) -> Report:
    from .affine import glue, is_star_gluing
    from .theorems import verify_glued_tangent_cone
    spec = _gluing_from_args(args)
    if not is_star_gluing(spec):
        raise InputError(f"not a star gluing: sum(a)={sum(spec.a)} is not "
                         f"smaller than sum(b)={sum(spec.b)}")
    rep = verify_glued_tangent_cone(spec)
    params = {"left": spec.left.generators, "right": spec.right.generators,
              "b": spec.b, "a": spec.a}
    return theorem_report(glue(spec), params, rep)


def cmd_extend(args) -> Report:
    from .affine import AffineSemigroup, ExtensionSpec, extend
    from .theorems import verify_extension_pf
    if bool(args.numerical) == bool(args.affine):
        raise InputError("extend: give the base via exactly one of --numerical, --affine")
    if args.numerical:
        base = NumericalSemigroup(_int_list(args.numerical, "--numerical"))
    else:
        base = AffineSemigroup(_matrix(args.affine, "--affine"))
    spec = ExtensionSpec(base, args.l, _int_list(args.u, "--u"))
    rep = verify_extension_pf(spec)
    params = {"l": spec.l, "u": spec.u, "a": spec.a}
    return theorem_report(extend(spec), params, rep)


def cmd_join(args) -> Report:
    from .affine import embed_axis, join
    from .theorems import verify_join_sifr
    dim = args.dim
    left = embed_axis(NumericalSemigroup(_int_list(args.left, "--left")), dim, args.left_axis)
    right = embed_axis(NumericalSemigroup(_int_list(args.right, "--right")), dim, args.right_axis)
    rep = verify_join_sifr(left, right)
    params = {"left": args.left, "right": args.right, "dim": dim,
              "left_axis": args.left_axis, "right_axis": args.right_axis}
    carrier = left if rep.computed is None else join(left, right)
    return theorem_report(carrier, params, rep)


def cmd_betti(args) -> Report:
    from .resolution import betti_degrees
    s = _resolve_semigroup(args)
    table = betti_degrees(s)
    result = {"totals": table.total, "pd": table.pd, "certified": table.certified,
              "rows": [[degree_doc(d) for d in row] for row in table.rows],
              "top_degrees": [degree_doc(d) for d in table.top_degrees]}
    lines = [f"betti totals {table.total} (pd {table.pd})"]
    for i, row in enumerate(table.rows):
        lines.append(f"    level {i}: {list(row)}")
    return Report(s, {}, result, lines)


def cmd_pf(args) -> Report:
    from .resolution import betti_degrees, pf_via_betti
    s = _resolve_semigroup(args)
    table = betti_degrees(s)
    via_betti = pf_via_betti(s, table)
    result = {"pf": [degree_doc(d) for d in via_betti],
              "method": "top Betti degrees minus the generator sum"}
    lines = [f"pseudo-Frobenius via top Betti degrees: {via_betti}"]
    agree = True
    if args.direct:
        # numerical gap sets are always finite and read off Ap(S, n_1)
        direct = s.pf_direct() if not isinstance(s, NumericalSemigroup) \
            else [(f,) for f in s.pf_numeric()]
        result["pf_direct"] = [degree_doc(d) for d in direct]
        agree = sorted(result["pf_direct"]) == sorted(result["pf"])
        result["direct_agrees"] = agree
        lines.append(f"direct gap-set computation: {direct} "
                     + ("(agrees)" if agree else "(CONFLICT)"))
    return Report(s, {"direct": args.direct}, result, lines, not agree)


def cmd_sifr(args) -> Report:
    from .resolution import betti_degrees, sifr_check
    s = _resolve_semigroup(args)
    table = betti_degrees(s)
    rep = sifr_check(s, table)
    result = {"holds": rep.holds, "level": rep.level,
              "pair": [degree_doc(d) for d in rep.pair] if rep.pair else None}
    line = f"[sifr] holds={str(rep.holds).lower()}"
    if not rep.holds:
        line += f" (level {rep.level} degrees {rep.pair} differ by a member)"
    return Report(s, {}, result, [line])


def cmd_hilbert(args) -> Report:
    s = _resolve_semigroup(args)
    if not isinstance(s, NumericalSemigroup):
        raise InputError("hilbert: tangent-cone Hilbert functions are numerical-only")
    stab = s.hilbert_stabilization()
    upto = args.upto if args.upto is not None else stab
    values = s.hilbert_gr(upto)
    nondecreasing = s.hilbert_nondecreasing()  # over the whole function
    result = {"upto": upto, "values": values, "stabilization": stab,
              "nondecreasing": nondecreasing}
    lines = []
    if args.format == "text":  # a long function takes longer to print than to compute
        lines = [f"hilbert function of the associated graded ring: {values}",
                 f"nondecreasing={str(nondecreasing).lower()} "
                 f"(stabilizes by index {stab})"]
    return Report(s, {"upto": upto}, result, lines)


def cmd_fixtures(args) -> Report:
    """`fixtures` runs every curated check, `verify <id>` one statement's."""
    from .theorems import run_fixtures
    pairs = run_fixtures(getattr(args, "theorem", None))
    conflicts = sum(theorem_conflict(rep) for _, rep in pairs)
    agreements = sum(rep.agree for _, rep in pairs)
    result = {"reports": [dict(theorem_doc(rep), label=fx.label) for fx, rep in pairs],
              "agreements": agreements, "conflicts": conflicts}
    lines = []
    width = max(len(f"{fx.theorem} {fx.label}") for fx, _ in pairs)
    for fx, rep in pairs:
        status = "agree" if rep.agree else (
            "excused" if not rep.hypotheses_hold else "CONFLICT")
        lines.append(f"{(fx.theorem + ' ' + fx.label).ljust(width)}  {status}")
    lines.append(f"{len(pairs)} checks, {agreements} agree, {conflicts} conflicts")
    return Report(None, {"count": len(pairs)}, result, lines, conflicts > 0)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_semigroup_source(p):
    p.add_argument("--numerical", help="comma-separated generators, e.g. 3,5,7")
    p.add_argument("--affine", help="semicolon-separated rows, e.g. '3 0;5 0;0 1'")
    p.add_argument("--input", help="JSON job file (schema in the module docstring)")


class _TheoremIds:
    """`verify`'s choices: theorems.THEOREM_IDS, imported on first use."""

    def __iter__(self):
        from .theorems import THEOREM_IDS
        return iter(THEOREM_IDS)


# the commands and their help lines, in help order
COMMANDS = {
    "analyze": "ideal, reduced basis, and verdicts",
    "glue": "glue two numerical semigroups",
    "star-glue": "star-glue two numerical semigroups",
    "extend": "scaled extension by one member",
    "join": "join of two axis-embedded factors",
    "betti": "multigraded Betti table",
    "pf": "pseudo-Frobenius elements",
    "sifr": "strong indispensability check",
    "hilbert": "Hilbert function of the tangent cone",
    "verify": "run the curated checks for one id",
    "fixtures": "run every curated check",
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The sgring parser.  Every command is listed, for the top-level help
    and usage; given a command's name, only that command gets its
    arguments, which is all that parsing a command line naming it reads.
    Any other value builds them all."""
    top = argparse.ArgumentParser(
        prog="sgring",
        description="Exact semigroup-ring computations and theorem checks.")
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=line) for name, line in COMMANDS.items()}
    built = {command: parsers[command]} if command in parsers else parsers

    if p := built.get("analyze"):
        _add_semigroup_source(p)
        p.add_argument("--tangent-cone", dest="tangent_cone", action="store_true")
        p.add_argument("--projective", action="store_true")
        p.add_argument("--gorenstein", action="store_true")
        p.set_defaults(handler=cmd_analyze)

    for name, handler in (("glue", cmd_glue), ("star-glue", cmd_star_glue)):
        if p := built.get(name):
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
            p.add_argument("--b", required=True, help="witness exponents of p over --left")
            p.add_argument("--a", required=True, help="witness exponents of q over --right")
            if name == "glue":
                p.add_argument("--projective", action="store_true",
                               help="add the closure ACM verdict")
                p.add_argument("--tangent-cone", dest="tangent_cone", action="store_true",
                               help="add the tangent-cone CM verdict")
            p.set_defaults(handler=handler)

    if p := built.get("extend"):
        p.add_argument("--numerical", help="base generators, e.g. 3,5")
        p.add_argument("--affine", help="base rows, e.g. '3 0;5 0;0 1'")
        p.add_argument("--l", type=int, required=True, help="scaling factor")
        p.add_argument("--u", required=True, help="coefficients of the new member")
        p.set_defaults(handler=cmd_extend)

    if p := built.get("join"):
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--left-axis", dest="left_axis", type=int, default=0)
        p.add_argument("--right-axis", dest="right_axis", type=int, default=1)
        p.set_defaults(handler=cmd_join)

    if p := built.get("betti"):
        _add_semigroup_source(p)
        p.set_defaults(handler=cmd_betti)

    if p := built.get("pf"):
        _add_semigroup_source(p)
        p.add_argument("--direct", action="store_true",
                       help="also run the direct gap-set computation")
        p.set_defaults(handler=cmd_pf)

    if p := built.get("sifr"):
        _add_semigroup_source(p)
        p.set_defaults(handler=cmd_sifr)

    if p := built.get("hilbert"):
        _add_semigroup_source(p)
        p.add_argument("--upto", type=int, default=None)
        p.set_defaults(handler=cmd_hilbert)

    if p := built.get("verify"):
        # set after add_argument, which would iterate choices to check the metavar
        p.add_argument("theorem").choices = _TheoremIds()
        p.set_defaults(handler=cmd_fixtures)

    if p := built.get("fixtures"):
        p.set_defaults(handler=cmd_fixtures)

    for p in built.values():  # after each command's own arguments
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--deadline", type=float, default=None,
                       help="seconds before aborting with exit code 3")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; fixture batches run serially")
    return top


def _deadline_seconds(args) -> Optional[float]:
    """Seconds from --deadline, else from SGRING_DEADLINE; None for no limit.
    NaN is refused: no clock reading passes it, so it would never expire."""
    source, seconds = "--deadline", args.deadline
    if seconds is None:
        source, raw = "SGRING_DEADLINE", os.environ.get("SGRING_DEADLINE")
        if not raw:
            return None
        try:
            seconds = float(raw)
        except ValueError:
            raise InputError(f"{source}: expected a number, got {raw!r}")
    if math.isnan(seconds):
        raise InputError(f"{source}: NaN is not a deadline")
    return seconds


def _write_all(text: str) -> None:
    """Write all of text to stdout, or raise BrokenPipeError.  An unbuffered
    stdout (python -u) passes a write to the pipe once; if the reader
    leaves during it, the pipe takes only a part and the text layer drops
    the rest without an error.  So the bytes go to the binary layer in a
    loop until all are taken, and the write after a short one raises."""
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        out.write(text)
        out.flush()
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data):]
    binary.flush()


def main(argv=None) -> int:
    """Run one command; the only writer of its report and its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level has no option taking a value: a command is the first word
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        seconds = _deadline_seconds(args)
        if args.threads is not None and args.threads < 1:
            raise InputError("--threads: must be at least 1")
        with Deadline(seconds):    # covers the command and rendering its report
            report = args.handler(args)
            lines = report.lines
            if args.format == "json":
                doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
                       "params": report.params, "result": report.result,
                       **semigroup_doc(report.carrier)}
                doc = jsonable(doc)
                tick()
                lines = [json.dumps(doc, sort_keys=True, separators=(",", ":"))]
            tick()
    except InputError as ex:
        sys.stderr.write(f"input error: {ex}\n")
        return EXIT_INPUT
    except (DeadlineExceeded, CertificationError) as ex:
        sys.stderr.write(f"resource bound: {ex}\n")
        return EXIT_BOUND
    try:
        _write_all("".join(line + "\n" for line in lines))
    except BrokenPipeError:
        # the reader left: /dev/null takes the flush at exit; exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return EXIT_CONFLICT if report.conflict else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
