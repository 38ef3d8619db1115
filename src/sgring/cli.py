"""Command-line front end.

Subcommands: analyze, glue, star-glue, extend, join, betti, pf, sifr,
hilbert, verify <check-id>, fixtures.  Exit codes: 0 success, 1 mathematical
conflict (a cross-check or theorem check disagrees), 2 input error,
3 resource bound (deadline, scan box, or certification failure).

JSON documents carry {"schema_version", "type", "generators", "params"}
with every integer as a decimal string; reports add "command" and "result"
and re-parse under the same input schema.  SGRING_DEADLINE (seconds) and
SGRING_THREADS set defaults for --deadline and --threads; --threads is
validated but changes nothing, since fixture batches run serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (BoundInsufficient, CertificationError, Deadline,
                     DeadlineExceeded, InputError)
from .monomials import format_binomial
from .toric import reduced_basis, toric_ideal
from .semigroups import (AffineSemigroup, ExtensionSpec, NumericalSemigroup,
                         embed_axis, extend, is_nice_gluing, is_star_gluing, glue,
                         join)
from .resolution import betti_degrees, pf_via_betti, resolution_summary, sifr_check
from .verdicts import (acm_projective_closure, cm_tangent_cone,
                       gorenstein_numerical, gorenstein_projective_closure)
from .theorems import (THEOREM_IDS, TheoremReport, gluing, run_fixtures,
                       verify_extension_pf, verify_glued_tangent_cone,
                       verify_join_sifr)

SCHEMA_VERSION = "1"
EXIT_OK, EXIT_CONFLICT, EXIT_INPUT, EXIT_BOUND = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# input parsing


@dataclass(frozen=True)
class JobSpec:
    type: str                       # "numerical" | "affine"
    generators: tuple[tuple[int, ...], ...]
    params: dict


def _decimal(cell, path: str) -> int:
    if not isinstance(cell, str) or not cell.isdigit():
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
    return AffineSemigroup(job.generators)


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"{what}: expected comma-separated integers, got {text!r}")


def _matrix(text: str, what: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for part in text.split(";"):
        rows.append(_int_list(part.replace(" ", ","), what))
    return tuple(rows)


def _resolve_semigroup(args, what: str = "semigroup"):
    """Semigroup from --numerical / --affine / --input, exactly one source."""
    sources = [s for s in (args.numerical, args.affine, args.input) if s]
    if len(sources) != 1:
        raise InputError(f"{what}: give exactly one of --numerical, --affine, --input")
    if args.input:
        return job_semigroup(parse_input(args.input))
    if args.numerical:
        return NumericalSemigroup(_int_list(args.numerical, "--numerical"))
    return AffineSemigroup(_matrix(args.affine, "--affine"))


# ---------------------------------------------------------------------------
# output rendering


def jsonable(value):
    """Ints become decimal strings, tuples become arrays, recursively."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def semigroup_doc(s) -> dict:
    if isinstance(s, NumericalSemigroup):
        return {"type": "numerical", "generators": [[str(g)] for g in s.generators]}
    return {"type": "affine",
            "generators": [[str(c) for c in g] for g in s.generators]}


def report_document(command: str, s, params: dict, result: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "params": jsonable(params), "result": jsonable(result)}
    doc.update(semigroup_doc(s))
    return doc


def emit(doc: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def verdict_doc(v) -> dict:
    return {"check": v.name, "result": v.result, "method": v.method,
            "witness": v.witness, "conflict": v.conflict,
            "cross_checks": [{"name": c.name, "result": c.result, "note": c.note}
                             for c in v.cross_checks]}


def verdict_lines(v) -> list[str]:
    lines = [f"[{v.name}] verdict={str(v.result).lower()} ({v.method})"]
    for c in v.cross_checks:
        lines.append(f"    cross-check {c.name}: {c.result}"
                     + (f" -- {c.note}" if c.note else ""))
    if v.conflict:
        lines.append("    CONFLICT: cross-checks disagree with the primary method")
    return lines




def theorem_doc(rep: TheoremReport, label: Optional[str] = None) -> dict:
    doc = {"check": rep.theorem, "instance": rep.instance,
           "hypotheses": [{"name": h.name, "holds": h.holds, "note": h.note}
                          for h in rep.hypotheses_checked],
           "hypotheses_hold": rep.hypotheses_hold,
           "predicted": jsonable(rep.predicted),
           "computed": jsonable(rep.computed),
           "agree": rep.agree, "notes": list(rep.notes)}
    if label is not None:
        doc["label"] = label
    return doc


def theorem_lines(rep: TheoremReport, label: str = "") -> list[str]:
    head = f"[{rep.theorem}]" + (f" {label}" if label else "")
    status = "agree" if rep.agree else "DISAGREE"
    if not rep.hypotheses_hold:
        status += " (hypotheses not satisfied)"
    lines = [f"{head} {rep.instance}: {status}"]
    for h in rep.hypotheses_checked:
        lines.append(f"    hypothesis {h.name}: {h.holds}"
                     + (f" -- {h.note}" if h.note else ""))
    lines.append(f"    predicted: {rep.predicted}")
    lines.append(f"    computed:  {rep.computed}")
    for n in rep.notes:
        lines.append(f"    note: {n}")
    return lines


def theorem_conflict(rep: TheoremReport) -> bool:
    if rep.hypotheses_hold and not rep.agree:
        return True
    return any(n.startswith("CONFLICT:") for n in rep.notes)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def cmd_analyze(args, deadline) -> int:
    s = _resolve_semigroup(args)
    ideal = toric_ideal(s, deadline)
    gb = reduced_basis(s, deadline)
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
        wanted = [w for w in ("tangent_cone", "projective", "gorenstein")
                  if getattr(args, w)]
        if not wanted:
            wanted = ["tangent_cone", "projective", "gorenstein"]
        if "tangent_cone" in wanted:
            verdicts.append(cm_tangent_cone(s, deadline))
        if "projective" in wanted:
            verdicts.append(acm_projective_closure(s, deadline))
        if "gorenstein" in wanted:
            verdicts.append(gorenstein_numerical(s, deadline))
            verdicts.append(gorenstein_projective_closure(s, deadline))
    else:
        table = betti_degrees(s, deadline=deadline)
        summary = resolution_summary(s, table)
        result["betti_totals"] = table.total
        result["resolution"] = {"pd": summary.pd, "depth": summary.depth,
                                "dim": summary.dim, "cm": summary.cm,
                                "gorenstein": summary.gorenstein}
        lines.append(f"betti totals {table.total}; pd={summary.pd} "
                     f"depth={summary.depth} dim={summary.dim} "
                     f"cm={summary.cm} gorenstein={summary.gorenstein}")
    result["verdicts"] = [verdict_doc(v) for v in verdicts]
    for v in verdicts:
        lines += verdict_lines(v)
    params = {k: getattr(args, k) for k in ("tangent_cone", "projective", "gorenstein")
              if hasattr(args, k) and getattr(args, k)}
    emit(report_document("analyze", s, params, result), args.format, lines)
    return EXIT_CONFLICT if any(v.conflict for v in verdicts) else EXIT_OK


def _gluing_from_args(args):
    return gluing(_int_list(args.left, "--left"), _int_list(args.right, "--right"),
                  _int_list(args.b, "--b"), _int_list(args.a, "--a"))


def cmd_glue(args, deadline) -> int:
    spec = _gluing_from_args(args)
    glued = glue(spec)
    result = {"glued_generators": glued.generators,
              "p": spec.p, "q": spec.q,
              "classification": is_nice_gluing(spec),
              "star": is_star_gluing(spec),
              "largest_side": glued.largest_side,
              "smallest_side": glued.smallest_side}
    lines = [f"glued semigroup: {glued.generators} (p={spec.p}, q={spec.q}, "
             f"{result['classification']}, star={result['star']})"]
    verdicts = []
    if args.projective:
        verdicts.append(acm_projective_closure(glued.semigroup, deadline))
    if args.tangent_cone:
        verdicts.append(cm_tangent_cone(glued.semigroup, deadline))
    result["verdicts"] = [verdict_doc(v) for v in verdicts]
    for v in verdicts:
        lines += verdict_lines(v)
    params = {"left": spec.left.generators, "right": spec.right.generators,
              "b": spec.b, "a": spec.a,
              "projective": args.projective, "tangent_cone": args.tangent_cone}
    emit(report_document("glue", glued.semigroup, params, result), args.format, lines)
    return EXIT_CONFLICT if any(v.conflict for v in verdicts) else EXIT_OK


def cmd_star_glue(args, deadline) -> int:
    spec = _gluing_from_args(args)
    if not is_star_gluing(spec):
        raise InputError(f"not a star gluing: sum(a)={sum(spec.a)} is not "
                         f"smaller than sum(b)={sum(spec.b)}")
    rep = verify_glued_tangent_cone(spec, deadline)
    glued = glue(spec)
    params = {"left": spec.left.generators, "right": spec.right.generators,
              "b": spec.b, "a": spec.a}
    emit(report_document("star-glue", glued.semigroup, params, theorem_doc(rep)),
         args.format, theorem_lines(rep))
    return EXIT_CONFLICT if theorem_conflict(rep) else EXIT_OK


def cmd_extend(args, deadline) -> int:
    if args.numerical:
        base = NumericalSemigroup(_int_list(args.numerical, "--numerical"))
    elif args.affine:
        base = AffineSemigroup(_matrix(args.affine, "--affine"))
    else:
        raise InputError("extend: give the base via --numerical or --affine")
    spec = ExtensionSpec(base, args.l, _int_list(args.u, "--u"))
    if args.box:
        box = _int_list(args.box, "--box")
    else:
        dim = len(spec.a)
        box = tuple(2 * spec.l * max(g[i] for g in spec.base.generators) + 2 * spec.a[i]
                    for i in range(dim))
    rep = verify_extension_pf(spec, box, deadline)
    ext = extend(spec)
    params = {"l": spec.l, "u": spec.u, "a": spec.a, "box": box}
    emit(report_document("extend", ext.semigroup, params, theorem_doc(rep)),
         args.format, theorem_lines(rep))
    return EXIT_CONFLICT if theorem_conflict(rep) else EXIT_OK


def cmd_join(args, deadline) -> int:
    dim = args.dim
    left = embed_axis(NumericalSemigroup(_int_list(args.left, "--left")),
                      dim, args.left_axis)
    right = embed_axis(NumericalSemigroup(_int_list(args.right, "--right")),
                       dim, args.right_axis)
    rep = verify_join_sifr(left, right, deadline)
    params = {"left": args.left, "right": args.right, "dim": dim,
              "left_axis": args.left_axis, "right_axis": args.right_axis}
    carrier = left if rep.computed is None else join(left, right).semigroup
    emit(report_document("join", carrier, params, theorem_doc(rep)),
         args.format, theorem_lines(rep))
    return EXIT_CONFLICT if theorem_conflict(rep) else EXIT_OK


def cmd_betti(args, deadline) -> int:
    s = _resolve_semigroup(args)
    bound = _int_list(args.bound, "--bound") if args.bound else None
    table = betti_degrees(s, degree_bound=bound, deadline=deadline)
    if bound is not None and isinstance(s, NumericalSemigroup):
        bound = bound[0]  # reported as a number, like the numerical input
    result = {"totals": table.total, "pd": table.pd, "certified": table.certified,
              "rows": [[list(d) if isinstance(d, tuple) else [d] for d in row]
                       for row in table.rows],
              "top_degrees": [list(d) if isinstance(d, tuple) else [d]
                              for d in table.top_degrees]}
    lines = [f"betti totals {table.total} (pd {table.pd})"
             + ("" if table.certified else " [heuristic scan box]")]
    for i, row in enumerate(table.rows):
        lines.append(f"    level {i}: {list(row)}")
    emit(report_document("betti", s, {"bound": bound}, result), args.format, lines)
    return EXIT_OK


def cmd_pf(args, deadline) -> int:
    s = _resolve_semigroup(args)
    table = betti_degrees(s, deadline=deadline)
    via_betti = pf_via_betti(s, table)
    result = {"pf": [list(d) if isinstance(d, tuple) else [d] for d in via_betti],
              "method": "top Betti degrees minus the generator sum"}
    lines = [f"pseudo-Frobenius via top Betti degrees: {via_betti}"]
    code = EXIT_OK
    if args.box:
        box = _int_list(args.box, "--box")
        # numerical gap sets are always finite; the box only bounds affine scans
        direct = s.pf_direct(box, deadline) if not isinstance(s, NumericalSemigroup) \
            else [(f,) for f in s.pf_numeric()]
        result["pf_direct"] = [list(d) for d in direct]
        agree = sorted(tuple(d) for d in direct) == sorted(
            tuple(d) if isinstance(d, tuple) else (d,) for d in via_betti)
        result["direct_agrees"] = agree
        lines.append(f"direct gap-set computation: {direct} "
                     + ("(agrees)" if agree else "(CONFLICT)"))
        if not agree:
            code = EXIT_CONFLICT
    emit(report_document("pf", s, {"box": args.box}, result), args.format, lines)
    return code


def cmd_sifr(args, deadline) -> int:
    s = _resolve_semigroup(args)
    table = betti_degrees(s, deadline=deadline)
    rep = sifr_check(s, table)
    result = {"holds": rep.holds, "level": rep.level,
              "pair": [list(d) if isinstance(d, tuple) else [d] for d in rep.pair]
              if rep.pair else None}
    line = f"[sifr] holds={str(rep.holds).lower()}"
    if not rep.holds:
        line += f" (level {rep.level} degrees {rep.pair} differ by a member)"
    emit(report_document("sifr", s, {}, result), args.format, [line])
    return EXIT_OK


def cmd_hilbert(args, deadline) -> int:
    s = _resolve_semigroup(args)
    if not isinstance(s, NumericalSemigroup):
        raise InputError("hilbert: tangent-cone Hilbert functions are numerical-only")
    stab = s.hilbert_stabilization(deadline)
    upto = args.upto if args.upto is not None else stab
    values = s.hilbert_gr(upto, deadline)
    nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
    result = {"upto": upto, "values": values, "stabilization": stab,
              "nondecreasing": nondecreasing}
    emit(report_document("hilbert", s, {"upto": upto}, result), args.format,
         [f"hilbert function of the associated graded ring: {values}",
          f"nondecreasing={str(nondecreasing).lower()} "
          f"(stabilizes by index {result['stabilization']})"])
    return EXIT_OK


def cmd_fixtures(args, deadline) -> int:
    """`fixtures` runs every curated check, `verify <id>` one statement's."""
    pairs = run_fixtures(getattr(args, "theorem", None), deadline)
    docs = [theorem_doc(rep, label=fx.label) for fx, rep in pairs]
    conflicts = sum(theorem_conflict(rep) for _, rep in pairs)
    agreements = sum(rep.agree for _, rep in pairs)
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
           "type": "numerical", "generators": [["0"]],
           "params": {"count": str(len(pairs))},
           "result": {"reports": docs,
                      "agreements": str(agreements),
                      "conflicts": str(conflicts)}}
    lines = []
    width = max(len(f"{fx.theorem} {fx.label}") for fx, _ in pairs)
    for fx, rep in pairs:
        status = "agree" if rep.agree else (
            "excused" if not rep.hypotheses_hold else "CONFLICT")
        lines.append(f"{(fx.theorem + ' ' + fx.label).ljust(width)}  {status}")
    lines.append(f"{len(pairs)} checks, {agreements} agree, {conflicts} conflicts")
    emit(doc, args.format, lines)
    return EXIT_CONFLICT if conflicts else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_semigroup_source(p):
    p.add_argument("--numerical", help="comma-separated generators, e.g. 3,5,7")
    p.add_argument("--affine", help="semicolon-separated rows, e.g. '3 0;5 0;0 1'")
    p.add_argument("--input", help="JSON job file (schema in the module docstring)")


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--deadline", type=float, default=None,
                   help="seconds before aborting with exit code 3")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; fixture batches run serially")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sgring",
        description="Exact semigroup-ring computations and theorem checks.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ideal, reduced basis, and verdicts")
    _add_semigroup_source(p)
    p.add_argument("--tangent-cone", dest="tangent_cone", action="store_true")
    p.add_argument("--projective", action="store_true")
    p.add_argument("--gorenstein", action="store_true")
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    for name, handler in (("glue", cmd_glue), ("star-glue", cmd_star_glue)):
        p = sub.add_parser(name, help=f"{name} two numerical semigroups")
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--b", required=True, help="witness exponents of p over --left")
        p.add_argument("--a", required=True, help="witness exponents of q over --right")
        if name == "glue":
            p.add_argument("--projective", action="store_true",
                           help="add the closure ACM verdict")
            p.add_argument("--tangent-cone", dest="tangent_cone", action="store_true",
                           help="add the tangent-cone CM verdict")
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("extend", help="scaled extension by one member")
    p.add_argument("--numerical", help="base generators, e.g. 3,5")
    p.add_argument("--affine", help="base rows, e.g. '3 0;5 0;0 1'")
    p.add_argument("--l", type=int, required=True, help="scaling factor")
    p.add_argument("--u", required=True, help="coefficients of the new member")
    p.add_argument("--box", help="gap-scan box, comma-separated")
    _add_common(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("join", help="join of two axis-embedded factors")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--left-axis", dest="left_axis", type=int, default=0)
    p.add_argument("--right-axis", dest="right_axis", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_join)

    p = sub.add_parser("betti", help="multigraded Betti table")
    _add_semigroup_source(p)
    p.add_argument("--bound", help="degree bound override")
    _add_common(p)
    p.set_defaults(handler=cmd_betti)

    p = sub.add_parser("pf", help="pseudo-Frobenius elements")
    _add_semigroup_source(p)
    p.add_argument("--box", help="also run the direct gap-set computation")
    _add_common(p)
    p.set_defaults(handler=cmd_pf)

    p = sub.add_parser("sifr", help="strong indispensability check")
    _add_semigroup_source(p)
    _add_common(p)
    p.set_defaults(handler=cmd_sifr)

    p = sub.add_parser("hilbert", help="Hilbert function of the tangent cone")
    _add_semigroup_source(p)
    p.add_argument("--upto", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("verify", help="run the curated checks for one id")
    p.add_argument("theorem", choices=THEOREM_IDS)
    _add_common(p)
    p.set_defaults(handler=cmd_fixtures)

    p = sub.add_parser("fixtures", help="run every curated check")
    _add_common(p)
    p.set_defaults(handler=cmd_fixtures)
    return top


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"{name}: expected a number, got {raw!r}")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name}: expected an integer, got {raw!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seconds = args.deadline if args.deadline is not None \
            else _env_float("SGRING_DEADLINE")
        deadline = Deadline(seconds) if seconds is not None else None
        if args.threads is None:
            args.threads = _env_int("SGRING_THREADS", 1)
        if args.threads < 1:
            raise InputError("--threads: must be at least 1")
        return args.handler(args, deadline)
    except InputError as ex:
        sys.stderr.write(f"input error: {ex}\n")
        return EXIT_INPUT
    except (DeadlineExceeded, BoundInsufficient, CertificationError) as ex:
        sys.stderr.write(f"resource bound: {ex}\n")
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
