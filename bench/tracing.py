"""Spans around sgring's public functions, installed from outside the program.

Tracer.install() replaces each traced function or method with a wrapper,
everywhere the package holds a reference to it: the defining module, every
sgring module that imported it by name, and the class for methods.  Each
call becomes a span (name, parent, op id, start, end, self time, exception
name).  Hot leaf-level functions (membership, ord, normal_form, rank and
simplex calls) are summed per enclosing recorded span instead of stored one
by one, and monomials.divides is only counted; both keep memory bounded on
inputs that make millions of calls.  Spans stay in memory until the run
ends and are then written out by the caller.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, owner class or None, attribute, span name, kind); kind is
# "span", "hot" (summed per enclosing span) or "count" (call count only)
TARGETS = [
    ("semigroups", "NumericalSemigroup", "membership", "semigroups.membership", "hot"),
    ("semigroups", "NumericalSemigroup", "ord", "semigroups.ord", "hot"),
    ("semigroups", "NumericalSemigroup", "apery", "semigroups.apery", "span"),
    ("semigroups", "NumericalSemigroup", "frobenius", "semigroups.frobenius", "span"),
    ("semigroups", "NumericalSemigroup", "gaps", "semigroups.gaps", "span"),
    ("semigroups", "NumericalSemigroup", "pf_numeric", "semigroups.pf_numeric", "span"),
    ("semigroups", "NumericalSemigroup", "hilbert_gr", "semigroups.hilbert_gr", "span"),
    ("semigroups", "NumericalSemigroup", "hilbert_stabilization",
     "semigroups.hilbert_stabilization", "span"),
    ("semigroups", "AffineSemigroup", "membership", "semigroups.affine_membership", "hot"),
    ("semigroups", "AffineSemigroup", "cone_membership", "semigroups.cone_membership", "hot"),
    ("semigroups", "AffineSemigroup", "members_within", "semigroups.members_within", "span"),
    ("semigroups", "AffineSemigroup", "extremal_rays", "semigroups.extremal_rays", "span"),
    ("semigroups", "AffineSemigroup", "gap_set", "semigroups.gap_set", "span"),
    ("semigroups", "AffineSemigroup", "pf_direct", "semigroups.pf_direct", "span"),
    ("semigroups", None, "glue", "semigroups.glue", "span"),
    ("semigroups", None, "extend", "semigroups.extend", "span"),
    ("semigroups", None, "join", "semigroups.join", "span"),
    ("toric", None, "toric_ideal", "toric.toric_ideal", "span"),
    ("toric", None, "_toric_by_elimination", "toric.route_elimination", "span"),
    ("toric", None, "_toric_by_divisor_graphs", "toric.route_graph", "span"),
    ("toric", None, "glued_ideal_generators", "toric.glued_ideal_generators", "span"),
    ("toric", None, "ideal_equals", "toric.ideal_equals", "span"),
    ("groebner", None, "buchberger", "groebner.buchberger", "span"),
    ("groebner", None, "normal_form", "groebner.normal_form", "hot"),
    ("groebner", None, "standard_basis_local", "groebner.standard_basis_local", "span"),
    ("groebner", None, "is_groebner", "groebner.is_groebner", "span"),
    ("groebner", None, "homogenize_ideal", "groebner.homogenize_ideal", "span"),
    ("monomials", None, "divides", "monomials.divides", "count"),
    ("resolution", None, "betti_degrees", "resolution.betti_degrees", "span"),
    ("resolution", None, "resolution_summary", "resolution.resolution_summary", "span"),
    ("resolution", None, "pf_via_betti", "resolution.pf_via_betti", "span"),
    ("resolution", None, "is_prec_symmetric", "resolution.is_prec_symmetric", "span"),
    ("resolution", None, "sifr_check", "resolution.sifr_check", "span"),
    ("resolution", None, "tensor_betti", "resolution.tensor_betti", "span"),
    ("linalg", None, "rational_rank", "linalg.rational_rank", "hot"),
    ("linalg", None, "nonneg_solve", "linalg.nonneg_solve", "hot"),
    ("verdicts", None, "closure_resolution", "verdicts.closure_resolution", "span"),
    ("verdicts", None, "acm_projective_closure", "verdicts.acm_projective_closure", "span"),
    ("verdicts", None, "cm_tangent_cone", "verdicts.cm_tangent_cone", "span"),
    ("verdicts", None, "gorenstein_numerical", "verdicts.gorenstein_numerical", "span"),
    ("verdicts", None, "gorenstein_projective_closure",
     "verdicts.gorenstein_projective_closure", "span"),
    ("theorems", None, "verify_glued_basis_homogeneous", "theorems.verify", "span"),
    ("theorems", None, "verify_glued_closure_acm", "theorems.verify", "span"),
    ("theorems", None, "verify_glued_tangent_cone", "theorems.verify", "span"),
    ("theorems", None, "verify_glued_closure_gorenstein", "theorems.verify", "span"),
    ("theorems", None, "verify_extension_pf", "theorems.verify", "span"),
    ("theorems", None, "verify_join_sifr", "theorems.verify", "span"),
    ("theorems", None, "run_fixtures", "theorems.run_fixtures", "span"),
    ("cli", None, "main", "cli.main", "span"),
]

VERDICTS = ("acm_projective_closure", "cm_tangent_cone", "gorenstein_numerical",
            "gorenstein_projective_closure")


def _gens(s):
    return getattr(s, "generators", s)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# distinct-argument keys, for the calls-versus-distinct ratios
KEYS = {
    "toric.toric_ideal": lambda a, k: repr((_gens(a[0]), _arg(a, k, 2, "method", "auto"))),
    "resolution.betti_degrees": lambda a, k: repr((_gens(a[0]),
                                                   _arg(a, k, 1, "degree_bound"))),
    "verdicts.closure_resolution": lambda a, k: repr(_gens(a[0])),
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, proc: int = 0, root_parent: int = 0):
        self.proc = proc
        self.root_parent = root_parent   # span (in another process) that caused this one
        self.op = 0
        self.spans: list[tuple] = []   # (proc, sid, parent, op, name, t0, t1, self_s, status)
        self.keys: dict[str, set] = defaultdict(set)
        self.events: Counter = Counter()
        self._hot_tables: list[dict] = []   # one per thread, merged at the end
        self._counts: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.hot
        except AttributeError:
            loc.stack, loc.hot = [], {}
            with self._lock:
                self._hot_tables.append(loc.hot)
            return loc.stack, loc.hot

    def _enter(self, hot: bool):
        stack, table = self._state()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        anchor = (parent[2] if parent else self.root_parent) if hot else sid
        frame = [sid, 0.0, anchor]
        stack.append(frame)
        return stack, table, parent, frame

    def _leave(self, name, hot, stack, table, parent, frame, t0, t1, status):
        stack.pop()
        dur = t1 - t0
        self_s = dur - frame[1]
        if parent is not None:
            parent[1] += dur
        if hot:
            acc = table.get((frame[2], self.op, name))
            if acc is None:
                acc = table[(frame[2], self.op, name)] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += dur
            acc[2] += self_s
        else:
            self.spans.append((self.proc, frame[0], parent[2] if parent else self.root_parent,
                               self.op,
                               name, t0, t1, self_s, status))

    def current(self):
        """The innermost open frame of this thread: [sid, child seconds, anchor]."""
        return self._state()[0][-1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span opened by the benchmark itself."""
        state = self._enter(False)
        t0 = perf_counter()
        status = None
        try:
            yield
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            self._leave(name, False, *state, t0, perf_counter(), status)

    def wrap(self, fn, name: str, kind: str):
        if kind == "count":
            counter = self._counts.setdefault(name, itertools.count())

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)
            return counted

        hot = kind == "hot"
        key = KEYS.get(name)
        verdict = name.split(".")[-1] in VERDICTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.keys[name].add(key(args, kwargs))
            stack, table, parent, frame = tracer._enter(hot)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(name, hot, stack, table, parent, frame, t0, perf_counter(),
                              type(exc).__name__)
                raise
            tracer._leave(name, hot, stack, table, parent, frame, t0, perf_counter(), None)
            if verdict:
                undecided = sum(c.result is None for c in result.cross_checks)
                with tracer._lock:
                    tracer.events["verdicts.cross_checks_undecided"] += undecided
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the already imported sgring package."""
        import sys

        from sgring import theorems

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "sgring" or n.startswith("sgring."))]
        for mod_name, owner, attr, name, kind in TARGETS:
            mod = sys.modules.get(f"sgring.{mod_name}")
            if mod is None:
                continue
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._set(cls, attr, self.wrap(original, name, kind))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, name, kind)
            for m in modules:
                for a, v in list(vars(m).items()):
                    if v is original:
                        self._set(m, a, wrapped)
        # fixture runs are lambdas inside FIXTURES; rebuild the tuple with
        # counted runners and rebind every module-level reference to it
        fixtures = theorems.FIXTURES
        runner = self.wrap(lambda fx, d: fx.run(d), "theorems.fixture", "span")
        patched = tuple(fx._replace(run=functools.partial(runner, fx)) for fx in fixtures)
        for m in modules:
            for a, v in list(vars(m).items()):
                if v is fixtures:
                    self._set(m, a, patched)

    def _set(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- export ------------------------------------------------------------

    def data(self) -> dict:
        """Everything recorded, as plain JSON-ready structures."""
        hot = []
        for table in self._hot_tables:
            for (anchor, op, name), (calls, dur, self_s) in table.items():
                hot.append([self.proc, anchor, op, name, calls, dur, self_s])
        return {"spans": [list(s) for s in self.spans],
                "hot": hot,
                "counts": {n: int(repr(c)[len("count("):-1]) for n, c in self._counts.items()},
                "keys": {n: sorted(v) for n, v in self.keys.items()},
                "events": dict(self.events)}


def merge(into: dict, part: dict) -> None:
    """Fold a child process's data() into the parent's."""
    into["spans"].extend(part["spans"])
    into["hot"].extend(part["hot"])
    for n, c in part["counts"].items():
        into["counts"][n] = into["counts"].get(n, 0) + c
    for n, ks in part["keys"].items():
        into["keys"][n] = sorted(set(into["keys"].get(n, ())) | set(ks))
    for n, c in part["events"].items():
        into["events"][n] = into["events"].get(n, 0) + c


def summarize(data: dict) -> dict:
    """Per-function and per-layer figures from the recorded spans.

    Each span carries its self time: its duration minus the durations of
    the spans (and summed hot calls) directly inside it, kept by _leave.
    The wrapped calls of one thread nest strictly, so children never
    overlap and the self times of one thread sum to its root spans.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    status: Counter = Counter()
    by_id = {}
    for proc, sid, parent, op, name, t0, t1, s, st in data["spans"]:
        calls[name] += 1
        self_s[name] += s
        if st:
            status[(name, st)] += 1
        by_id[(proc, sid)] = name
    for proc, anchor, op, name, n, dur, s in data["hot"]:
        calls[name] += n
        self_s[name] += s
    for name, n in data["counts"].items():
        calls[name] += n
    scans_in_closure = sum(
        1 for proc, sid, parent, op, name, *_ in data["spans"]
        if name == "resolution.betti_degrees"
        and by_id.get((proc, parent)) == "verdicts.closure_resolution")
    layers: Counter = Counter()
    for name, s in self_s.items():
        layers[name.split(".")[0]] += s
    return {"calls": dict(calls), "self_s": dict(self_s),
            "status": {f"{n}:{st}": c for (n, st), c in status.items()},
            "distinct": {n: len(v) for n, v in data["keys"].items()},
            "events": dict(data["events"]),
            "closure_scans": scans_in_closure,
            "layer_self_s": dict(layers)}


def write(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
