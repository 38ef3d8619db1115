"""Reference arithmetic the benchmark checks the program against.

Nothing here imports sgring.  Each function either recomputes an invariant
by a different algorithm than the program uses (round-robin Apery sets in
place of Dijkstra, Selmer's gap-count formula in place of a gap scan) or
tests a property the program's answer must have.
"""
from __future__ import annotations

import math
from collections import deque

# ---------------------------------------------------------------------------
# numerical semigroups from the Apery set of the multiplicity


def apery_round_robin(gens):
    """Ap(S, m) indexed by residue mod m, m = min(gens).

    Round-robin algorithm of Boecker and Liptak (Algorithmica 48, 2007):
    add one generator at a time and relax each residue cycle starting from
    its current minimum, so every entry is final after one pass per cycle.
    """
    gens = sorted(gens)
    m = gens[0]
    inf = math.inf
    n = [0] + [inf] * (m - 1)
    for a in gens[1:]:
        d = math.gcd(a, m)
        for p in range(d):
            q = min(range(p, m, d), key=n.__getitem__)
            if n[q] == inf:
                continue
            for _ in range(m // d - 1):
                nxt = (q + a) % m
                if n[q] + a < n[nxt]:
                    n[nxt] = n[q] + a
                q = nxt
    if any(v == inf for v in n):
        raise ValueError(f"gcd of {gens} is not 1")
    return n


class Numerical:
    """Frobenius number, gap count, pseudo-Frobenius set and membership of a
    numerical semigroup, all read off Ap(S, m)."""

    def __init__(self, gens):
        self.gens = tuple(sorted(gens))
        self.m = self.gens[0]
        self.ap = apery_round_robin(self.gens)
        self.frobenius = max(self.ap) - self.m
        # Selmer: g = (1/m) * sum(Ap) - (m - 1)/2
        total = sum(self.ap)
        if (2 * total - self.m * (self.m - 1)) % (2 * self.m):
            raise ValueError("Selmer's formula gave a non-integer gap count")
        self.gap_count = (2 * total - self.m * (self.m - 1)) // (2 * self.m)

    def member(self, x: int) -> bool:
        """x in S iff x >= Ap(S, m)[x mod m]."""
        return x >= 0 and x >= self.ap[x % self.m]

    @property
    def symmetric(self) -> bool:
        return 2 * self.gap_count == self.frobenius + 1

    def pseudo_frobenius(self):
        """w - m for w in Ap(S, m) maximal under the semigroup order: every
        f in PF has f + m in Ap, and f + n_i must be a member for each i."""
        out = []
        for w in self.ap:
            if w == 0:
                continue
            f = w - self.m
            if all(self.member(f + g) for g in self.gens[1:]):
                out.append(f)
        return sorted(out)


def ord_table(gens, upto: int):
    """ord[v] = longest factorization length of v, -1 for non-members."""
    tab = [-1] * (upto + 1)
    tab[0] = 0
    for v in range(1, upto + 1):
        best = -1
        for g in gens:
            if g > v:
                break
            t = tab[v - g]
            if t > best:
                best = t
        tab[v] = best + 1 if best >= 0 else -1
    return tab


def tangent_cone_cm(gens) -> bool:
    """m is a nonzerodivisor on the associated graded ring iff
    ord(x + m) = ord(x) + 1 for every member x.  A first failure sits below
    m * n_e * (e - 1): every maximal factorization of x + m then omits m and
    uses each other generator fewer than m times."""
    gens = tuple(sorted(gens))
    m, e = gens[0], len(gens)
    bound = m * gens[-1] * (e - 1)
    tab = ord_table(gens, bound + m)
    return all(tab[x] < 0 or tab[x + m] == tab[x] + 1 for x in range(bound + 1))


def closure_acm(gens) -> bool:
    """Apery-count test for the projective closure S' = <(n_i, n_e - n_i), (0, n_e)>.

    S' is simplicial with extremal generators E = {(n_e, 0), (0, n_e)}; its
    ring is Cohen-Macaulay iff |Ap(S', E)| equals the index of the lattice
    spanned by E in the group of S', which is n_e (Goto-Suzuki-Watanabe
    1976; Rosales-Garcia-Sanchez 1998).  Ap(S', E) is closed under removing
    a non-extremal generator, so a breadth-first search over those
    generators enumerates it without a scan box.
    """
    return len(closure_apery(gens)) == max(gens)


def closure_apery(gens):
    gens = tuple(sorted(gens))
    top = gens[-1]
    steps = [(n, top - n) for n in gens[:-1]]
    minlen = _MinLength(gens)

    def member(x: int, y: int) -> bool:
        # (x, y) in S' iff n_e | x + y and x has a factorization of length
        # at most (x + y) / n_e; the balance is made up by (0, n_e)
        if x < 0 or y < 0 or (x + y) % top:
            return False
        return minlen(x) <= (x + y) // top

    seen = {(0, 0)}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for dx, dy in steps:
            p = (x + dx, y + dy)
            if p in seen:
                continue
            if member(p[0] - top, p[1]) or member(p[0], p[1] - top):
                continue
            seen.add(p)
            queue.append(p)
    return seen


class _MinLength:
    """Shortest factorization length over N, grown on demand."""

    def __init__(self, gens):
        self.gens = gens
        self.tab = [0]

    def __call__(self, x: int) -> float:
        tab = self.tab
        while len(tab) <= x:
            v = len(tab)
            tab.append(min((tab[v - g] for g in self.gens if g <= v), default=math.inf) + 1)
        return tab[x]


# ---------------------------------------------------------------------------
# toric ideals of numerical semigroups


def toric_generators_problems(gens, binomials, symmetric: bool):
    """Properties a minimal generating set of the toric ideal must have.

    Each binomial is homogeneous for the grading by the generators and its
    two monomials share no variable (the ideal is prime and contains no
    monomial).  The ideal has height e - 1, so it needs at least e - 1
    generators; for e = 3, two suffice only when S is symmetric (Herzog,
    Manuscripta Math. 3, 1970: then and only then a complete intersection).
    """
    problems = []
    e = len(gens)
    for lead, tail in binomials:
        if len(lead) != e or len(tail) != e:
            problems.append(f"binomial {lead}-{tail} has the wrong length")
            continue
        if sum(a * g for a, g in zip(lead, gens)) != sum(b * g for b, g in zip(tail, gens)):
            problems.append(f"binomial {lead}-{tail} is not homogeneous")
        if any(a and b for a, b in zip(lead, tail)):
            problems.append(f"binomial {lead}-{tail} has a common variable")
    if len(binomials) < e - 1:
        problems.append(f"{len(binomials)} generators for height {e - 1}")
    if e == 3 and len(binomials) == 2 and not symmetric:
        problems.append("2 generators for a non-symmetric semigroup")
    return problems


# ---------------------------------------------------------------------------
# affine semigroups in a box


def affine_members(gens, box):
    """Members of the affine semigroup with every coordinate <= box."""
    zero = (0,) * len(box)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if q not in seen and all(c <= b for c, b in zip(q, box)):
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def affine_pf_problems(gens, pf):
    """Each claimed pseudo-Frobenius element f must be a non-member with
    f + g a member for every generator g."""
    box = tuple(max(f[i] for f in pf) + max(g[i] for g in gens) for i in range(len(gens[0])))
    members = affine_members(gens, box)
    problems = []
    for f in pf:
        if any(c < 0 for c in f) or f in members:
            problems.append(f"{f} is a member, not a gap")
        elif not all(tuple(a + b for a, b in zip(f, g)) in members for g in gens):
            problems.append(f"{f} + generator leaves the semigroup")
    return problems


def extension_law_problems(totals_a, totals_b):
    """B = <2A, a> is an extension of A by one generator, so its resolution
    is a mapping cone and b_i(B) = b_i(A) + b_{i-1}(A)."""
    want = tuple((totals_a[i] if i < len(totals_a) else 0)
                 + (totals_a[i - 1] if i >= 1 else 0)
                 for i in range(len(totals_a) + 1))
    return [] if tuple(totals_b) == want else [f"totals {tuple(totals_b)}, law gives {want}"]


# ---------------------------------------------------------------------------
# CLI job documents


def job_schema_problems(doc):
    """The job schema every CLI report must re-parse under: schema_version
    "1", type numerical|affine, a nonempty rectangular array of decimal
    strings (one column for numerical), and a params object."""
    if not isinstance(doc, dict):
        return ["report is not an object"]
    problems = [f"missing key {k}" for k in ("schema_version", "type", "generators", "params")
                if k not in doc]
    if problems:
        return problems
    if str(doc["schema_version"]) != "1":
        problems.append(f"schema_version {doc['schema_version']!r}")
    if doc["type"] not in ("numerical", "affine"):
        problems.append(f"type {doc['type']!r}")
    rows = doc["generators"]
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)):
        problems.append("generators is not a nonempty array of nonempty arrays")
    else:
        widths = {len(r) for r in rows}
        if len(widths) != 1 or (doc["type"] == "numerical" and widths != {1}):
            problems.append(f"generator rows of widths {sorted(widths)}")
        if not all(isinstance(c, str) and c.isdigit() for r in rows for c in r):
            problems.append("generator entries must be decimal strings")
    if not isinstance(doc["params"], dict):
        problems.append("params is not an object")
    return problems
