"""Off-axis gap-set sweep: seeded affine semigroups with an extremal ray off
the coordinate axes, each given a deadline to decide its gap set.

    PYTHONPATH=src python tests/off_axis_sweep.py [--deadline SECONDS]

Seeds 7-10 draw 40 semigroups each, alternating N^2 and N^3, with entries
up to 4, 5 or 7 and 2-6 minimal generators.  One line per case gives the
seed, the generators, the outcome (finite, infinite, deadline, or refused
when `Grid` finds the box over its bit budget), the gap count, a digest of
the gaps and the seconds taken; the last lines give the counts per
outcome and the total time.  Two checkouts agree on a case when its line
matches up to the seconds.  Only the standard library and sgring are
used; the file name keeps pytest from collecting it.
"""
import argparse
import hashlib
import random
import time
from collections import Counter

from sgring.affine import AffineSemigroup, axis_apery
from sgring.errors import CertificationError, Deadline, DeadlineExceeded, InputError

SEEDS = (7, 8, 9, 10)
CASES_PER_SEED = 40


def draw(rng: random.Random, dim: int) -> AffineSemigroup:
    """A semigroup of N^dim with minimal generators and a ray off the axes."""
    while True:
        top = rng.choice((4, 5, 7))
        gens = {tuple(rng.randint(0, top) for _ in range(dim))
                for _ in range(rng.randint(2, 6))}
        gens.discard((0,) * dim)
        if len(gens) < 2 or axis_apery(sorted(gens)) is not None:
            continue
        try:
            return AffineSemigroup(sorted(gens))
        except InputError:   # not minimal
            continue


def run(s: AffineSemigroup, seconds: float) -> tuple[str, int, str]:
    try:
        with Deadline(seconds):
            scan = s.gap_set()
    except DeadlineExceeded:
        return "deadline", 0, "-"
    except CertificationError:
        return "refused", 0, "-"
    digest = hashlib.sha256(repr(scan.gaps).encode()).hexdigest()[:12]
    return "finite" if scan.finite else "infinite", len(scan.gaps), digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="seconds per case (default 10)")
    args = parser.parse_args()
    counts: Counter = Counter()
    start = time.perf_counter()
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(CASES_PER_SEED):
            s = draw(rng, 2 if i % 2 == 0 else 3)
            t0 = time.perf_counter()
            outcome, ngaps, digest = run(s, args.deadline)
            counts[outcome] += 1
            print(f"{seed} {list(s.generators)} {outcome} {ngaps} {digest} "
                  f"{time.perf_counter() - t0:.2f}s", flush=True)
    print(" ".join(f"{k}={counts[k]}" for k in ("finite", "infinite", "deadline", "refused")))
    print(f"total {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
