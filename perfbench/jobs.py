"""The benchmark's workloads: each turns a seed into a job list.

A job list is what one fresh worker process runs and times.  Items are plain
dicts so they can be sent to the worker as JSON:

    {"call": "eigenvalues", "N": 3, "parity": "+", "count": 1, "dps": 30}
    {"call": "cli", "argv": ["derive", "--N", "5,4", "--nmax", "7"], ...}

The seed draws the inputs within fixed strata: which degrees run, digits
within a narrow band, parities and item order.  Every draw costs about the
same at the seed commit, so that seed-to-seed spread measures the program
and the machine, not the draw: the strata pair inputs of equal cost, and a
band of digits is used only where the cost does not depend on it.
"""

from __future__ import annotations

import random

WORKLOADS = ("spectrum", "derive", "verify")

# degrees whose first eigenvalue per parity has a committed reference
REFERENCE_DEGREES = (3, 4, 5, 6)
# (odd N, even N) pairs, run with opposite parities; every pair and parity
# draw costs about the same at 30 digits
SPECTRUM_PAIRS = ((3, 6), (5, 4))
AIRY_LEVELS = 30
AIRY_DPS = 45

DERIVE_NMAX = 7
# two odd and two even degrees, in seeded order, in one call; about 8 s at
# the seed commit.  Drawing a subset instead would change the cost by more
# than the benchmark's bound between seeds.
DERIVE_DEGREES = (3, 4, 5, 6)

VERIFY_COUNT = 5
# (N, digits band): N=1 fails its fixed 1e-20 Airy tolerances below 20
# digits; N=2 costs the same from 5 to 8 digits and 11% more per digit above
VERIFY_CALLS = ((1, (20, 21)), (2, (6, 7, 8)))


def _eig(N, parity, count, dps):
    return {"call": "eigenvalues", "N": N, "parity": parity, "count": count,
            "dps": dps}


def spectrum_jobs(rng: random.Random) -> list:
    """Shooting solves for N=2, one odd and one even degree at about 30
    digits, N=3 at about 50 digits, and the N=1 Airy route."""
    def dps30():
        return 30 + rng.choice((-1, 0, 1))

    odd, even = rng.choice(SPECTRUM_PAIRS)
    odd_parity = rng.choice("+-")
    even_parity = "-" if odd_parity == "+" else "+"
    items = [
        _eig(2, "+", 1, dps30()),
        _eig(2, "-", 1, dps30()),
        _eig(odd, odd_parity, 1, dps30()),
        _eig(even, even_parity, 1, dps30()),
        _eig(3, "+", 1, 50 + rng.choice((-1, 0, 1))),
        _eig(1, "+", AIRY_LEVELS, AIRY_DPS),
        _eig(1, "-", AIRY_LEVELS, AIRY_DPS),
    ]
    rng.shuffle(items)
    return items


def derive_jobs(rng: random.Random) -> list:
    """One `osczeta derive` call over odd and even degrees."""
    degrees = list(DERIVE_DEGREES)
    rng.shuffle(degrees)
    argv = ["derive", "--N", ",".join(map(str, degrees)),
            "--nmax", str(DERIVE_NMAX)]
    return [{"call": "cli", "argv": argv, "degrees": degrees}]


def verify_jobs(rng: random.Random) -> list:
    """Two `osczeta verify --format json` calls, N=1 and N=2."""
    items = []
    for N, band in VERIFY_CALLS:
        argv = ["verify", "--N", str(N), "--digits", str(rng.choice(band)),
                "--count", str(VERIFY_COUNT), "--format", "json"]
        items.append({"call": "cli", "argv": argv, "degrees": [N]})
    rng.shuffle(items)
    return items


def job_list(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"spectrum": spectrum_jobs, "derive": derive_jobs,
            "verify": verify_jobs}[workload](rng)
