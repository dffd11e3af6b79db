"""Seeded workload generators for the schur2 benchmark.

Every answer a workload can ask for comes from a fixed, finite pool, so each
one has a reference recorded in refs/. A run is made of cycles. Every cycle
asks for one answer per slot of the workload, and the slots are the same for
every seed. The seed chooses only what leaves the work of a slot unchanged:
the order of the slots, the symmetry image of a polar2d shift, the Monte Carlo
seed of an mc-k3 measure, alpha and beta, and the directions and p of an
are() design within a cost band. Runs with different seeds therefore do the
same amount of work, and their timings can be compared.
"""

import itertools
import math
import random
from dataclasses import dataclass, replace

WORKLOADS = ("are-sweep", "polar2d", "mc-k3")

# are-sweep ----------------------------------------------------------------

# the figure-3/4 grid in two bands of similar cost per answer
ARE_P_LOW = (0.5, 1.0, 1.5)
ARE_P_HIGH = (1.9, 2.1, 2.5, 3.0, 4.0)
ARE_P_CLOSED = (2.0, math.inf)
ARE_ALPHAS = (0.05, 0.01)
ARE_BETAS = (0.9, 0.95)
ARE_K2_ANGLES = 5  # direction angles on linspace(0, pi/4, 5)
ARE_K3_DIRS = ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (1.0, 0.5, 0.2))
# one cycle: (k, p band, directions) per design; None is k = 2 or 3, drawn
ARE_CYCLE = ((2, ARE_P_LOW, 4), (2, ARE_P_HIGH, 4), (3, ARE_P_LOW, 2),
             (3, ARE_P_HIGH, 2), (None, ARE_P_CLOSED, 1))

# polar2d ------------------------------------------------------------------

# the figure-1 families: pq-balls with q < 0, q = 0, p = q and p > q > 0,
# plus hat-B and check-B
POLAR_SETS = {
    "pq_qneg": "pqball:p=2,q=-0.4,eps=1",
    "pq_q0": "pqball:p=1,q=0,eps=1",
    "pq_peq": "pqball:p=0.7,q=0.7,eps=1",
    "pq_pq": "pqball:p=5,q=1,eps=1",
    "hatb": f"hatb:p=4.5,a=1,eps={2.0 ** (-1.0 / 4.5) + 0.01!r}",
    "checkb": "checkb:p=1.5,a=1,eps=0.45",
}
NEAR, MID, FAR = 1e-4, 1e-3, 1e-2  # targets of the shift bands
A1, A2 = math.pi / 16, math.pi / 5
# (set, radius, angle, target): one shift per set and band, covering both
# radii and angles of each band, the four acceptance shifts of criteria 1
# and 2, and each query that failed its check at the seed commit
POLAR_SLOTS = (
    ("pq_qneg", 1.0, math.pi / 5, NEAR), ("pq_qneg", 1.0, math.pi / 20, NEAR),
    ("pq_qneg", 3.0, A1, MID), ("pq_qneg", 8.0, A2, FAR),
    ("pq_qneg", 11.0, math.pi / 5, FAR), ("pq_qneg", 11.0, math.pi / 20, FAR),
    ("pq_q0", 2.0, A2, NEAR), ("pq_q0", 4.5, A2, MID), ("pq_q0", 12.0, A1, FAR),
    ("pq_peq", 2.0, A2, NEAR), ("pq_peq", 3.0, A2, MID),
    ("pq_peq", 8.0, A1, FAR),
    ("pq_pq", 1.0, A2, NEAR), ("pq_pq", 4.5, A1, MID), ("pq_pq", 12.0, A2, FAR),
    ("hatb", 2.0, A1, NEAR), ("hatb", 3.0, A2, MID), ("hatb", 12.0, A1, FAR),
    ("checkb", 2.0, A2, NEAR), ("checkb", 4.5, A2, MID),
    ("checkb", 8.0, A2, FAR),
)

# mc-k3 --------------------------------------------------------------------

MC_SETS = {
    "pq_qneg": "pqball:p=2,q=-0.4,eps=1",
    "pq_q0": "pqball:p=1,q=0,eps=1",
    "pq_pq": "pqball:p=5,q=1,eps=1",
    "hatb": f"hatb:p=4.5,a=1,eps={3.0 ** (-1.0 / 4.5) + 0.01!r}",
    "checkb": "checkb:p=1.5,a=1,eps=0.45",
    "p0": "pball:p=0,eps=1",
    "pneg": "pball:p=-1,eps=1",
}
MC_RADII = (1.5, 4.0, 6.0, 10.0)  # near, mid and far shifts
MC_DIRS = ((1.0, 0.6, 0.2), (1.0, 1.0, 0.5))
# 2^20 samples at most, a quarter of what the default cap of 4,000,000 lets
# run: a missed target then costs at most about 0.6 s, so a cycle holds many
# answers
MC_MAX_SAMPLES = 1 << 20
MC_SEEDS = (1, 2)
MC_CALIB_P = (0.0, -1.0)
MC_CALIB_ALPHAS = (0.05, 0.01)
MC_CALIB_BETA = 0.9
MC_WORKERS = 2


@dataclass(frozen=True)
class Answer:
    """One call into the public API; `key` names its reference.

    `image` (polar2d) maps the shift by a symmetry of the plane that every
    figure-1 set is invariant under, so the answer's value is unchanged."""
    key: str
    kind: str  # are | measure | critical_value | shift_solution
    params: tuple  # sorted (name, value) pairs
    image: int = 0

    def get(self, name, default=None):
        return dict(self.params).get(name, default)

    def shift(self):
        s = self.get("shift")
        if not self.image:
            return s
        x, y = reversed(s) if self.image & 1 else s
        return (-x if self.image & 2 else x, -y if self.image & 4 else y)


def _answer(kind, **params):
    items = tuple(sorted(params.items()))
    key = kind + "|" + ",".join(f"{k}={_fmt(v)}" for k, v in items)
    return Answer(key, kind, items)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return "(" + ";".join(_fmt(x) for x in v) + ")"
    return str(v)


def unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


def k2_direction(i):
    t = i * (math.pi / 4.0) / (ARE_K2_ANGLES - 1)
    return (math.cos(t), math.sin(t))


def are_answer(k, p, alpha, beta, u):
    return _answer("are", k=k, p=float(p), alpha=alpha, beta=beta,
                   u=tuple(float(x) for x in u))


def measure_answer(set_text, k, shift, target=None, seed=0, workers=1,
                   **max_samples):
    return _answer("measure", set=set_text, k=k,
                   shift=tuple(float(x) for x in shift), target=target,
                   seed=seed, workers=workers, **max_samples)


def calib_answers(p, alpha):
    crit = _answer("critical_value", k=3, p=float(p), alpha=alpha,
                   workers=MC_WORKERS)
    shift = _answer("shift_solution", k=3, p=float(p), alpha=alpha,
                    beta=MC_CALIB_BETA, u=(1.0, 1.0, 1.0), workers=MC_WORKERS)
    return (crit, shift)


# pools --------------------------------------------------------------------


def are_pool():
    """Every are() answer the are-sweep workload can ask for."""
    out = []
    for p in ARE_P_LOW + ARE_P_HIGH + ARE_P_CLOSED:
        for a in ARE_ALPHAS:
            for b in ARE_BETAS:
                out += [are_answer(2, p, a, b, k2_direction(i))
                        for i in range(ARE_K2_ANGLES)]
                out += [are_answer(3, p, a, b, u) for u in ARE_K3_DIRS]
    return out


def polar_pool():
    """One measure() answer per polar2d slot, before its symmetry image."""
    return [measure_answer(POLAR_SETS[name], 2,
                           (r * math.cos(t), r * math.sin(t)), target)
            for name, r, t, target in POLAR_SLOTS]


def mc_slots():
    """The mc-k3 measure slots, each a tuple of answers, one per MC seed."""
    return [tuple(measure_answer(text, 3, tuple(r * x for x in unit(d)),
                                 seed=s, workers=MC_WORKERS,
                                 max_samples=MC_MAX_SAMPLES)
                  for s in MC_SEEDS)
            for text in MC_SETS.values() for r in MC_RADII for d in MC_DIRS]


def mc_calib_slots():
    """The mc-k3 calibration slots, one per p, each a tuple of blocks."""
    return [tuple(calib_answers(p, a) for a in MC_CALIB_ALPHAS)
            for p in MC_CALIB_P]


def pool(workload):
    """All answers of a workload, each once."""
    if workload == "are-sweep":
        return are_pool()
    if workload == "polar2d":
        return polar_pool()
    if workload == "mc-k3":
        return ([a for slot in mc_slots() for a in slot]
                + [a for slot in mc_calib_slots() for blk in slot
                   for a in blk])
    raise ValueError(f"unknown workload {workload!r}")


# cycles -------------------------------------------------------------------


def _are_block(rng, k, ps, n_dirs):
    if k is None:
        k = rng.choice((2, 3))
    p = rng.choice(ps)
    a, b = rng.choice(ARE_ALPHAS), rng.choice(ARE_BETAS)
    if k == 2:
        dirs = [k2_direction(i) for i in
                sorted(rng.sample(range(ARE_K2_ANGLES), n_dirs))]
    else:
        dirs = [ARE_K3_DIRS[i] for i in
                sorted(rng.sample(range(len(ARE_K3_DIRS)), n_dirs))]
    return [are_answer(k, p, a, b, u) for u in dirs]


def _cycle(workload, rng):
    if workload == "are-sweep":
        blocks = [_are_block(rng, k, ps, n) for k, ps, n in ARE_CYCLE]
    elif workload == "polar2d":
        blocks = [[replace(a, image=rng.randrange(8))] for a in polar_pool()]
    elif workload == "mc-k3":
        blocks = ([list(rng.choice(slot)) for slot in mc_calib_slots()]
                  + [[rng.choice(slot)] for slot in mc_slots()])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(blocks)
    return blocks


# Answer wall time of one cycle at the seed commit, in seconds. A run of
# --seconds holds that many seconds' worth of whole cycles at the seed commit,
# and the same number on every later commit, so the number of answers, and the
# percentile answer_ms_tail sits at, do not depend on the speed of the code.
CYCLE_SECONDS = {"are-sweep": 32.0, "polar2d": 23.0, "mc-k3": 24.0}


def run_blocks(workload, seed, seconds):
    """The blocks of one run: its first whole cycles, at least one."""
    n = max(1, round(seconds / CYCLE_SECONDS[workload]))
    return [b for c in itertools.islice(cycles(workload, seed), n) for b in c]


def cycles(workload, seed):
    """Endless cycles of a workload for one seed; a cycle is a list of
    blocks, and the answers of a block run in sequence."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _cycle(workload, rng)
