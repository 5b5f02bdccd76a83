"""Seeded request generators for the three benchmark workloads.

Every workload is a sequence of rounds of CLI requests built from one
`random.Random` seeded with the workload name and the seed, so the same
seed always gives the same requests; a run takes the first
`round_count` rounds.  The program under test
sees only the generated argv.  Inside a round the inputs are stratified
(Latin-hypercube style) so that every round holds the same mix of
sizes, which keeps per-run figures steady across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# The five forms the CLI accepts for `eval` and `table`.
FORMS = ("gegenbauer", "lombardi_ogilvie", "podolsky_pauling", "script_D", "trig")

# Momentum scale hbar*beta is drawn log-uniformly over these decades.
LOG10_HBAR_BETA = (-3.0, 3.0)

# table-sweep strata: (N_min, N_max, work).  Mostly small N with a tail
# to 60.  A request's grid size is its stratum's work divided by N - l + 3
# (the number of terms of the finite sums, plus about three terms' worth
# of per-point output), times a stratified jitter in [0.9, 1.1].  So
# within a stratum every request costs about the same, and the mix of
# request times in a round hardly depends on the seed.  The first stratum
# reaches 1e5 points.
TABLE_STRATA = (
    (1, 3, 364_000),
    (2, 6, 60_000),
    (5, 12, 30_000),
    (13, 30, 15_000),
    (31, 60, 8_000),
)
TABLE_COUNT_RANGE = (100, 100_000)
# Points of every table request compared with the oracle: a seeded random
# sample plus an evenly spaced set that also locates the peak |psi|.
TABLE_RANDOM_CHECKS = 24
TABLE_STRIDE_CHECKS = 25

EVAL_MAX_N = 200


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv (without --output) and what the checker needs."""

    kind: str  # "verify", "table" or "eval"
    argv: tuple
    form: str = ""
    N: int = 0
    l: int = 0
    hbar_beta: float = 1.0
    p: float = 0.0  # eval only
    pmin: float = 0.0  # table only
    pmax: float = 0.0
    count: int = 0
    checks: tuple = ()  # table row indices compared with the oracle


def _stratified(rng: random.Random, k: int) -> list:
    """k uniforms in [0, 1), one per stratum [i/k, (i+1)/k), shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _hbar_beta(u: float) -> float:
    lo, hi = LOG10_HBAR_BETA
    return 10.0 ** (lo + (hi - lo) * u)


def table_request(form, N, l, pmin, pmax, count, hbar_beta, checks=()) -> Request:
    argv = ("table", form, str(N), str(l), f"--pmin={pmin!r}", f"--pmax={pmax!r}",
            f"--count={count}", f"--hbar-beta={hbar_beta!r}")
    return Request("table", argv, form, N, l, hbar_beta, pmin=pmin, pmax=pmax,
                   count=count, checks=tuple(checks))


def eval_request(form, N, l, p, hbar_beta) -> Request:
    argv = ("eval", form, str(N), str(l), f"--p={p!r}", f"--hbar-beta={hbar_beta!r}")
    return Request("eval", argv, form, N, l, hbar_beta, p=p)


def _table_checks(rng: random.Random, count: int) -> tuple:
    stride = {round(i * (count - 1) / (TABLE_STRIDE_CHECKS - 1))
              for i in range(TABLE_STRIDE_CHECKS)}
    return tuple(sorted(stride | set(rng.sample(range(count), TABLE_RANDOM_CHECKS))))


def table_round(rng: random.Random) -> list:
    """Every form once in every stratum; N, l, work and hbar*beta stratified."""
    out = []
    k = len(FORMS)
    for n_lo, n_hi, work in TABLE_STRATA:
        un, ul, uw, ub = (_stratified(rng, k) for _ in range(4))
        for i, form in enumerate(FORMS):
            N = n_lo + int(un[i] * (n_hi - n_lo + 1))
            l = int(ul[i] * N)
            count = round(work * (0.9 + 0.2 * uw[i]) / (N - l + 3))
            count = min(max(count, TABLE_COUNT_RANGE[0]), TABLE_COUNT_RANGE[1])
            hb = _hbar_beta(ub[i])
            # The grid always covers the peak region |p| <~ hbar*beta;
            # Podolsky-Pauling is defined on p >= 0 only.
            pmax = rng.uniform(2.0, 6.0) * hb
            pmin = 0.0 if form == "podolsky_pauling" else -rng.uniform(2.0, 6.0) * hb
            out.append(table_request(form, N, l, pmin, pmax, count, hb,
                                     _table_checks(rng, count)))
    rng.shuffle(out)
    return out


def eval_round(rng: random.Random) -> list:
    """N = 1..200 once each; each form gets one N of every block of five."""
    k = len(FORMS)
    pairs = []
    for start in range(1, EVAL_MAX_N + 1, k):
        forms = list(FORMS)
        rng.shuffle(forms)
        pairs.extend(zip(range(start, start + k), forms))
    ul = {form: iter(_stratified(rng, EVAL_MAX_N // k)) for form in FORMS}
    out = []
    for N, form in pairs:
        l = int(next(ul[form]) * N)
        hb = _hbar_beta(rng.random())
        q = 10.0 ** rng.uniform(-2.0, 1.0)
        if form != "podolsky_pauling" and rng.random() < 0.5:
            q = -q
        out.append(eval_request(form, N, l, q * hb, hb))
    rng.shuffle(out)
    return out


VERIFY = Request("verify", ("verify",))

# Unscaled request seconds of one round at the seed commit on a 2-vCPU
# VM.  A run holds round(--seconds / ROUND_SECONDS) whole rounds, at least
# one, so it measures about --seconds there.  The number of requests is
# fixed by the arguments, not by the clock: the same seed and --seconds
# give the same requests, and so the same attempted and failed counts.
ROUND_SECONDS = {"verify-default": 0.9, "table-sweep": 6.0, "eval-stream": 0.375}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))

WORKLOADS = ("verify-default", "table-sweep", "eval-stream")

# The traced run replays the first round with table grids capped here, so
# that the span arrays stay near a million entries.
TRACE_MAX_COUNT = 1000


def rounds(workload: str, seed: int):
    """Endless seeded stream of request rounds of a workload.

    verify-default runs the default verification config; its suites are
    deterministic, so the seed changes nothing there.
    """
    if workload == "verify-default":
        return itertools.repeat([VERIFY])
    rng = random.Random(f"{workload}/{seed}")
    make_round = {"table-sweep": table_round, "eval-stream": eval_round}[workload]
    return (make_round(rng) for _ in itertools.count())


def trace_requests(workload: str, seed: int) -> list:
    """The fixed request list of the traced run: the first round, capped."""
    out = []
    for req in next(rounds(workload, seed)):
        if req.kind == "table" and req.count > TRACE_MAX_COUNT:
            rng = random.Random(repr(req.argv))
            req = table_request(req.form, req.N, req.l, req.pmin, req.pmax, TRACE_MAX_COUNT,
                                req.hbar_beta, _table_checks(rng, TRACE_MAX_COUNT))
        out.append(req)
    return out
