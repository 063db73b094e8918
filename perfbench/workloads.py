"""The four benchmark workloads: inputs from a seed, one pass, its checks.

A workload builds its inputs in ``__init__`` from the seed alone (that time
counts towards setup_s). ``run_pass`` sends them through the package once and
checks every output; a pass is a fixed amount of work (``self.work`` units),
so repeated passes in one run must give identical outputs. ``side_checks``
runs once per run, outside timing. Every call into the package goes through
the tracer's ``call`` so that a traced run can time it.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from blindalign import cli
from blindalign.counting import exact_count, f_2user, f_low_3, monte_carlo_p, p_upper_3
from blindalign.diophantine import closed_form_solution
from blindalign.feasibility import check_config
from blindalign.pattern import ChannelConfig
from blindalign.scheduler import build_schedule, validate_schedule
from blindalign.signaling import verify_schedule_end_to_end
from spans import NullTracer

TOL = 1e-9  # worst alignment residual must stay below it, min singular value above


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # compared across passes
    item_s: list = field(default_factory=list)  # latency of each item
    errors: list = field(default_factory=list)


def run_item(res: PassResult, what: str, fn, *args) -> None:
    """Run one checked item; ``fn`` returns (ok, output)."""
    t0 = time.perf_counter()
    try:
        ok, out = fn(*args)
    except Exception as exc:  # a crashing item is a failed item; the run goes on
        ok, out = False, f"{type(exc).__name__}: {exc}"
    res.item_s.append(time.perf_counter() - t0)
    res.attempted += 1
    res.outputs.append(out)
    if not ok:
        res.failed += 1
        res.errors.append(f"{what}: {out}")


def config_with_n(rng, K: int, N: int) -> ChannelConfig:
    """Feasible config of K users at coherence time N.

    This is the gap and offset draw of the gate-5 (c05) sampler: every gap is
    at least ceil(N/(K+1)), the surplus is spread multinomially, and the
    benchmark user's offset and the order of the others are random.
    """
    base = -(-N // (K + 1))
    bumps = rng.multinomial(N - K * base, [1.0 / K] * K)
    gaps = [base + int(b) for b in bumps]
    pos = [int(rng.integers(0, N))]
    for g in gaps[:-1]:
        pos.append((pos[-1] + g) % N)
    rest = [pos[i] for i in rng.permutation(range(1, K))]
    return ChannelConfig(N=N, offsets=(pos[0], *rest))


def feasible_sizes(K: int, n_max: int) -> list[int]:
    """Coherence times in [K, n_max] that admit a feasible K-user config."""
    return [N for N in range(K, n_max + 1) if K * -(-N // (K + 1)) <= N]


class Workload:
    """Inputs made from a seed; each kind adds ``work`` and ``run_pass``."""

    def side_checks(self) -> tuple[int, int]:
        """(attempted, failed) of checks run once per run, outside timing."""
        return 0, 0


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``blindalign.cli.main`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class VerifySweep(Workload):
    """Library path, check_config through verify, over ~200 small configs."""

    rate_name = "thread_trials_per_s"
    item_name = "config"

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        self.seed = seed
        per_k, n_max, self.trials = (2, 12, 2) if tiny else (50, 60, 10)
        # The c05 draw, except that each K gets the same evenly spread list of
        # sizes: the seed then changes which configs are verified but hardly
        # the work per pass, which depends on N and K.
        sizes = {}
        for K in (2, 3, 4, 5):
            ok = feasible_sizes(K, n_max)
            sizes[K] = [ok[round(j * (len(ok) - 1) / (per_k - 1))] for j in range(per_k)]
        rng = np.random.default_rng(seed)
        self.configs = [ChannelConfig(4, (0, 1, 2))]
        for j in range(per_k):
            for K in (2, 3, 4, 5):
                self.configs.append(config_with_n(rng, K, sizes[K][j]))
        self.work = self.trials * sum(cfg.N for cfg in self.configs)

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for i, cfg in enumerate(self.configs):
            tr.item = i
            run_item(res, f"config {cfg}", self._verify, tr, cfg)
        return res

    def _verify(self, tr, cfg):
        report = tr.call("feasibility.check_config", check_config, cfg)
        lam = tr.call("diophantine.closed_form_solution", closed_form_solution, report.s)
        sched = tr.call("scheduler.build_schedule", build_schedule, cfg, lam)
        valid = tr.call("scheduler.validate_schedule", validate_schedule, sched)
        summary = tr.call("signaling.verify_schedule_end_to_end",
                          verify_schedule_end_to_end, cfg, sched,
                          seed=self.seed, trials=self.trials)
        tr.count("signaling.thread_trials", summary.n_tuples * summary.trials)
        ok = (report.feasible and valid.passed and summary.passed
              and summary.n_tuples == cfg.N and summary.trials == self.trials
              and summary.max_residual < TOL and summary.min_singular > TOL
              and summary.symbols_per_slot == Fraction(2 * cfg.K, cfg.K + 1))
        return ok, (summary.max_residual, summary.min_singular)


_VERIFY_LINES = re.compile(
    r"verification: (?P<verdict>\w+)\n"
    r"tuples=(?P<tuples>\d+) trials=(?P<trials>\d+)\n"
    r"max alignment residual: (?P<residual>\S+)\n"
    r"min normalized singular value: (?P<singular>\S+)\n"
)


class VerifyLong(Workload):
    """CLI path, decompose then verify through files, on a few large-N configs."""

    rate_name = "thread_trials_per_s"
    item_name = "config"

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        self.seed = seed
        self.workdir = workdir
        even, (n_rand, k_rand), self.trials = (
            ([(60, 4)], (40, 3), 1) if tiny else ([(6000, 4), (6000, 3)], (3000, 5), 2))
        self.configs = [ChannelConfig(N, tuple(N * u // K for u in range(K)))
                        for N, K in even]
        self.configs.append(config_with_n(np.random.default_rng(seed), k_rand, n_rand))
        self.work = self.trials * sum(cfg.N for cfg in self.configs)

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for i, cfg in enumerate(self.configs):
            tr.item = i
            run_item(res, f"config {cfg}", self._decompose_verify, tr, i, cfg)
        return res

    def _decompose_verify(self, tr, i, cfg):
        path = str(self.workdir / f"schedule-{i}.json")
        offsets = ",".join(map(str, cfg.offsets))
        rc, _, err = tr.call("cli.decompose", run_cli, [
            "decompose", "--N", str(cfg.N), "--offsets", offsets, "--out", path])
        if rc != 0:
            return False, f"decompose exit {rc}: {err.strip()}"
        rc, out, err = tr.call("cli.verify", run_cli, [
            "verify", "--schedule", path, "--seed", str(self.seed),
            "--trials", str(self.trials)])
        m = _VERIFY_LINES.match(out)
        if rc != 0 or m is None:
            return False, f"verify exit {rc}: {out.strip()} {err.strip()}"
        tuples, trials = int(m["tuples"]), int(m["trials"])
        tr.count("signaling.thread_trials", tuples * trials)
        residual, singular = float(m["residual"]), float(m["singular"])
        ok = (m["verdict"] == "PASS" and tuples == cfg.N and trials == self.trials
              and residual < TOL and singular > TOL)
        return ok, (residual, singular)


# (N, K, k, exact count by enumeration at the seed commit). Where k=2 and
# N % 3 == 0 the count must also equal the closed form f_2user(N,K);
# (16,6,3) equals the bound f_low_3(16,6).
EXACT_CASES = [(36, 5, 2, 87781), (16, 6, 3, 334126)]
EXACT_CASES_TINY = [(9, 4, 2, 65), (8, 4, 3, 290)]
# checked once per run outside timing: 1 - 723901/60^4 is the true 2-user
# probability behind acceptance gate 8b
EXACT_REFERENCE = (60, 5, 2, 723901)
EXACT_REFERENCE_TINY = (12, 4, 2, 175)
LOW3_CASE = (400, 11, 5412354352475971940307478)
LOW3_CASE_TINY = (40, 5, 1483336)


class ProbExact(Workload):
    """exact_count by full enumeration at small K, with the closed forms."""

    rate_name = "placements_per_s"
    item_name = "count"

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        rng = np.random.default_rng(seed)
        # one small case picked by the seed, checked against f_low_3 only
        small = (int(rng.choice([8, 12])), int(rng.integers(3, 6)), 3, None)
        self.cases = [*(EXACT_CASES_TINY if tiny else EXACT_CASES), small]
        self.reference = EXACT_REFERENCE_TINY if tiny else EXACT_REFERENCE
        self.low3 = LOW3_CASE_TINY if tiny else LOW3_CASE
        self.work = sum(N ** (K - 1) for N, K, _, _ in self.cases)

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for i, (N, K, k, ref) in enumerate(self.cases):
            tr.item = i
            run_item(res, f"exact_count({N},{K},{k})", self._exact, tr, N, K, k, ref)
        tr.item = len(self.cases)
        N, K, ref = self.low3
        run_item(res, f"f_low_3({N},{K})", self._low3, tr, N, K, ref)
        return res

    def side_checks(self) -> tuple[int, int]:
        res = PassResult()
        run_item(res, f"exact_count{self.reference[:3]}", self._exact, NullTracer(),
                 *self.reference)
        return res.attempted, res.failed

    def _exact(self, tr, N, K, k, ref):
        bad = tr.call("counting.exact_count", exact_count, N, K, k).value
        rows = N ** (K - 1)
        tr.count("counting.placements", rows)
        tr.count("counting.subset_tests", rows * math.comb(K, k))
        ok = 0 <= bad <= rows and (ref is None or bad == ref)
        if k == 2 and N % 3 == 0:
            ok &= tr.call("counting.closed_form", f_2user, N, K).value == bad
        if k == 3 and N % 4 == 0:
            low = tr.call("counting.closed_form", f_low_3, N, K).value
            upper = tr.call("counting.closed_form", p_upper_3, N, K).p
            ok &= low <= bad and upper >= float(Fraction(rows - bad, rows))
        return ok, bad

    def _low3(self, tr, N, K, ref):
        low = tr.call("counting.closed_form", f_low_3, N, K).value
        return low == ref, low


# (N, K, k, trials per pass, reference p, trials behind it; None when exact).
# The references are monte_carlo_p(..., trials=2**20, seed=20121209) at the
# seed commit, and exact enumeration for the tiny cases.
MC_CASES = [
    (60, 11, 3, 65536, 0.9589986801147461, 1 << 20),
    (60, 20, 3, 16384, 0.9997758865356445, 1 << 20),
    (30, 12, 4, 32768, 0.7854728698730469, 1 << 20),
]
MC_CASES_TINY = [
    (12, 5, 3, 4096, 1 - 9136 / 12**4, None),
    (10, 6, 4, 4096, 0.3378, None),
]


class ProbMC(Workload):
    """monte_carlo_p at large K, seeded from the workload seed."""

    rate_name = "mc_trials_per_s"
    item_name = "estimate"

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        self.seed = seed
        self.cases = MC_CASES_TINY if tiny else MC_CASES
        self.work = sum(case[3] for case in self.cases)

    def run_pass(self, tr) -> PassResult:
        res = PassResult()
        for i, case in enumerate(self.cases):
            tr.item = i
            run_item(res, f"monte_carlo_p{case[:3]}", self._estimate, tr, *case)
        return res

    def _estimate(self, tr, N, K, k, trials, p_ref, n_ref):
        est = tr.call("counting.monte_carlo_p", monte_carlo_p, N, K, k,
                      trials=trials, seed=self.seed)
        tr.count("counting.subset_tests", trials * math.comb(K, k))
        # 5 standard errors of the difference, plus 5 counts of slack for
        # p near 1 where the normal approximation is poor
        var = p_ref * (1 - p_ref) * (1 / trials + (1 / n_ref if n_ref else 0))
        tol = 5 * math.sqrt(var) + 5 / trials
        ok = est.trials == trials and abs(est.p - p_ref) <= tol
        if k == 3 and N % 4 == 0:
            ok &= est.p <= tr.call("counting.closed_form", p_upper_3, N, K).p + tol
        return ok, est.p

    def side_checks(self) -> tuple[int, int]:
        """Same seed twice and at threads=2 give bit-identical estimates."""
        trials = 2 * 32768 + 1000  # three chunks, the last one partial
        runs = [monte_carlo_p(20, 8, 3, trials=trials, seed=self.seed, threads=t).p
                for t in (1, 1, 2)]
        return 1, int(len(set(runs)) != 1)


WORKLOADS = {
    "verify_sweep": VerifySweep,
    "verify_long": VerifyLong,
    "prob_exact": ProbExact,
    "prob_mc": ProbMC,
}
