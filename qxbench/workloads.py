"""The benchmark's workloads: input pools, one timed operation, its checks.

An operation is one ``run_trial`` call (trial workloads) or one
``qx_decompose`` followed by ``x_inverse`` (``factor``). Package functions
are looked up through their modules at call time, so that the tracer's
wrappers are used when they are installed.

Inputs come from ``--seed`` through numpy's ``SeedSequence``; the program
receives only the generated trial configurations and matrices. The one
exception is the fixed tall ``trial-closed`` inputs, on which the program's
``x_relative_a`` bound fails every time (see ``KNOWN_FAULT``): they do not
depend on the seed, so the share of failed operations is the same in every
run.
"""

from __future__ import annotations

import math

import numpy as np

import centroqx.centro as centro
import centroqx.harness as harness
import centroqx.qx as qx
import centroqx.rng as rng

import checks

EPS = 1e-8
K_MODES = ("identity", "ones")
MIN_OPS = 40  # latency_tail_ms needs 10 samples beyond it at >= 40 samples

# The one check allowed to fail: x_relative_a undershoots |dX|_F on tall
# random inputs (bounds._refined_normwise_values). It fails on every
# TALL_FAULT_INPUTS entry and on no other input of the pools.
KNOWN_FAULT = "domination:x_relative_a"


class Workload:
    """A pool of inputs, cycled in whole passes."""

    name = ""
    tag = 0  # keeps the workloads' seed streams apart
    pass_seconds = 1.0  # one pass over the pool on the reference machine
    warmup = None  # a fixed, seed-independent item run once before timing

    def __init__(self, seed: int) -> None:
        self.pool = self.build_pool(np.random.SeedSequence([seed, self.tag]))

    def build_pool(self, seq: np.random.SeedSequence) -> list:
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        """Whole passes for a run of about ``seconds`` on the reference machine."""
        return max(math.ceil(MIN_OPS / len(self.pool)), round(seconds / self.pass_seconds))

    def prepare(self, item):
        """The program's input for one item, made outside the timed interval."""
        return item

    def run(self, arg):
        raise NotImplementedError

    def check(self, item, arg, out) -> list[str]:
        raise NotImplementedError

    def known_fault(self, item, failed: list[str]) -> bool:
        return False

    def label(self, item) -> str:
        raise NotImplementedError


class TrialWorkload(Workload):
    """Full ``run_trial`` calls at eps = 1e-8, K alternating identity / ones."""

    with_operators = False
    probe_trials = 0

    def config(self, index: int, m: int, n: int, generator: str, seed: int):
        return harness.TrialConfig(
            m=m, n=n, generator=generator, scale=EPS, seed=int(seed),
            k_mode=K_MODES[index % 2], with_operators=self.with_operators,
            probe_trials=self.probe_trials,
        )

    @property
    def warmup(self):
        return self.config(0, 20, 10, "random", 0)

    def run(self, cfg):
        return harness.run_trial(cfg)

    def check(self, cfg, arg, record) -> list[str]:
        a = cfg.materialize()
        # The harness draws the perturbation from this child seed; the check
        # of record.delta_a confirms that it is the same dA.
        da, _, _ = centro.random_centro_perturbation(
            a, cfg.scale, rng.derive_seed(cfg.seed, 0xB), cfg.k_mode
        )
        failed = checks.check_trial(a, da, qx.qx_decompose(a), qx.qx_decompose(a + da), record)
        if self.with_operators and not failed and (record.cond is None or record.probe is None):
            failed.append("route:operators-or-probe-missing")
        return failed

    def label(self, cfg) -> str:
        return f"{cfg.generator} {cfg.m}x{cfg.n} seed={cfg.seed} K={cfg.k_mode}"


class TrialClosed(TrialWorkload):
    """Closed-form route only: operators switched off, not skipped by the cap."""

    name = "trial-closed"
    tag = 1
    pass_seconds = 23.0
    # t1 rows 7-9 (above the operator cap) at the harness seeds that show
    # the x_relative_a fault; fixed, so the fault count does not vary.
    TALL_FAULT_INPUTS = ((150, 50, 0), (200, 60, 0), (300, 100, 0))
    SQUARE_SIZES = (100, 110, 120)
    PER_GENERATOR = 41

    def build_pool(self, seq):
        seeds = seq.generate_state(2 * self.PER_GENERATOR)
        shapes = [("random", m, n, s) for m, n, s in self.TALL_FAULT_INPUTS]
        for i in range(self.PER_GENERATOR):
            n = self.SQUARE_SIZES[i % len(self.SQUARE_SIZES)]
            shapes.append(("random", n, n, seeds[2 * i]))
            shapes.append(("toeplitz", n, n, seeds[2 * i + 1]))
        return [self.config(i, m, n, g, s) for i, (g, m, n, s) in enumerate(shapes)]

    def known_fault(self, cfg, failed):
        return failed == [KNOWN_FAULT] and cfg.m > cfg.n


class TrialOperator(TrialWorkload):
    """The t4 recipe: dense operators, exact condition numbers, 4-sample probe."""

    name = "trial-operator"
    tag = 2
    pass_seconds = 22.0
    with_operators = True
    probe_trials = 4
    # All m*n <= 2500. HEAVY builds 61 MB of dense operators (gx, hx, gq) and
    # costs about five light trials; it comes once per three light rounds, so
    # that the median and the tail fall among the light trials.
    LIGHT = ((20, 10), (25, 10), (30, 20), (40, 20))
    HEAVY = (44, 44)
    LIGHT_ROUNDS = 11

    def build_pool(self, seq):
        shapes = []
        for i in range(self.LIGHT_ROUNDS):
            shapes += self.LIGHT
            if i % 3 == 2:
                shapes.append(self.HEAVY)
        seeds = seq.generate_state(len(shapes))
        return [self.config(i, m, n, "random", seeds[i]) for i, (m, n) in enumerate(shapes)]


class Factor(Workload):
    """``qx_decompose`` then ``x_inverse`` on numpy-made inputs, m*n ~ 1e5."""

    name = "factor"
    tag = 3
    pass_seconds = 0.45
    SHAPES = ((1000, 100), (1001, 100), (500, 200), (501, 200), (316, 316), (320, 320))
    PER_SHAPE = 2
    warmup = (1000, 100, 0)

    def build_pool(self, seq):
        seeds = seq.generate_state(self.PER_SHAPE * len(self.SHAPES))
        return [(m, n, int(seeds[i])) for i, (m, n) in enumerate(self.SHAPES * self.PER_SHAPE)]

    def prepare(self, item):
        """Exactly centrosymmetric, entries of magnitude below 1."""
        m, n, seed = item
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, n))
        return 0.5 * (b + b[::-1, ::-1])

    def run(self, a):
        factors = qx.qx_decompose(a)
        return factors, qx.x_inverse(factors.x)

    def check(self, item, a, out) -> list[str]:
        factors, xinv = out
        return checks.check_factor(a, factors.q, factors.x, xinv)

    def label(self, item) -> str:
        m, n, seed = item
        return f"centro {m}x{n} seed={seed}"


WORKLOADS = {w.name: w for w in (TrialClosed, TrialOperator, Factor)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
