"""The three workloads: what each calls, on which seeded inputs, and how each answer is judged.

An ``Op`` is one call of spherepref's public API, exactly as a user would
make it, plus the benchmark's verdict on its result. A workload is a list of
phases; each phase is a list of ops that a run cycles through for its share
of the measured time. All calls are made by one caller, one after another.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import inputs
from recheck import verdict_ok

EXACT, FLOAT = "exact", "float"


def load_api() -> SimpleNamespace:
    """Import spherepref and bind the public names the workloads call.

    ``from spherepref.rationalize import ...`` and ``import spherepref.lp`` keep
    working whether or not the package ``__init__`` re-exports a function
    under a submodule's name.
    """
    import spherepref.lp
    from spherepref.axioms import (
        ComparisonOracle,
        check_homotheticity,
        check_oioi,
        check_perp_diff,
        check_soioi,
        check_strict_convexity,
        cubic_oracle,
        params_oracle,
    )
    from spherepref.cardinal import (
        NotQuadraticLinear,
        check_status_quo_independence,
        coefficient_oracle,
        cubic_utility,
        decompose,
    )
    from spherepref.formats import dumps
    from spherepref.preference import Ordering, SphericalParams
    from spherepref.rationalize import (
        RESTRICT_ANTI_EUCLIDEAN,
        RESTRICT_EUCLIDEAN,
        RESTRICT_LINEAR,
        ObservationSet,
        rationalize,
    )

    api = SimpleNamespace(**{k: v for k, v in locals().items() if k != "spherepref"})
    api.lp = spherepref.lp
    api.restrictions = {
        inputs.LINEAR: RESTRICT_LINEAR,
        inputs.EUCLIDEAN: RESTRICT_EUCLIDEAN,
        inputs.ANTI_EUCLIDEAN: RESTRICT_ANTI_EUCLIDEAN,
    }
    # the `spherepref rationalize` pipeline minus argparse and process start
    api.parse = lambda text: api.ObservationSet.from_dict(json.loads(text))
    api.render = lambda verdict: api.dumps(verdict.to_dict())
    api.oracle = lambda oracle: oracle  # the traced run substitutes counted callbacks
    return api


@dataclass
class Op:
    kind: str  # the public function called: "rationalize", "check_oioi", "decompose", ...
    mode: str
    items: int  # observations decided or trials evaluated; 0 for decompose
    call: Callable  # api -> result
    judge: Callable  # (api, result) -> (correct, verified or None)


@dataclass
class Workload:
    phases: list  # [(share of the measured time, [Op, ...])]
    trace_prefix: int  # ops per phase in the traced run, a fixed count so its counts repeat


# -- rationalize workloads -------------------------------------------------


def decide(api, case: inputs.Case, mode: str) -> str:
    data = api.parse(case.doc)
    verdict = api.rationalize(data, restriction=api.restrictions.get(case.restriction), mode=mode)
    return api.render(verdict)


def rationalize_op(case: inputs.Case, mode: str) -> Op:
    def judge(api, out):
        doc = json.loads(out)
        right = doc["rationalizable"] is case.truth
        verified = verdict_ok(case, doc)
        if mode == EXACT:
            return right and verified, None
        return right, verified

    return Op("rationalize", mode, case.observations, lambda api: decide(api, case, mode), judge)


def rationalize_phases(cases: list, exact_share: float) -> list:
    return [
        (exact_share, [rationalize_op(c, EXACT) for c in cases]),
        (1.0 - exact_share, [rationalize_op(c, FLOAT) for c in cases]),
    ]


# the sizes of acceptance criterion 9: far above the 120 rows at which
# rationalize switches to row generation
TALL_PAIRS = {3: 1000, 4: 1200}


def build_tall(api, seed: int, count: int) -> Workload:
    """Rationalizable n = 3 and n = 4 datasets and a negative one, in turn.

    The generator's class cycles too, so every run sees the same mix. Not in
    BENCHMARK.json: a run decides only a dozen or two of these datasets and
    their cost varies so much that runs with different seeds spread by
    0.2-0.45 of the median; compare it with many runs per side.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = (3, 4, 3 + (i // 3) % 2)[i % 3]
        params = inputs.random_params(rng, n, inputs.CLASSES[(i // 3) % 3])
        weak, strict = inputs.labelled_pairs(rng, params, n, TALL_PAIRS[n])
        if i % 3 == 2:
            cases.append(inputs.make_case(n, weak, inputs.reverse_one(rng, strict), None, False))
        else:
            cases.append(inputs.make_case(n, weak, strict, None, True))
    return Workload(rationalize_phases(cases, 0.8), trace_prefix=9)


def build_small(api, seed: int, count: int) -> Workload:
    """8-40 pairs, n in {3, 4, 5}; half corrupted; restrictions in rotation.

    A clean dataset runs unrestricted or restricted to its generator's own
    class, a corrupted one under any restriction, so the truth is known.
    Corruption and restriction (period 8), dimension (3) and size (5) each
    rotate with every dataset and meet in all 120 combinations, so any run,
    however far it gets, decides nearly the same mix.
    """
    rng = random.Random(seed)
    rotation = (None, inputs.LINEAR, inputs.EUCLIDEAN, inputs.ANTI_EUCLIDEAN)
    cases = []
    for i in range(count):
        corrupted = i % 2 == 1
        restrict = rotation[(i // 2) % 4]
        n = (3, 4, 5)[i % 3]
        size = (8, 16, 24, 32, 40)[i % 5]
        params = inputs.random_params(rng, n, restrict or inputs.ANY)
        weak, strict = inputs.labelled_pairs(rng, params, n, size)
        if corrupted:
            if strict and rng.random() < 0.5:
                strict = inputs.reverse_one(rng, strict)
            else:
                strict = inputs.strict_cycle(rng, strict, n)
        cases.append(inputs.make_case(n, weak, strict, restrict, not corrupted))
    return Workload(rationalize_phases(cases, 0.75), trace_prefix=120)


# -- checkers workload -----------------------------------------------------

FLOAT_TRIALS = 200
EXACT_TRIALS = 20
SQ_TRIALS = 100
# cubic1 breaks soioi in well under 1% of trials; 4000 trials find a violation
# with probability 1 - 1e-8, the others need far fewer
CUBIC_TRIALS = {"check_oioi": 400, "check_perp_diff": 400, "check_soioi": 4000, "check_homotheticity": 400}
NECESSITY = ("check_oioi", "check_perp_diff", "check_soioi", "check_homotheticity")


def compare_only_oracle(api, c, d):
    """Benchmark-owned black-box oracle: the exact sign of the utility gap, no utility channel."""
    better, worse, same = api.Ordering.BETTER, api.Ordering.WORSE, api.Ordering.INDIFFERENT

    def cmp(x, y):
        gap = c * (sum(v * v for v in x) - sum(v * v for v in y)) + sum(a * (u - v) for a, u, v in zip(d, x, y))
        return better if gap > 0 else worse if gap < 0 else same

    return api.ComparisonOracle(dim=len(d), compare=cmp, name="compare_only")


def checker_op(name: str, oracle, trials: int, seed: int, mode: str, clean: bool) -> Op:
    def judge(api, report):
        ok = report.violations == 0 if clean else report.violations >= 1
        return ok and report.trials == trials, None

    def call(api):
        return getattr(api, name)(api.oracle(oracle), trials, rng_seed=seed, mode=mode)

    return Op(name, mode, trials, call, judge)


def convexity_op(params, trials: int, seed: int) -> Op:
    euclidean = params.c < 0  # the only class without violations

    def judge(api, report):
        return (report.violations == 0) == euclidean and report.trials == trials, None

    return Op("check_strict_convexity", FLOAT, trials,
              lambda api: api.check_strict_convexity(params, trials, rng_seed=seed, mode=FLOAT), judge)


def decompose_op(oracle, a, b, mode: str) -> Op:
    def close(got, want):
        return got == want if mode == EXACT else abs(got - want) <= 1e-9

    def judge(api, dec):
        n = len(b)
        ok = all(close(dec.linear[i], b[i]) and all(close(dec.bilinear[i][j], a[i][j]) for j in range(n))
                 for i in range(n))
        return ok, None

    return Op("decompose", mode, 0, lambda api: api.decompose(api.oracle(oracle)), judge)


def rejection_op(oracle) -> Op:
    def call(api):
        try:
            return api.decompose(api.oracle(oracle))
        except api.NotQuadraticLinear as exc:
            return exc

    return Op("decompose", EXACT, 0, call, lambda api, result: (isinstance(result, api.NotQuadraticLinear), None))


def status_quo_op(oracle, trials: int, seed: int) -> Op:
    def judge(api, report):
        return report.violations == 0 and report.trials == trials, None

    return Op("check_status_quo_independence", FLOAT, trials,
              lambda api: api.check_status_quo_independence(api.oracle(oracle), trials, rng_seed=seed, mode=FLOAT),
              judge)


def checker_cycle(api, rng: random.Random, index: int) -> list:
    """One round of every checking job, n = 3..6, plus one cubic1 round."""
    seed = lambda: rng.randrange(2**31)  # noqa: E731
    ops = []
    for n in (3, 4, 5, 6):
        c, d = inputs.float_params(rng, n)
        on_sphere = api.params_oracle(api.SphericalParams(c, d))
        ops += [checker_op(name, on_sphere, FLOAT_TRIALS, seed(), FLOAT, True) for name in NECESSITY]
        grid = api.SphericalParams(*inputs.exact_params(rng, n))
        ops.append(convexity_op(grid, FLOAT_TRIALS, seed()))
        exact = api.params_oracle(api.SphericalParams(*inputs.exact_params(rng, n)))
        ops += [checker_op(name, exact, EXACT_TRIALS, seed(), EXACT, True) for name in NECESSITY]
        blind = compare_only_oracle(api, *inputs.exact_params(rng, n))
        ops += [checker_op(name, blind, EXACT_TRIALS, seed(), EXACT, True) for name in NECESSITY]
        for mode in (EXACT, FLOAT):
            a, b = inputs.symmetric_coefficients(rng, n, mode == EXACT)
            ops.append(decompose_op(api.coefficient_oracle(a, b), a, b, mode))
        a, b = inputs.symmetric_coefficients(rng, n, exact=False)
        ops.append(status_quo_op(api.coefficient_oracle(a, b), SQ_TRIALS, seed()))
    n = 3 + index % 4
    cubic = api.cubic_oracle(n)
    ops += [checker_op(name, cubic, CUBIC_TRIALS[name], seed(), FLOAT, False) for name in NECESSITY]
    ops.append(rejection_op(api.cubic_utility(n)))
    return ops


def build_checkers(api, seed: int, count: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for i in range(count):
        ops += checker_cycle(api, rng, i)
    return Workload([(1.0, ops)], trace_prefix=4 * len(ops) // count)


# inputs per run: enough distinct ones that a run at the parent's speed
# rarely wraps around; a faster program cycles through them again
BUILDERS = {"tall": (build_tall, 60), "small": (build_small, 1000), "checkers": (build_checkers, 48)}


def unverified(op: Op):
    """The verified flag of an op that failed: False for a float verdict, else not applicable."""
    return False if op.kind == "rationalize" and op.mode == FLOAT else None


def judge_op(api, op: Op, result) -> tuple:
    """(correct, verified); a judge that raises on a malformed result marks it wrong."""
    try:
        return op.judge(api, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError, AttributeError):
        return False, unverified(op)
