"""Where the traced run cuts spherepref into layers, and the per-layer metrics.

Layers and their boundaries, all rebound from outside the package:

    formats     the benchmark's parse (json.loads + ObservationSet.from_dict)
                and render (verdict.to_dict + formats.dumps)
    rationalize rationalize, with ObservationSet.to_exact inside it
    lp          spherepref.lp.solve, labelled margin (has >= rows) or
                certificate (= rows only) from the program it receives
    axioms      the five checkers; oracle callbacks are counted, not spanned
    cardinal    decompose and check_status_quo_independence; utility callbacks counted

geometry and preference have no spans: their cost shows in axioms self time
and in the oracle wait.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracer import ATTRS, END, NAME, OP, PARENT, START, Tracer
from workloads import EXACT, FLOAT, NECESSITY

CHECKERS = NECESSITY + ("check_strict_convexity",)
CARDINAL = ("decompose", "check_status_quo_independence")

PER_LAYER = (
    ("lp.solve.calls", "count"),
    ("lp.solve.busy_s", "s"),
    ("lp.solve.margin.calls", "count"),
    ("lp.solve.margin.busy_s", "s"),
    ("lp.solve.margin.rows_mean", "count"),
    ("lp.solve.certificate.calls", "count"),
    ("lp.solve.certificate.busy_s", "s"),
    ("lp.solve.certificate.cols_mean", "count"),
    ("lp.solve.bits_max", "bits"),
    ("lp.solve.float.busy_s", "s"),
    ("lp.solve.exact_time_share", "share"),
    ("rationalize.calls", "count"),
    ("rationalize.self_s", "s"),
    ("rationalize.to_exact_s", "s"),
    ("rationalize.solves_per_call", "count"),
    ("rationalize.certificate_share", "share"),
    ("rationalize.float_verified_share", "share"),
    ("formats.parse_s", "s"),
    ("formats.render_s", "s"),
    *((f"axioms.{c}.{m}.us_per_trial", "us") for c in NECESSITY for m in (FLOAT, EXACT)),
    ("axioms.check_strict_convexity.float.us_per_trial", "us"),
    ("axioms.oracle.calls", "count"),
    ("axioms.oracle.wait_s", "s"),
    ("axioms.self_s", "s"),
    ("cardinal.decompose.exact.ms_per_call", "ms"),
    ("cardinal.decompose.float.ms_per_call", "ms"),
    ("cardinal.decompose.utility_calls", "count"),
    ("cardinal.check_status_quo_independence.us_per_trial", "us"),
    ("trace.untraced_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_self_sum_s", "s"),
)


def install(tracer: Tracer, api) -> None:
    """Rebind every layer boundary to a traced wrapper; ``tracer.restore`` undoes it."""
    lp = api.lp

    def lp_attrs(args, kwargs, outcome):
        program = args[0]
        mode = kwargs.get("mode", args[1] if len(args) > 1 else EXACT)
        relations = {c.relation for c in program.constraints}
        kind = "margin" if lp.GE in relations else "certificate" if relations == {lp.EQ} else "other"
        bits = 0
        if mode == EXACT and outcome.primal:
            bits = max(getattr(v, "denominator", 1).bit_length() for v in outcome.primal)
        return {"kind": kind, "mode": mode, "rows": len(program.constraints), "cols": len(program.objective),
                "bits": bits}

    tracer.patch(lp, "solve", "lp.solve", lp_attrs)
    tracer.patch(api.ObservationSet, "to_exact", "rationalize.to_exact")
    tracer.patch(api.ObservationSet, "from_dict", "formats.from_dict")
    tracer.patch(api, "parse", "formats.parse")
    tracer.patch(api, "render", "formats.render")
    spans = {"rationalize": "rationalize"}
    spans.update({c: f"axioms.{c}" for c in CHECKERS})
    spans.update({c: f"cardinal.{c}" for c in CARDINAL})
    for attr, span in spans.items():
        fn = getattr(api, attr)
        traced = tracer.wrap(span, fn)
        module = sys.modules[fn.__module__]
        if getattr(module, attr, None) is fn:
            tracer.rebind(module, attr, traced)
        tracer.rebind(api, attr, traced)
    copies = {}

    def traced_oracle(oracle):
        if id(oracle) not in copies:
            copies[id(oracle)] = (oracle, tracer.traced_oracle(oracle))
        return copies[id(oracle)][1]

    tracer.rebind(api, "oracle", traced_oracle)


def per_layer(tracer: Tracer, ops: list, untraced: list, traced: list, float_verified: tuple) -> dict:
    """Per-layer metrics from the traced pass over ``ops``.

    ``untraced`` and ``traced`` are the benchmark's own per-op timings of the
    same ops without and with tracing; ``float_verified`` is (verified, float
    rationalize verdicts).
    """
    spans = tracer.spans
    own = tracer.self_times()
    named = defaultdict(list)
    for i, s in enumerate(spans):
        named[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(idx):
        return sum(dur(i) for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    def mode_of(i):
        return ops[spans[i][OP]].mode

    m = {}
    solves = named["lp.solve"]
    margin = [i for i in solves if spans[i][ATTRS]["kind"] == "margin"]
    cert = [i for i in solves if spans[i][ATTRS]["kind"] == "certificate"]
    exact_wall = sum(t for op, t in zip(ops, traced) if op.mode == EXACT)
    m["lp.solve.calls"] = len(solves)
    m["lp.solve.busy_s"] = total(solves)
    m["lp.solve.margin.calls"] = len(margin)
    m["lp.solve.margin.busy_s"] = total(margin)
    m["lp.solve.margin.rows_mean"] = ratio(sum(spans[i][ATTRS]["rows"] for i in margin), len(margin))
    m["lp.solve.certificate.calls"] = len(cert)
    m["lp.solve.certificate.busy_s"] = total(cert)
    m["lp.solve.certificate.cols_mean"] = ratio(sum(spans[i][ATTRS]["cols"] for i in cert), len(cert))
    m["lp.solve.bits_max"] = max((spans[i][ATTRS]["bits"] for i in solves), default=0)
    m["lp.solve.float.busy_s"] = total(i for i in solves if spans[i][ATTRS]["mode"] == FLOAT)
    m["lp.solve.exact_time_share"] = ratio(total(i for i in solves if spans[i][ATTRS]["mode"] == EXACT), exact_wall)

    calls = named["rationalize"]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    m["rationalize.calls"] = len(calls)
    m["rationalize.self_s"] = sum(own[i] for i in calls)
    m["rationalize.to_exact_s"] = total(named["rationalize.to_exact"])
    in_call, cert_set = set(calls), set(cert)
    m["rationalize.solves_per_call"] = ratio(sum(1 for i in solves if spans[i][PARENT] in in_call), len(calls))
    m["rationalize.certificate_share"] = ratio(
        sum(1 for i in calls if any(j in cert_set for j in children[i])), len(calls))
    m["rationalize.float_verified_share"] = ratio(*float_verified)
    m["formats.parse_s"] = total(named["formats.parse"])
    m["formats.render_s"] = total(named["formats.render"])

    for checker in CHECKERS:
        for mode in (FLOAT, EXACT):
            idx = [i for i in named[f"axioms.{checker}"] if mode_of(i) == mode]
            trials = sum(ops[spans[i][OP]].items for i in idx)
            m[f"axioms.{checker}.{mode}.us_per_trial"] = ratio(total(idx), trials) * 1e6
    oracle = [v for (name, _), v in tracer.callbacks.items() if name == "axioms.oracle"]
    m["axioms.oracle.calls"] = sum(v[0] for v in oracle)
    m["axioms.oracle.wait_s"] = sum(v[1] for v in oracle)
    m["axioms.self_s"] = sum(own[i] for i, s in enumerate(spans) if s[NAME].startswith("axioms."))

    for mode in (EXACT, FLOAT):
        idx = [i for i in named["cardinal.decompose"] if mode_of(i) == mode]
        m[f"cardinal.decompose.{mode}.ms_per_call"] = ratio(total(idx), len(idx)) * 1e3
    m["cardinal.decompose.utility_calls"] = tracer.callbacks.get(("cardinal.utility", "cardinal.decompose"), [0])[0]
    sq = named["cardinal.check_status_quo_independence"]
    m["cardinal.check_status_quo_independence.us_per_trial"] = ratio(
        total(sq), sum(ops[spans[i][OP]].items for i in sq)) * 1e6

    m["trace.untraced_s"] = sum(untraced)
    m["trace.wall_s"] = sum(traced)
    m["trace.overhead_s"] = sum(traced) - sum(untraced)
    m["trace.span_self_sum_s"] = sum(own) + sum(v[1] for v in tracer.callbacks.values())
    return {name: m[name] for name, _ in PER_LAYER}
