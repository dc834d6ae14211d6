import hashlib
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spherepref.formats import dumps, scalar_from_json
from spherepref.geometry import EXACT, FLOAT, DimensionMismatch, dot
from spherepref.preference import Ordering, SphericalParams, classify, compare
from spherepref.rationalize import (
    RESTRICT_ANTI_EUCLIDEAN,
    RESTRICT_EUCLIDEAN,
    RESTRICT_LINEAR,
    CertificateSearch,
    FloatUndecided,
    ObservationSet,
    _certificate_search,
    _observation_rows,
    certificate_lp,
    generate_dataset,
    rationalize,
    verify_certificate,
    verify_witness,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
ORIGIN = (0, 0, 0)

BLISS = ObservationSet(
    3,
    (),
    ((ORIGIN, E1), (ORIGIN, (-1, 0, 0)), (ORIGIN, E2), (ORIGIN, (0, -1, 0))),
)


def random_params(rng, n):
    while True:
        c = F(rng.randint(-20, 20), 20)
        d = tuple(F(rng.randint(-20, 20), 20) for _ in range(n))
        p = SphericalParams(c, d)
        if not p.is_zero:
            return p


def corrupt(rng, data):
    """Make a dataset unrationalizable: mirror a strict pair or inject a cycle."""
    if data.strict and rng.random() < 0.5:
        x, y = data.strict[rng.randrange(len(data.strict))]
        return ObservationSet(data.dimension, data.weak, data.strict + ((y, x),))
    n = data.dimension
    pts = [tuple(F(rng.randint(-8, 8), 4) for _ in range(n)) for _ in range(3)]
    cycle = ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))
    return ObservationSet(n, data.weak, data.strict + cycle)


def test_single_strict_pair_rationalizable():
    data = ObservationSet(3, (), ((E1, ORIGIN),))
    verdict = rationalize(data)
    assert verdict.rationalizable
    assert verify_witness(data, verdict.witness)
    assert verdict.certificate is None


def test_symmetric_pair_not_rationalizable():
    data = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    verdict = rationalize(data)
    assert not verdict.rationalizable
    assert verdict.certificate == {"strict:0": F(1, 2), "strict:1": F(1, 2)}
    assert verdict.p_mass == 1
    assert verify_certificate(data, verdict.certificate)


def test_strict_self_pair_not_rationalizable():
    data = ObservationSet(3, (), (((1, 2, 3), (1, 2, 3)),))
    verdict = rationalize(data)
    assert not verdict.rationalizable
    assert verify_certificate(data, verdict.certificate)


def test_bliss_point_dataset_forces_negative_quadratic():
    verdict = rationalize(BLISS)
    assert verdict.rationalizable
    assert verdict.witness.c < 0
    assert verify_witness(BLISS, verdict.witness)


def test_bliss_point_coarse_grid_oracle():
    # sign analysis over a coarse parameter grid: only c < 0 admits solutions
    grid = [F(k, 2) for k in range(-2, 3)]
    feasible_c = set()
    for c in grid:
        for u in itertools.product(grid, repeat=3):
            p = SphericalParams(c, u)
            if all(compare(p, x, y) is Ordering.BETTER for x, y in BLISS.strict):
                feasible_c.add(c)
    assert feasible_c and all(c < 0 for c in feasible_c)


def test_bliss_point_restrictions():
    linear = rationalize(BLISS, restriction=RESTRICT_LINEAR)
    assert not linear.rationalizable
    assert verify_certificate(BLISS, linear.certificate, RESTRICT_LINEAR, linear.restriction_weight)
    euclid = rationalize(BLISS, restriction=RESTRICT_EUCLIDEAN)
    assert euclid.rationalizable
    assert classify(euclid.witness).tag == "euclidean"
    assert classify(euclid.witness).center == (0, 0, 0)
    anti = rationalize(BLISS, restriction=RESTRICT_ANTI_EUCLIDEAN)
    assert not anti.rationalizable
    assert verify_certificate(BLISS, anti.certificate, RESTRICT_ANTI_EUCLIDEAN, anti.restriction_weight)


def test_restriction_is_not_lexicographic():
    # a single strict pair forces a large margin at the epsilon optimum, yet
    # a Euclidean witness still exists with a smaller margin; the restricted
    # question must answer yes
    data = ObservationSet(3, (), ((E1, ORIGIN),))
    verdict = rationalize(data, restriction=RESTRICT_EUCLIDEAN)
    assert verdict.rationalizable
    assert verdict.witness.c < 0
    assert verify_witness(data, verdict.witness)


def test_verify_certificate_rejects_each_broken_condition():
    # a real certificate passes; each edit breaks one condition and is rejected
    data = ObservationSet(3, ((E3, ORIGIN), (ORIGIN, E3)), ((E1, E2), (E2, E1)))
    cert = rationalize(data).certificate
    assert cert == {"strict:0": F(1, 2), "strict:1": F(1, 2)} and verify_certificate(data, cert)
    negative = {"weak:0": F(-1, 2), "weak:1": F(-1, 2), "strict:0": 1, "strict:1": 1}
    assert not verify_certificate(data, negative)
    assert not verify_certificate(data, {k: 2 * w for k, w in cert.items()})  # total mass 2
    assert not verify_certificate(data, {"weak:0": F(1, 2), "weak:1": F(1, 2)})  # no strict mass
    assert not verify_certificate(data, {"strict:0": 1})  # quad cancels, E1 - E2 does not
    # weights on labels that name no observation are not ignored
    assert not verify_certificate(data, {**cert, "strict:7": 3, "junk": -1})
    assert not verify_certificate(data, {**cert, "strict:2": 0})

    anti = rationalize(BLISS, restriction=RESTRICT_ANTI_EUCLIDEAN)
    assert anti.restriction_weight == F(1, 2)
    assert verify_certificate(BLISS, anti.certificate, RESTRICT_ANTI_EUCLIDEAN, F(1, 2))
    doubled = {k: 2 * w for k, w in anti.certificate.items()}  # mass 1, vectors cancel, quad -1
    assert not verify_certificate(BLISS, doubled)
    for wrong in (None, 0, F(1, 4), F(-1, 2)):
        assert not verify_certificate(BLISS, anti.certificate, RESTRICT_ANTI_EUCLIDEAN, wrong)
    assert not verify_certificate(BLISS, anti.certificate, RESTRICT_EUCLIDEAN, F(1, 2))  # quad is -mu, not mu

    outward = ObservationSet(3, (), tuple((v, ORIGIN) for v in (E1, (-1, 0, 0), E2, (0, -1, 0))))
    euclid = rationalize(outward, restriction=RESTRICT_EUCLIDEAN)
    assert verify_certificate(outward, euclid.certificate, RESTRICT_EUCLIDEAN, euclid.restriction_weight)
    for wrong in (None, 0, euclid.restriction_weight + F(1, 4), -euclid.restriction_weight):
        assert not verify_certificate(outward, euclid.certificate, RESTRICT_EUCLIDEAN, wrong)

    linear = rationalize(BLISS, restriction=RESTRICT_LINEAR)
    assert linear.restriction_weight is None
    assert verify_certificate(BLISS, linear.certificate, RESTRICT_LINEAR)
    assert not verify_certificate(BLISS, linear.certificate, RESTRICT_LINEAR, F(1, 2))
    # weak pairs that cancel, with the strict mass taken from a restriction weight
    # the linear search does not have: the data are rationalizable, by indifference
    ties = ObservationSet(3, ((E1, ORIGIN), (ORIGIN, E1)), ())
    assert rationalize(ties, restriction=RESTRICT_LINEAR).rationalizable
    assert not verify_certificate(ties, {"weak:0": F(1, 2), "weak:1": F(1, 2)}, RESTRICT_LINEAR, 1)
    # a negative restriction weight would certify Euclidean-rationalizable data
    x = (F(1, 2), F(1, 2), 0)
    bowl = ObservationSet(3, (), ((ORIGIN, x), (ORIGIN, tuple(-c for c in x))))
    assert rationalize(bowl, restriction=RESTRICT_EUCLIDEAN).rationalizable
    assert not verify_certificate(bowl, {"strict:0": 1, "strict:1": 1}, RESTRICT_EUCLIDEAN, -1)


@pytest.mark.parametrize("restriction", ["linaer", "Euclidean", "anti-euclidean"])
def test_unknown_restriction_is_an_error_everywhere(restriction):
    # a misspelt restriction is never read as no restriction: "linaer" would
    # accept this unrestricted certificate, "Euclidean" reject a valid one
    sym = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    outward = ObservationSet(3, (), tuple((v, ORIGIN) for v in (E1, (-1, 0, 0), E2, (0, -1, 0))))
    euclid = rationalize(outward, restriction=RESTRICT_EUCLIDEAN)
    for call in (
        lambda: rationalize(sym, restriction),
        lambda: _certificate_search(sym, _observation_rows(sym, EXACT), restriction, EXACT),
        lambda: verify_certificate(sym, {"strict:0": F(1, 2), "strict:1": F(1, 2)}, restriction),
        lambda: verify_certificate(outward, euclid.certificate, restriction, euclid.restriction_weight),
    ):
        with pytest.raises(ValueError, match="unknown restriction"):
            call()


def test_empty_data_rationalizable_under_all_restrictions():
    data = ObservationSet(3, (), ())
    for restriction in (None, RESTRICT_LINEAR, RESTRICT_EUCLIDEAN, RESTRICT_ANTI_EUCLIDEAN):
        assert rationalize(data, restriction).rationalizable


def test_weak_only_data_always_rationalizable():
    rng = random.Random(8)
    for _ in range(10):
        pairs = tuple(
            (tuple(F(rng.randint(-8, 8), 4) for _ in range(3)), tuple(F(rng.randint(-8, 8), 4) for _ in range(3)))
            for _ in range(6)
        )
        data = ObservationSet(3, pairs, ())
        assert rationalize(data).rationalizable


def test_certificate_lp_examples():
    sym = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    best = certificate_lp(sym)
    assert best.p_mass == 1
    assert best.weights == {"strict:0": F(1, 2), "strict:1": F(1, 2)}

    single = ObservationSet(3, (), ((E1, ORIGIN),))
    assert certificate_lp(single) == CertificateSearch(p_mass=0, weights=None)

    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    cycle = ObservationSet(3, (), ((a, b), (b, c), (c, a)))
    best = certificate_lp(cycle)
    assert best.p_mass == 1
    assert best.weights == {f"strict:{i}": F(1, 3) for i in range(3)}


def test_generate_dataset_validates_count():
    with pytest.raises(ValueError, match="count must be at least 1"):
        generate_dataset(SphericalParams(0, (1, 0, 0)), 0, rng_seed=1)


@pytest.mark.parametrize("count", [True, False, 2.5, 3.0, "3", None, F(3)])
def test_generate_dataset_refuses_a_count_that_is_not_an_int(count):
    # True once sampled one pair, and 2.5 raised a bare TypeError
    with pytest.raises(ValueError, match=re.escape(f"count must be an int, not {count!r}")):
        generate_dataset(SphericalParams(0, (1, 0, 0)), count, rng_seed=1)


@pytest.mark.parametrize("radius", [0, -1, math.nan, math.inf])
def test_generate_dataset_rejects_a_radius_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be a finite number > 0"):
        generate_dataset(SphericalParams(0, (1, 0, 0)), 5, rng_seed=1, radius=radius)


def test_generate_dataset_round_trip():
    rng = random.Random(17)
    for trial in range(15):
        n = rng.choice([2, 3, 4, 5])
        p = random_params(rng, n)
        data = generate_dataset(p, 40, rng_seed=trial)
        assert verify_witness(data, p)
        verdict = rationalize(data)
        assert verdict.rationalizable
        assert verify_witness(data, verdict.witness)


def test_generate_dataset_indifference_params():
    p = SphericalParams(0, (0, 0, 0))
    data = generate_dataset(p, 20, rng_seed=4)
    assert not data.strict
    assert len(data.weak) == 40  # both orientations of every tie
    assert rationalize(data).rationalizable


def test_generate_dataset_deterministic():
    p = SphericalParams(F(-1, 2), (F(1, 3), F(0), F(2, 5)))
    a = generate_dataset(p, 30, rng_seed=9, radius=1.5)
    b = generate_dataset(p, 30, rng_seed=9, radius=1.5)
    assert a == b


def test_primal_and_dual_routes_agree():
    rng = random.Random(123)
    for trial in range(40):
        n = rng.choice([3, 4])
        p = random_params(rng, n)
        data = generate_dataset(p, rng.randint(6, 14), rng_seed=trial * 3 + 1)
        if trial % 2:
            data = corrupt(rng, data)
        verdict = rationalize(data)
        search = certificate_lp(data)
        assert verdict.rationalizable == (search.p_mass == 0)
        if verdict.rationalizable:
            assert verify_witness(data, verdict.witness)
        else:
            assert verify_certificate(data, verdict.certificate)
            assert verify_certificate(data, search.weights)


def test_corruption_always_breaks_rationalizability():
    rng = random.Random(99)
    for trial in range(20):
        p = random_params(rng, 3)
        data = corrupt(rng, generate_dataset(p, 8, rng_seed=trial))
        assert not rationalize(data).rationalizable


def test_infeasibility_is_monotone_under_more_data():
    rng = random.Random(31)
    base = corrupt(rng, generate_dataset(random_params(rng, 3), 8, rng_seed=0))
    assert not rationalize(base).rationalizable
    extra = generate_dataset(random_params(rng, 3), 6, rng_seed=5)
    grown = ObservationSet(3, base.weak + extra.weak, base.strict + extra.strict)
    verdict = rationalize(grown)
    assert not verdict.rationalizable
    # the old certificate remains valid on the grown dataset: the new pairs
    # simply carry zero weight
    assert verify_certificate(grown, rationalize(base).certificate)


def test_float_mode_agrees_on_separated_instances():
    rng = random.Random(55)
    checked = 0
    for trial in range(20):
        p = random_params(rng, 3)
        data = generate_dataset(p, 10, rng_seed=trial)
        if trial % 2:
            data = corrupt(rng, data)
        exact = rationalize(data, mode=EXACT)
        if exact.epsilon is not None and 0 < abs(exact.epsilon) < F(1, 10**6):
            continue
        approx = rationalize(data, mode=FLOAT)
        assert approx.rationalizable == exact.rationalizable
        checked += 1
    assert checked >= 15


def test_row_generation_matches_direct_solve():
    # same LP solved monolithically and via row generation: identical verdict
    # and margin (the witness vertex may differ only if the optimum is tied)
    import spherepref.rationalize as rat

    rng = random.Random(1001)
    p = random_params(rng, 3)
    data = generate_dataset(p, 200, rng_seed=3)
    assert len(data) > rat._ROWGEN_THRESHOLD
    via_rowgen = rationalize(data)
    old = rat._ROWGEN_THRESHOLD
    rat._ROWGEN_THRESHOLD = 10**9
    try:
        direct = rationalize(data)
    finally:
        rat._ROWGEN_THRESHOLD = old
    assert via_rowgen.rationalizable == direct.rationalizable
    assert via_rowgen.epsilon == direct.epsilon
    assert verify_witness(data, via_rowgen.witness)


def test_low_dimension_note():
    data = ObservationSet(2, (), (((1, 0), (0, 0)),))
    verdict = rationalize(data)
    assert verdict.rationalizable
    assert verdict.note is not None and "n >= 3" in verdict.note
    assert rationalize(ObservationSet(3, (), (((1, 0, 0), (0, 0, 0)),))).note is None


def test_dataset_json_round_trip():
    data = ObservationSet(
        2,
        (((F(1, 2), 0), (1, 1)),),
        (((0, 0), (F(-3, 4), 2)),),
    )
    doc = data.to_dict()
    assert doc["dimension"] == 2
    assert doc["weak"] == [{"better": ["1/2", 0], "worse": [1, 1]}]
    assert ObservationSet.from_dict(doc) == data


def _entrywise(doc):
    """The weak and strict pairs of ``doc`` parsed entry by entry, as
    :func:`scalar_from_json` parses each entry on its own."""
    def vec(v):
        return tuple(scalar_from_json(c) for c in v)

    return [tuple((vec(p["better"]), vec(p["worse"])) for p in doc[key]) for key in ("weak", "strict")]


def _error(parse, doc):
    with pytest.raises(ValueError) as info:
        parse(doc)
    return str(info.value)


def _grid_document(rng, n, pairs, scalars):
    """A dataset document of ``pairs`` weak and strict pairs whose entries
    are drawn from ``scalars``."""
    def pair():
        return {side: [rng.choice(scalars) for _ in range(n)] for side in ("better", "worse")}

    return {"dimension": n, "weak": [pair() for _ in range(pairs)], "strict": [pair() for _ in range(pairs)]}


def test_a_document_parses_each_distinct_string_once(monkeypatch):
    # a 1/8 grid repeats a few dozen strings; each is parsed once per
    # document, into the value and type that parsing it alone gives
    import spherepref.formats as formats

    calls = []
    parse_one = formats.scalar_from_json
    monkeypatch.setattr(formats, "scalar_from_json", lambda v: calls.append(v) or parse_one(v))
    grid = [f"{k}/8" for k in range(-16, 17) if k % 8] + ["1/2", "-0/3", "0/1"]
    doc = _grid_document(random.Random(8), 4, 40, grid + [0, 1, -2])
    data = ObservationSet.from_dict(doc)
    assert repr([data.weak, data.strict]) == repr(_entrywise(doc))
    strings = [c for key in ("weak", "strict") for p in doc[key] for v in p.values() for c in v if type(c) is str]
    ints = sum(len(v) for key in ("weak", "strict") for p in doc[key] for v in p.values()) - len(strings)
    assert len(calls) - ints == len(set(strings)) < len(strings) / 10
    ObservationSet.from_dict(doc)  # a new document: nothing is kept from the last one
    assert len(calls) - 2 * ints == 2 * len(set(strings))


def test_a_document_keeps_the_type_of_every_entry():
    # ints, floats and "p/q" strings with equal values, -0.0 and huge
    # numbers, repeated in one document, parse as they do alone
    scalars = [1, 1.0, "1/1", 0, 0.0, -0.0, "0/5", "-0/3", "3/6", "1/2", 0.5, 2**70, 1e300, "-7/1"]
    doc = _grid_document(random.Random(9), 3, 30, scalars)
    data = ObservationSet.from_dict(doc)
    assert repr([data.weak, data.strict]) == repr(_entrywise(doc))
    assert {type(c) for x, y in data.weak + data.strict for c in x + y} == {int, float, F}


@pytest.mark.parametrize("bad", [True, False, "1/0", "x/2", "1/2/3", " 1/2", 2.5j, [1], {"p": 1}, None])
@pytest.mark.parametrize("where", [(0, 0), (3, 1), (7, 2)])
def test_a_bad_entry_is_refused_where_it_first_appears_and_where_it_repeats(bad, where):
    # the message is the one parsing the entry alone gives, whatever the
    # document parsed before it, and booleans stay refused after 1 and 0
    from spherepref.formats import vec_parser

    doc = _grid_document(random.Random(10), 3, 8, [1, 0, "1/2", "-3/4", 1.0])
    p, i = where
    doc["strict"][p]["worse"][i] = bad
    want = _error(scalar_from_json, bad)
    assert _error(ObservationSet.from_dict, doc) == want
    doc["weak"][p]["better"][i] = bad  # now first in the weak pairs, repeated in the strict ones
    assert _error(ObservationSet.from_dict, doc) == want
    parse = vec_parser()
    assert _error(parse, ["1/2", 1, bad]) == want
    assert _error(parse, [bad]) == want  # again, with the same parser


def test_dataset_rejects_mismatched_dimension():
    with pytest.raises(DimensionMismatch):
        ObservationSet(3, (((1, 0), (0, 1)),), ())


def test_verdict_json_round_trip():
    data = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    doc = rationalize(data).to_dict()
    assert doc["rationalizable"] is False
    assert doc["certificate"] == {"strict:0": "1/2", "strict:1": "1/2"}
    assert doc["p_mass"] == 1


# JSON-parsed coordinates: ints, "p/q" strings and finite floats of any size
coordinates = st.one_of(
    st.integers(-(10**200), 10**200),
    st.builds(lambda p, q: scalar_from_json(f"{p}/{q}"), st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def observation_pairs(draw):
    n = draw(st.integers(1, 4))
    x = tuple(draw(coordinates) for _ in range(n))
    y = x if draw(st.booleans()) else tuple(draw(coordinates) for _ in range(n))
    return x, y


@given(observation_pairs(), st.booleans())
@example(((10**200, 0), (0, 0)), True)
@example(((F(10**200, 3), 1), (F(1, 3), 1)), False)
@example(((0.1, 2**-1074), (0.1, 5)), True)
def test_integer_rows_match_the_fraction_reference(pair, strict):
    import spherepref.rationalize as rat
    from spherepref.geometry import pair_ints

    x, y = pair
    q, v = rat._pair_row(tuple(map(F, x)), tuple(map(F, y)))
    L, Q, V = pair_ints(x, y)
    assert L > 0 and (F(Q, L * L),) + tuple(F(c, L) for c in V) == (q,) + v
    # float mode rounds each exact entry once, or says it cannot
    if not any(isinstance(c, float) for c in x + y):
        data = ObservationSet(len(x), (), ((x, y),))
        try:
            want = [(1, float(q), tuple(map(float, v)))]
        except OverflowError:
            with pytest.raises(rat.FloatUndecided):
                rat._observation_rows(data, FLOAT)
        else:
            assert rat._observation_rows(data, FLOAT) == want
    # the exact margin LP row is a primitive positive multiple of the reference
    reference = (q,) + v + (-1 if strict else 0,)
    row = rat._margin_row((L, Q, V), strict, exact=True)
    assert all(type(c) is int for c in row) and len(row) == len(reference)
    nonzero = [(c, r) for c, r in zip(row, reference) if r]
    if not nonzero:
        assert not any(row)
        return
    t = F(nonzero[0][0]) / nonzero[0][1]
    assert t > 0 and row == tuple(t * r for r in reference)
    assert math.gcd(*row) == 1


def golden_datasets():
    """The (data, restriction) pairs of test_golden_verdicts: generated and
    corrupted data for n = 3..5 under every restriction, then one dataset
    large enough for the margin LP to run row generation and its corruption."""
    rng = random.Random(2024)
    datasets = []
    for n in (3, 4, 5):
        for restriction in (None, RESTRICT_LINEAR, RESTRICT_EUCLIDEAN, RESTRICT_ANTI_EUCLIDEAN):
            data = generate_dataset(random_params(rng, n), rng.randint(8, 16), rng_seed=len(datasets))
            datasets.append((data, restriction))
            datasets.append((corrupt(rng, data), restriction))
    big = generate_dataset(random_params(rng, 3), 130, rng_seed=11)
    return datasets + [(big, None), (corrupt(rng, big), None)]


# The pins of test_golden_verdicts, by mode; tests/lp_golden_digests.py
# --check compares with them too.
GOLDEN_VERDICT_DIGESTS = {
    EXACT: "5d7dd64cb608af38a7e6721166dc0efbba85864045562019c24948eea3c6768d",
    FLOAT: "0bd4b514100439cefe0ef6acf08c2da6a2c4d4d3a3886d376c82a816d0675c25",
}


def test_golden_verdicts():
    # pinned verdict documents, exact and float, on golden_datasets()
    import spherepref.rationalize as rat

    datasets = golden_datasets()
    assert len(datasets[-2][0]) > rat._ROWGEN_THRESHOLD
    exact = [rationalize(data, restriction) for data, restriction in datasets]
    assert "".join("1" if v.rationalizable else "0" for v in exact) == "10001000101010001010101010"
    digest = hashlib.sha256("".join(dumps(v.to_dict()) for v in exact).encode()).hexdigest()
    assert digest == GOLDEN_VERDICT_DIGESTS[EXACT]
    approx = "".join(dumps(rationalize(data, restriction, mode=FLOAT).to_dict()) for data, restriction in datasets)
    assert hashlib.sha256(approx.encode()).hexdigest() == GOLDEN_VERDICT_DIGESTS[FLOAT]


def mixed_coordinate_documents():
    """Dataset documents whose coordinates are JSON floats (dyadic, short
    decimals and full-precision draws), or mixed int/float/"p/q", oriented
    by exact spherical parameters; some repeat a point or mirror a pair."""
    rng = random.Random(4242)

    def coord(kind):
        if kind == "float":
            return rng.choice((rng.randint(-40, 40) / 16, round(rng.uniform(-2, 2), 3), rng.uniform(-2, 2)))
        if kind == "int":
            return rng.randint(-3, 3)
        return f"{rng.randint(-12, 12)}/{rng.randint(1, 7)}"

    docs = []
    for t in range(24):
        n = 3 + t % 3
        kinds = ("float",) if t % 2 == 0 else ("float", "int", "ratio")
        p = random_params(rng, n)
        weak, strict = [], []
        for _ in range(rng.randint(6, 12)):
            x = [coord(rng.choice(kinds)) for _ in range(n)]
            y = list(x) if rng.random() < 0.1 else [coord(rng.choice(kinds)) for _ in range(n)]
            order = compare(p, tuple(F(c) for c in x), tuple(F(c) for c in y))
            if order is Ordering.BETTER:
                strict.append({"better": x, "worse": y})
            elif order is Ordering.WORSE:
                strict.append({"better": y, "worse": x})
            else:
                weak.append({"better": x, "worse": y})
        if t % 4 >= 2 and strict:
            strict.append({"better": strict[0]["worse"], "worse": strict[0]["better"]})
        docs.append(({"dimension": n, "weak": weak, "strict": strict}, (None, RESTRICT_LINEAR, RESTRICT_EUCLIDEAN, RESTRICT_ANTI_EUCLIDEAN)[t % 4]))
    return docs


def test_golden_verdicts_on_float_and_mixed_coordinates():
    # pinned verdict documents, exact and float, on parsed JSON data whose
    # coordinates are floats or a mix of ints, floats and "p/q" strings
    datasets = [
        (ObservationSet.from_dict(json.loads(json.dumps(doc))), restriction)
        for doc, restriction in mixed_coordinate_documents()
    ]
    exact = [rationalize(data, restriction) for data, restriction in datasets]
    assert "".join("1" if v.rationalizable else "0" for v in exact) == "110011001000110011001100"
    digest = hashlib.sha256("".join(dumps(v.to_dict()) for v in exact).encode()).hexdigest()
    assert digest == "8bd75b2762d321f415c2277ca8dd90f13e839ed2fc2d1710c491d1a9c157b83f"
    approx = "".join(dumps(rationalize(data, restriction, mode=FLOAT).to_dict()) for data, restriction in datasets)
    assert hashlib.sha256(approx.encode()).hexdigest() == "e9dd0e81e1c1364b2c0598d2f3093c5c3a0e3c8a333154cde28e3316017674c3"


# verify_witness before the integer re-check, kept verbatim as the reference
# (with utility's old formula inlined)
def reference_verify_witness(data, params):
    def u(p, x):
        return p.c * dot(x, x) + dot(p.d, x)

    data = data.to_exact()
    p = SphericalParams(F(params.c), tuple(F(v) for v in params.d))
    for x, y in data.weak:
        if u(p, x) - u(p, y) < 0:
            return False
    for x, y in data.strict:
        if u(p, x) - u(p, y) <= 0:
            return False
    return True


witness_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(-100, 100, max_denominator=1000),
    st.floats(-1e3, 1e3),
    st.sampled_from([0, 0.0, -0.0, 0.1]),
)


@st.composite
def witness_cases(draw):
    """Parameters and int/Fraction/float/mixed pairs, five in six oriented by
    the parameters' exact utility gap (ties weak), so both answers come up."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[witness_entries] * n)
    c, *d = draw(st.tuples(*[witness_entries] * (n + 1)))
    weak, strict = [], []
    for x, y in draw(st.lists(st.tuples(vec, vec), max_size=8)):
        X, Y = tuple(map(F, x)), tuple(map(F, y))
        gap = F(c) * (dot(X, X) - dot(Y, Y)) + dot(tuple(map(F, d)), tuple(a - b for a, b in zip(X, Y)))
        if not draw(st.integers(0, 5)):
            (weak if draw(st.booleans()) else strict).append((x, y))
        elif gap == 0:
            weak.append((x, y))
        else:
            strict.append((x, y) if gap > 0 else (y, x))
    return ObservationSet(n, weak, strict), SphericalParams(c, d)


@settings(max_examples=200)
@given(witness_cases())
@example((ObservationSet(2, [((0.1, F(1, 3)), (0.1, F(1, 3)))], [((1, 0.5), (0, 0))]), SphericalParams(-0.3, (1, 0))))
@example((ObservationSet(1, [], [((1,), (0,))]), SphericalParams(F(1, 2), (0.0,))))
def test_verify_witness_matches_the_fraction_reference(case):
    data, params = case
    assert verify_witness(data, params) is reference_verify_witness(data, params)


def test_verify_witness_checks_the_dimension():
    data = ObservationSet(2, [((1, 0), (0, 1))], [])
    with pytest.raises(DimensionMismatch):
        verify_witness(data, SphericalParams(1, (1, 2, 3)))
    assert verify_witness(ObservationSet(2, [], []), SphericalParams(1, (1, 2, 3)))


@pytest.mark.parametrize("dimension", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "10**400"])
def test_dataset_rejects_a_dimension_above_maxsize(dimension):
    # such a dimension overflowed later, in the witness or the box rows
    with pytest.raises(ValueError, match='"dimension"'):
        ObservationSet.from_dict({"dimension": dimension, "weak": [], "strict": []})
    assert ObservationSet.from_dict({"dimension": sys.maxsize, "weak": [], "strict": []}).dimension == sys.maxsize


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verifiers_reject_non_finite_floats(bad):
    # Fraction() raised ValueError or OverflowError on these
    data = ObservationSet(3, (), ((E1, ORIGIN),))
    assert verify_witness(data, SphericalParams(0, E1))
    assert not verify_witness(data, SphericalParams(bad, E1))
    assert not verify_witness(data, SphericalParams(0, (1, bad, 0)))
    sym = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    assert verify_certificate(sym, {"strict:0": F(1, 2), "strict:1": F(1, 2)})
    assert not verify_certificate(sym, {"strict:0": F(1, 2), "strict:1": bad})
    outward = ObservationSet(3, (), tuple((v, ORIGIN) for v in (E1, (-1, 0, 0), E2, (0, -1, 0))))
    euclid = rationalize(outward, restriction=RESTRICT_EUCLIDEAN)
    assert verify_certificate(outward, euclid.certificate, RESTRICT_EUCLIDEAN, euclid.restriction_weight)
    assert not verify_certificate(outward, euclid.certificate, RESTRICT_EUCLIDEAN, bad)


def pad(data, positions):
    """data with a zero coordinate at each of the sorted ``positions`` of the padded points."""

    def widen(v):
        v = list(v)
        for j in positions:
            v.insert(j, 0)
        return tuple(v)

    return ObservationSet(
        data.dimension + len(positions),
        tuple((widen(x), widen(y)) for x, y in data.weak),
        tuple((widen(x), widen(y)) for x, y in data.strict),
    )


@st.composite
def padded_datasets(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.builds(F, st.integers(-3, 3), st.integers(1, 2))] * n)
    pairs = draw(st.lists(st.tuples(vec, vec), max_size=6))
    nweak = draw(st.integers(0, len(pairs)))
    extra = draw(st.integers(1, 3))
    positions = sorted(draw(st.sets(st.integers(0, n + extra - 1), min_size=extra, max_size=extra)))
    return ObservationSet(n, pairs[:nweak], pairs[nweak:]), positions


def outcome(data, restriction, mode):
    try:
        return rationalize(data, restriction, mode=mode)
    except FloatUndecided as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    padded_datasets(),
    st.sampled_from([None, RESTRICT_LINEAR, RESTRICT_EUCLIDEAN, RESTRICT_ANTI_EUCLIDEAN]),
    st.sampled_from([EXACT, FLOAT]),
)
def test_inert_coordinates_leave_the_verdict_alone(case, restriction, mode):
    # a coordinate no pair moves is dropped from both LPs and is zero in the witness
    data, positions = case
    padded = pad(data, positions)
    want, got = outcome(data, restriction, mode), outcome(padded, restriction, mode)
    if isinstance(want, str):
        assert got == want
        return
    fields = ("rationalizable", "epsilon", "certificate", "p_mass", "restriction_weight")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    if want.rationalizable:
        zero = F(0) if mode == EXACT else 0.0
        assert got.witness.c == want.witness.c
        assert [v for j, v in enumerate(got.witness.d) if j not in positions] == list(want.witness.d)
        assert all(type(got.witness.d[j]) is type(zero) and got.witness.d[j] == zero for j in positions)
        assert mode != EXACT or verify_witness(padded, got.witness)
    else:
        assert mode != EXACT or verify_certificate(padded, got.certificate, restriction, got.restriction_weight)
    assert certificate_lp(padded, mode) == certificate_lp(data, mode)


def test_lp_sizes_do_not_grow_with_padding(monkeypatch):
    import spherepref.lp as lp

    shapes = []
    solve = lp.solve

    def recording(program, mode=EXACT):
        shapes.append((len(program.objective), len(program.constraints)))
        return solve(program, mode=mode)

    monkeypatch.setattr(lp, "solve", recording)
    sym = ObservationSet(2, (), (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    for data in (sym, pad(sym, [0, 3, 4]), pad(sym, list(range(2, 400)))):
        shapes.clear()
        assert not rationalize(data).rationalizable
        # the margin LP's variables are c, u1, u2 and eps; the certificate
        # LP's rows are the total mass and the x.x, x1 and x2 cancellations
        assert shapes == [(4, 2), (2, 4)]


def test_row_generation_starts_only_above_the_threshold(monkeypatch):
    import spherepref.lp as lp
    import spherepref.rationalize as rat

    sizes = []
    solve = lp.solve

    def recording(program, mode=EXACT):
        sizes.append(len(program.constraints))
        return solve(program, mode=mode)

    monkeypatch.setattr(lp, "solve", recording)
    p = random_params(random.Random(1001), 3)
    big = generate_dataset(p, 200, rng_seed=3)
    assert len(big.strict) >= rat._ROWGEN_THRESHOLD
    edge = ObservationSet(3, (), big.strict[: rat._ROWGEN_THRESHOLD])
    small = generate_dataset(p, 30, rng_seed=4)
    for data in (small, edge):
        sizes.clear()
        assert rationalize(data).rationalizable
        assert sizes == [len(data)]
    sizes.clear()
    assert rationalize(big).rationalizable
    assert sizes[0] == rat._ROWGEN_INITIAL and len(sizes) > 1


@pytest.mark.parametrize("margin", [-1, -1e-12, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_float_margin_must_be_finite_and_nonnegative(margin, mode):
    # a negative margin once accepted the zero witness on a strict 2-cycle
    cycle = ObservationSet(3, (), ((E1, E2), (E2, E1)))
    with pytest.raises(ValueError, match="float_margin"):
        rationalize(cycle, mode=mode, float_margin=margin)
    assert not rationalize(cycle, mode=FLOAT, float_margin=0).rationalizable


def test_margin_lp_stores_one_column_per_variable(monkeypatch):
    # c, u_1..u_n and eps: n + 2 stored columns at every pivot, where two
    # columns per free variable would store 2n + 3 (2n + 2 under linear)
    import spherepref.lp as lp

    margin = []
    solve = lp.solve

    def recording(program, mode=EXACT):
        out = solve(program, mode=mode)
        if program.bounds[-1] == (0, 1):  # eps in [0, 1]: the margin LP
            margin.append(out.stats)
        return out

    monkeypatch.setattr(lp, "solve", recording)
    rng = random.Random(4242)
    for trial in range(24):
        n = 3 + trial % 3
        data = generate_dataset(random_params(rng, n), 12, rng_seed=trial)
        if trial % 2:
            data = corrupt(rng, data)
        moved = sum(any(x[j] != y[j] for x, y in data.weak + data.strict) for j in range(n))
        restriction = (None, RESTRICT_LINEAR, RESTRICT_EUCLIDEAN, RESTRICT_ANTI_EUCLIDEAN)[trial % 4]
        for mode in (EXACT, FLOAT):
            margin.clear()
            rationalize(data, restriction, mode=mode)
            assert margin and all(s.columns == moved + 2 for s in margin)
            assert sum(s.phase1_pivots + s.phase2_pivots for s in margin) > 0


@pytest.mark.parametrize("mode", ["Exact", "float ", None])
def test_a_mistyped_mode_is_refused_before_any_arithmetic(mode):
    # the square of 1e200 overflows a float: "Exact" was taken for float mode
    # and answered FloatUndecided, "use exact mode (--exact)"
    data = ObservationSet(2, (), (((1e200, 0), (0, 0)),))
    for call in (lambda: rationalize(data, mode=mode), lambda: certificate_lp(data, mode=mode)):
        with pytest.raises(ValueError, match=re.escape(f"unknown arithmetic mode: {mode!r}")) as info:
            call()
        assert not isinstance(info.value, FloatUndecided)


@pytest.mark.parametrize("doc, field", [
    ({}, "dimension"),
    ({"weak": [], "strict": []}, "dimension"),
    ({"dimension": 2, "strict": [{"better": [1, 0]}]}, "worse"),
    ({"dimension": 2, "weak": [{"worse": [1, 0]}]}, "better"),
])
def test_a_missing_dataset_field_is_named(doc, field):
    # these were KeyErrors, printed by the CLI as error: 'worse'
    with pytest.raises(ValueError, match=re.escape(f'missing field "{field}"')):
        ObservationSet.from_dict(doc)
