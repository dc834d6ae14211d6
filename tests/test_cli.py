import contextlib
import hashlib
import io
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spherepref.cli import main
from spherepref.formats import scalar_from_json
from spherepref.rationalize import ObservationSet, verify_certificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def linear_params(tmp_path):
    return write(tmp_path, "linear.json", {"c": 0, "d": [1, 0, 0]})


@pytest.fixture
def euclid_params(tmp_path):
    return write(tmp_path, "euclid.json", {"c": -1, "d": [2, 0, 0]})


@pytest.fixture
def bliss_dataset(tmp_path):
    strict = [
        {"better": [0, 0, 0], "worse": [1, 0, 0]},
        {"better": [0, 0, 0], "worse": [-1, 0, 0]},
        {"better": [0, 0, 0], "worse": [0, 1, 0]},
        {"better": [0, 0, 0], "worse": [0, -1, 0]},
    ]
    return write(tmp_path, "bliss.json", {"dimension": 3, "weak": [], "strict": strict})


def test_classify_linear(capsys, linear_params):
    code, out, _ = run(capsys, "classify", linear_params)
    assert code == 0
    assert json.loads(out) == {"class": "linear", "u": [1, 0, 0]}


def test_classify_euclidean(capsys, euclid_params):
    code, out, _ = run(capsys, "classify", euclid_params)
    assert code == 0
    assert json.loads(out) == {"class": "euclidean", "center": [1, 0, 0]}


def test_classify_indifference(capsys, tmp_path):
    path = write(tmp_path, "ind.json", {"c": 0, "d": [0, 0, 0]})
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert json.loads(out) == {"class": "indifference"}


def test_classify_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "error" in err


def test_rationalize_negative_verdict_exit_one(capsys, tmp_path):
    data = {
        "dimension": 3,
        "weak": [],
        "strict": [
            {"better": [1, 0, 0], "worse": [0, 1, 0]},
            {"better": [0, 1, 0], "worse": [1, 0, 0]},
        ],
    }
    path = write(tmp_path, "sym.json", data)
    code, out, _ = run(capsys, "rationalize", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["rationalizable"] is False
    assert doc["certificate"] == {"strict:0": "1/2", "strict:1": "1/2"}


def test_generate_then_rationalize_exit_zero(capsys, euclid_params, tmp_path):
    code, out, _ = run(capsys, "generate", euclid_params, "--count", "20", "--seed", "5")
    assert code == 0
    path = tmp_path / "data.json"
    path.write_text(out)
    code, out, _ = run(capsys, "rationalize", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["rationalizable"] is True
    assert "witness" in doc


def test_rationalize_restrictions_on_bliss_dataset(capsys, bliss_dataset):
    code, out, _ = run(capsys, "rationalize", bliss_dataset)
    assert code == 0
    code, out, _ = run(capsys, "rationalize", bliss_dataset, "--restrict", "linear")
    assert code == 1
    assert json.loads(out)["rationalizable"] is False
    code, out, _ = run(capsys, "rationalize", bliss_dataset, "--restrict", "euclidean")
    assert code == 0
    code, _, _ = run(capsys, "rationalize", bliss_dataset, "--restrict", "anti-euclidean")
    assert code == 1


def test_generate_deterministic_bytes(capsys, euclid_params):
    _, first, _ = run(capsys, "generate", euclid_params, "--count", "30", "--seed", "9")
    _, second, _ = run(capsys, "generate", euclid_params, "--count", "30", "--seed", "9")
    assert first == second
    _, third, _ = run(capsys, "generate", euclid_params, "--count", "30", "--seed", "10")
    assert third != first


# Pinned documents of the commands that draw from the sampling box: the
# probe grid of decompose and the pairs of generate.
DECOMPOSE_CUBIC_DIGEST = "d611a4f90237e9b435219432634878d3fbe438ea56a5ce11b0a9545e796f3e7f"
GENERATE_DIGEST = "5e8887424ade68e9bc9c6d596d0f2d3506717e2377922582a9c22855ad0fcb21"


def test_decompose_cubic_documents_are_pinned(capsys):
    runs = [run(capsys, "decompose", "cubic1", "--dim", str(dim)) for dim in range(1, 7)]
    assert [code for code, _, _ in runs] == [1] * 6
    assert hashlib.sha256("".join(out for _, out, _ in runs).encode()).hexdigest() == DECOMPOSE_CUBIC_DIGEST


def test_generate_documents_are_pinned(capsys, tmp_path):
    files = [write(tmp_path, f"params{i}.json", doc) for i, doc in enumerate([
        {"c": -1, "d": [2, 0, 0]},
        {"c": "1/3", "d": ["-1/2", 0, 1, "2/7"]},
        {"c": 0, "d": [1, -1]},
        {"c": 0.75, "d": [0.5, -0.25, 1.5]},
    ])]
    outs = []
    for path in files:
        for seed in ("0", "9"):
            for radius in ("2", "0.01", "7.3"):
                code, out, _ = run(capsys, "generate", path, "--count", "25", "--seed", seed, "--radius", radius)
                assert code == 0
                outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == GENERATE_DIGEST


def test_generate_indifference_dataset_weak_only(capsys, tmp_path):
    path = write(tmp_path, "ind.json", {"c": 0, "d": [0, 0, 0]})
    code, out, _ = run(capsys, "generate", path, "--count", "10", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["strict"] == []
    assert len(doc["weak"]) == 20


def test_check_axioms_spherical_pass(capsys, euclid_params):
    code, out, _ = run(capsys, "check-axioms", euclid_params, "--trials", "300", "--seed", "4")
    assert code == 0
    reports = json.loads(out)
    assert [r["axiom"] for r in reports] == ["oioi", "perp_diff", "soioi", "homotheticity"]
    assert all(r["violations"] == 0 for r in reports)


def test_check_axioms_builtin_cubic_fails(capsys):
    code, out, _ = run(capsys, "check-axioms", "cubic1", "--trials", "400", "--seed", "1")
    assert code == 1
    reports = json.loads(out)
    assert any(r["violations"] > 0 for r in reports)
    flagged = [r for r in reports if r["violations"]]
    assert all(r["counterexample"] for r in flagged)


def test_check_axioms_usage_errors(capsys, euclid_params):
    code, _, err = run(capsys, "check-axioms", euclid_params, "--trials", "0")
    assert code == 2 and "trials" in err
    code, _, err = run(capsys, "check-axioms", euclid_params, "--exact", "--tol", "1e-6")
    assert code == 2 and "tolerance" in err


def test_rationalize_rejects_tol_in_exact_mode(capsys, bliss_dataset):
    code, _, err = run(capsys, "rationalize", bliss_dataset, "--tol", "1e-9")
    assert code == 2 and "tolerance" in err


def test_decompose_coefficient_file(capsys, tmp_path):
    path = write(tmp_path, "oracle.json", {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [1, 2, 3]})
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert doc["g"] == [1, 2, 3]
    assert doc["residual"] == 0


def test_decompose_cross_term_file(capsys, tmp_path):
    path = write(
        tmp_path,
        "cross.json",
        {"A": [[0, "1/2", 0], ["1/2", 0, 0], [0, 0, 0]], "b": [0, 0, 0]},
    )
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    assert json.loads(out)["S"][0][1] == "1/2"


def test_decompose_builtin_cubic_rejected(capsys):
    code, out, _ = run(capsys, "decompose", "cubic1", "--dim", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "not_quadratic_linear"
    assert doc["residual"] > doc["threshold"]


def test_decompose_builtin_cubic_rejects_dimension_zero(capsys):
    code, out, err = run(capsys, "decompose", "cubic1", "--dim", "0")
    assert code == 2
    assert out == ""
    assert "dimension" in err


@pytest.mark.parametrize("command", ["decompose", "check-axioms"])
@pytest.mark.parametrize("dim", [str(sys.maxsize + 1), str(10**400), "-1"])
def test_dimension_outside_one_to_maxsize_exits_two(capsys, command, dim):
    # decompose raised OverflowError with a traceback, exit 1, for 2**63; past
    # sys.maxsize check-axioms built sample vectors without bound
    code, out, err = run(capsys, command, "cubic1", "--dim", dim)
    assert (code, out) == (2, "")
    assert "dimension must be an integer from 1 to" in err and "Traceback" not in err


def test_unusable_numbers_exit_two(capsys, tmp_path):
    # a zero denominator and non-finite floats are unusable input, not a verdict
    for command, doc in (
        ("classify", {"c": "1/0", "d": [1, 0, 0]}),
        ("classify", {"c": float("nan"), "d": [1, 0, 0]}),
        ("generate", {"c": float("inf"), "d": [1, 0, 0]}),
    ):
        code, out, err = run(capsys, command, write(tmp_path, "bad.json", doc))
        assert code == 2, (command, doc)
        assert out == ""
        assert err.startswith("error:")


LAX_SCALARS = ["1/", "3", "1_0/3", " 1/2", "+1/2", "1/-2", "\u0661/2"]
SCALAR_DOCS = {  # a document of each subcommand that reads scalars, with s in one spot
    "classify": lambda s: {"c": s, "d": [1, 0, 0]},
    "rationalize": lambda s: {"dimension": 3, "weak": [], "strict": [{"better": [s, 0, 0], "worse": [0, 0, 0]}]},
    "check-axioms": lambda s: {"c": -1, "d": [2, s, 0]},
    "decompose": lambda s: {"A": [[1, 0], [0, 1]], "b": [0, s]},
    "generate": lambda s: {"c": -1, "d": [s, 0, 0]},
}


@pytest.mark.parametrize("command", sorted(SCALAR_DOCS))
def test_scalar_strings_other_than_p_over_q_exit_two(capsys, tmp_path, command):
    # int() let these through: "1/" read as 1, "3" as 3, "1_0/3" as 10/3 and
    # " 1/2" as 1/2; a scalar string is -?digits/digits in ASCII, nothing else
    for bad in LAX_SCALARS:
        code, out, err = run(capsys, command, write(tmp_path, "bad.json", SCALAR_DOCS[command](bad)))
        assert (code, out) == (2, ""), (command, bad)
        assert err.startswith("error:") and repr(bad) in err
    code, _, _ = run(capsys, command, write(tmp_path, "good.json", SCALAR_DOCS[command]("-1/2")))
    assert code in (0, 1)


def test_rationalize_float_undecided_exits_two(capsys, tmp_path):
    # 1e308 squared overflows, so float mode cannot decide; that is not a
    # verdict, while exact mode still decides the same file
    path = write(tmp_path, "huge.json", {"dimension": 3, "weak": [], "strict": [
        {"better": [1e308, 0, 0], "worse": [0, 0, 0]},
        {"better": [0, 1, 0], "worse": [0, 0, 0]}]})
    code, out, err = run(capsys, "rationalize", "--float", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--exact" in err
    code, out, _ = run(capsys, "rationalize", "--exact", path)
    assert code == 0
    assert json.loads(out)["rationalizable"] is True


def test_rationalize_float_overflowing_squares_exit_two(capsys, tmp_path):
    # an exact coordinate whose square overflows a float cannot be decided
    # in float mode; that is not a negative verdict, and exact mode decides it
    for big in (10**200, f"{10**200}/3"):
        path = write(tmp_path, "big.json", {"dimension": 3, "weak": [], "strict": [
            {"better": [big, 0, 0], "worse": [0, 0, 0]},
            {"better": [0, 1, 0], "worse": [0, 0, 0]}]})
        code, out, err = run(capsys, "rationalize", "--float", path)
        assert code == 2, big
        assert out == ""
        assert err.startswith("error:") and "--exact" in err
        code, out, _ = run(capsys, "rationalize", "--exact", path)
        assert code == 0
        assert json.loads(out)["rationalizable"] is True


@pytest.mark.parametrize("doc", [
    {"dimension": 1, "weak": [], "strict": [{"better": [1e200], "worse": [0]}]},
    {"dimension": 3, "weak": [{"better": [1e200, 0, 0], "worse": [0, 0, 0]}],
     "strict": [{"better": [1, 0, 0], "worse": [0, 1, 1]}]},
])
def test_rationalize_float_squares_overflowing_to_inf_exit_two(capsys, tmp_path, doc):
    # a float coordinate's square overflows to inf without raising; float mode
    # says so instead of blaming the LP or deciding on an infinite row
    path = write(tmp_path, "inf.json", doc)
    code, out, err = run(capsys, "rationalize", "--float", path)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "overflows a float" in err and "--exact" in err
    code, out, _ = run(capsys, "rationalize", "--exact", path)
    assert code == 0
    assert json.loads(out)["rationalizable"] is True


STRICT_PAIR = [{"better": [1, 0, 0], "worse": [0, 0, 0]}]


@pytest.mark.parametrize("command, doc, field", [
    ("rationalize", [1, 2, 3], "top level"),
    ("classify", [1, 2, 3], "top level"),
    ("generate", [1, 2, 3], "top level"),
    ("check-axioms", [1, 2, 3], "top level"),
    ("rationalize", {"dimension": 3, "strict": 7}, '"strict"'),
    ("rationalize", {"dimension": 3, "weak": [7]}, '"weak"'),
    ("rationalize", {"dimension": 2.5, "strict": []}, '"dimension"'),
    ("rationalize", {"dimension": True, "strict": []}, '"dimension"'),
    ("rationalize", {"dimension": "3", "strict": STRICT_PAIR}, '"dimension"'),
    ("rationalize", {"dimension": 0, "strict": [{"better": [], "worse": []}]}, '"dimension"'),
    ("rationalize", {"dimension": -2, "strict": []}, '"dimension"'),
])
def test_malformed_documents_exit_two(capsys, tmp_path, command, doc, field):
    code, out, err = run(capsys, command, write(tmp_path, "bad.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("command", ["classify", "rationalize", "check-axioms", "decompose", "generate"])
def test_deeply_nested_document_exits_two(capsys, tmp_path, command):
    # the JSON parser recurses once per level and gives up with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"d": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("dimension", [2**63, 10**400], ids=["2**63", "10**400"])
def test_rationalize_huge_dimension_exits_two(capsys, tmp_path, dimension):
    # the box rows overflowed: OverflowError and a traceback, exit 1
    path = write(tmp_path, "huge.json", {"dimension": dimension, "weak": [], "strict": []})
    code, out, err = run(capsys, "rationalize", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and '"dimension"' in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["--exact", "--float"])
def test_rationalize_witness_too_large_for_memory_exits_two(capsys, tmp_path, mode):
    # the witness list of sys.maxsize zeros is refused before anything is
    # allocated: a MemoryError traceback, exit 1
    path = write(tmp_path, "max.json", {"dimension": sys.maxsize, "weak": [], "strict": []})
    code, out, err = run(capsys, "rationalize", path, mode)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "MemoryError" in err and "Traceback" not in err


def test_rationalize_cost_follows_the_pairs_not_the_dimension(capsys, tmp_path):
    # no pair moves a coordinate, so both LPs are tiny; only the witness has n entries
    path = write(tmp_path, "wide.json", {"dimension": 100_000, "weak": [], "strict": []})
    start = time.perf_counter()
    code, out, _ = run(capsys, "rationalize", path)
    assert time.perf_counter() - start < 5
    assert code == 0
    witness = json.loads(out)["witness"]
    assert len(witness["d"]) == 100_000 and not any(witness["d"])


def test_low_dimension_warning_on_stderr(capsys, tmp_path):
    path = write(tmp_path, "d2.json", {"dimension": 2, "weak": [], "strict": [
        {"better": [1, 0], "worse": [0, 0]}]})
    code, out, err = run(capsys, "rationalize", path)
    assert code == 0
    assert "n >= 3" in err
    assert json.loads(out)["note"]


def test_unknown_flag_exits_two(capsys):
    assert main(["rationalize", "--bogus"]) == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "classify", "/does/not/exist.json")
    assert code == 2
    assert "error" in err


REVERSED_PAIRS = {"dimension": 3, "weak": [], "strict": [
    {"better": [1, 0, 0], "worse": [0, 1, 0]},
    {"better": [0, 1, 0], "worse": [1, 0, 0]}]}


@pytest.mark.parametrize("argv", [
    # a negative margin cut turns the zero witness into a positive verdict
    ("rationalize", "reversed", "--float", "--tol", "-1"),
    # a NaN cut rejects every margin and reports p_mass 0.0 as a negative verdict
    ("rationalize", "bliss", "--float", "--tol", "nan"),
    # a NaN threshold accepts x1^3 + x2 with residual 6
    ("decompose", "cubic1", "--tol", "nan"),
    # a NaN tie band hides every violation the default finds
    ("check-axioms", "cubic1", "--tol", "nan", "--trials", "50"),
    ("check-axioms", "cubic1", "--tol", "inf", "--trials", "50"),
    ("rationalize", "bliss", "--float", "--tol", "inf"),
    # round(inf) overflowed in the sampler
    ("generate", "euclid", "--radius", "inf"),
    ("generate", "euclid", "--radius", "nan"),
    ("generate", "euclid", "--radius", "-1"),
    ("generate", "euclid", "--radius", "0"),
])
def test_out_of_range_numeric_options_exit_two(capsys, tmp_path, bliss_dataset, euclid_params, argv):
    files = {"reversed": write(tmp_path, "reversed.json", REVERSED_PAIRS),
             "bliss": bliss_dataset, "euclid": euclid_params}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert "error:" in err and ("--tol" in err or "--radius" in err)


def test_boundary_numeric_options_are_accepted(capsys, bliss_dataset, euclid_params):
    assert run(capsys, "rationalize", bliss_dataset, "--float", "--tol", "0")[0] == 0
    assert run(capsys, "decompose", "cubic1", "--tol", "0")[0] == 1
    assert run(capsys, "generate", euclid_params, "--count", "3", "--radius", "1e-300")[0] == 0


@pytest.mark.parametrize("doc, field", [
    ({"A": 5, "b": []}, '"A"'),
    ({"A": [5], "b": [1]}, '"A"'),
    ({"A": [[1]], "b": 7}, '"b"'),
    ({"A": [], "b": []}, '"A"'),
    ({"A": [[1]]}, '"b"'),
    ({"A": [[1, None]], "b": [1, 2]}, "not a scalar"),
    ({"A": [[1, 2]], "b": [1]}, "shape"),
])
def test_malformed_utility_documents_exit_two(capsys, tmp_path, doc, field):
    code, out, err = run(capsys, "decompose", write(tmp_path, "utility.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("doc, field", [
    ({"A": [[1e308]], "b": [0]}, "S[0][0] is inf"),
    ({"A": [[1]], "b": [1e308]}, "S[0][0] is nan"),
])
def test_decompose_overflowing_float_utility_exits_two(capsys, tmp_path, doc, field):
    # an overflowed S or residual is no decomposition: it used to print
    # Infinity (not JSON) and exit 0
    code, out, err = run(capsys, "decompose", write(tmp_path, "utility.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


def test_decompose_huge_int_next_to_a_float_exits_two(capsys, tmp_path):
    # float + 10**400 raised OverflowError with a traceback, exit 1
    doc = {"A": [[1e300]], "b": [10**400]}
    code, out, err = run(capsys, "decompose", write(tmp_path, "utility.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows a float" in err and "b[0]" in err


@pytest.mark.parametrize("doc", [{"A": [[1]], "b": [10**400]}, {"A": [[10**400]], "b": [1]}])
def test_decompose_huge_exact_utility(capsys, tmp_path, doc):
    # exact, so nothing overflows; the residual threshold is compared exactly
    code, out, _ = run(capsys, "decompose", write(tmp_path, "utility.json", doc))
    assert code == 0
    assert json.loads(out) == {"S": doc["A"], "g": doc["b"], "residual": 0}


@pytest.mark.parametrize("doc", [
    {"c": -0.3, "d": [0.1, 0.7, 0.2]},
    {"c": -1, "d": [1e308, 1e308, 0]},
])
def test_exact_check_axioms_takes_float_parameters_verbatim(capsys, tmp_path, doc):
    # float utilities of rational points were judged at the exact cut 0: the
    # first document gave a homotheticity violation, the second 3/2/0/9
    code, out, _ = run(capsys, "check-axioms", write(tmp_path, "params.json", doc), "--trials", "500", "--exact")
    assert code == 0
    assert [r["violations"] for r in json.loads(out)] == [0, 0, 0, 0]


def test_check_axioms_overflowing_float_utilities_exit_two(capsys, tmp_path):
    # inf/nan utilities gave a homotheticity violation, exit 1
    path = write(tmp_path, "params.json", {"c": -1, "d": [1e308, 1e308, 0]})
    code, out, err = run(capsys, "check-axioms", path, "--trials", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("doc", [{"c": 10**400, "d": [1, 0, 0]}, {"c": -1, "d": [0, "1/3", 10**400]}])
def test_check_axioms_huge_exact_parameters_in_float_mode_exit_two(capsys, tmp_path, doc):
    code, out, err = run(capsys, "check-axioms", write(tmp_path, "params.json", doc), "--trials", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows a float" in err


def test_classify_float_center_does_not_overflow(capsys, tmp_path):
    # 2c overflows a float here, -0.5/c does not; the center is (-1/2, -1/2, 0)
    path = write(tmp_path, "huge.json", {"c": 1e308, "d": [1e308, 1e308, 0]})
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "anti_euclidean"
    assert doc["center"] == pytest.approx([-0.5, -0.5, 0.0])


@pytest.mark.parametrize("doc", [
    {"c": 1e-308, "d": [1e308, 0, 0]},
    {"c": 1.5, "d": [10**400, 0, 0]},
])
def test_classify_non_finite_center_exits_two(capsys, tmp_path, doc):
    code, out, err = run(capsys, "classify", write(tmp_path, "tiny.json", doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "center" in err


@pytest.mark.parametrize("command, doc, field", [
    ("rationalize", {}, "dimension"),
    ("rationalize", {"dimension": 3, "strict": [{"better": [1, 0, 0]}]}, "worse"),
    ("classify", {"d": [1]}, "c"),
    ("generate", {"d": [1]}, "c"),
    ("check-axioms", {"d": [1]}, "c"),
    ("classify", {"c": 1}, "d"),
])
def test_a_missing_field_is_named(capsys, tmp_path, command, doc, field):
    # the message was the bare key, as in error: 'worse'
    code, out, err = run(capsys, command, write(tmp_path, "doc.json", doc))
    assert (code, out, err) == (2, "", f'error: missing field "{field}"\n')


@pytest.mark.parametrize("command", ["classify", "generate", "check-axioms"])
def test_empty_parameter_vector_exits_two(capsys, tmp_path, command):
    code, out, err = run(capsys, command, write(tmp_path, "empty.json", {"c": -1, "d": []}))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and '"d"' in err


def test_one_and_two_dimensional_parameters_still_classify(capsys, tmp_path):
    for d in ([2], [2, 0]):
        code, out, _ = run(capsys, "classify", write(tmp_path, "low.json", {"c": -1, "d": d}))
        assert code == 0
        assert json.loads(out)["class"] == "euclidean"


# Fuzzing the whole front end: small, mostly malformed documents and option
# values for every subcommand. Whatever comes in, main returns 0, 1 or 2
# without an exception, prints one JSON document on a verdict, and an exact
# negative rationalize verdict carries a certificate that re-checks exactly.
# Float-mode certificates are not re-checked: float mode does not promise
# exactly verified output (ROADMAP item 3).

# magnitudes at and beyond the ends of the float range, as JSON numbers and "p/q"
extremes = st.sampled_from([1e308, -1e308, 10**400, -10**400, 5e-324, f"1/{10**400}"])
fuzz_scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.5, -1.25, 1e-300, 1e308, float("nan"), float("inf"),
                     "1/2", "-3/4", "1/0", "x", "", None, True, [], {},
                     "1/", "3", "1_0/3", " 1/2"]),
    extremes,
)
garbage = st.one_of(fuzz_scalars, st.lists(fuzz_scalars, max_size=4))


def mostly(good, bad):
    """``good`` five times in six, else ``bad``."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 0 else good)


good_scalars = mostly(st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", 0.5])), extremes)


def damage(draw, node):
    """node with one spot inside it (or node itself) replaced by garbage or deleted."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node))) if isinstance(node, list) else []
    if not keys or draw(st.integers(0, 3)) == 0:
        return draw(garbage)
    key = draw(st.sampled_from(keys))
    node = node.copy()
    if draw(st.integers(0, 4)) == 0:
        del node[key]
    else:
        node[key] = damage(draw, node[key])
    return node


@st.composite
def fuzz_documents(draw, kind):
    """A well-formed document of the kind, damaged in up to two spots."""
    n = draw(st.integers(1, 3))
    vec = st.lists(good_scalars, min_size=n, max_size=n)
    if kind == "params":
        doc = {"c": draw(good_scalars), "d": draw(vec)}
    elif kind == "utility":
        doc = {"A": draw(st.lists(vec, min_size=n, max_size=n)), "b": draw(vec)}
    else:
        pairs = st.lists(st.fixed_dictionaries({"better": vec, "worse": vec}), max_size=4)
        doc = {"dimension": n, "weak": draw(pairs), "strict": draw(pairs)}
    for _ in range(draw(st.integers(0, 2))):
        doc = damage(draw, doc)
    return doc


fuzz_numbers = mostly(st.sampled_from(["0", "1e-9", "0.5", "3", "1e308"]),
                      st.sampled_from(["-1", "nan", "inf", "-inf", "x", ""]))
fuzz_counts = mostly(st.sampled_from(["1", "2", "3", "5"]), st.sampled_from(["-1", "0", "x", "2.5"]))


@st.composite
def fuzz_invocations(draw):
    """(argv, document or None): the document is written to the file the argv names."""
    command = draw(st.sampled_from(["classify", "rationalize", "check-axioms", "decompose", "generate"]))
    kind = {"rationalize": "dataset", "decompose": "utility"}.get(command, "params")
    builtin = command in ("check-axioms", "decompose") and draw(st.booleans())
    doc = None if builtin else draw(fuzz_documents(kind))
    argv = [command, "cubic1" if builtin else "DOC"]
    options = {
        "rationalize": {"--restrict": mostly(st.sampled_from(["linear", "euclidean", "anti-euclidean"]),
                                             st.just("other")),
                        "--tol": fuzz_numbers},
        "check-axioms": {"--dim": fuzz_counts, "--trials": fuzz_counts, "--seed": fuzz_counts, "--tol": fuzz_numbers},
        "decompose": {"--dim": fuzz_counts, "--tol": fuzz_numbers},
        "generate": {"--count": fuzz_counts, "--seed": fuzz_counts, "--radius": fuzz_numbers},
    }.get(command, {})
    for flag in draw(st.sets(st.sampled_from(sorted(options)), max_size=len(options))) if options else ():
        argv += [flag, draw(options[flag])]
    if command in ("rationalize", "check-axioms"):
        # --tol goes with --float; exact mode rejects it
        argv += draw(mostly(st.just(["--float"]), st.sampled_from([[], ["--exact"]])) if "--tol" in argv
                     else st.sampled_from([[], ["--exact"], ["--float"]]))
    return argv, doc


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_invocations())
def test_fuzzed_invocations_keep_the_exit_contract(tmp_path_factory, invocation):
    argv, doc = invocation
    if doc is not None:
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "DOC" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, doc)
    if code == 2:
        assert out.getvalue() == "" and "error:" in err.getvalue(), (argv, doc)
        return
    result = json.loads(out.getvalue())
    if argv[0] == "rationalize" and code == 1 and "--float" not in argv:
        data = ObservationSet.from_dict(doc)
        weights = {k: scalar_from_json(v) for k, v in result["certificate"].items()}
        mu = result.get("restriction_weight")
        assert verify_certificate(data, weights, result.get("restriction"),
                                  None if mu is None else scalar_from_json(mu)), (argv, doc)
