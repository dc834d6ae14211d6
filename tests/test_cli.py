import json

import pytest

from spherepref.cli import main


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
