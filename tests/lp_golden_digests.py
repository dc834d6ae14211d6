"""Print the digests and pivot totals behind the LP golden tests, the
verdict digests of test_golden_verdicts and the digests of the golden
checker reports, without pytest.

    python tests/lp_golden_digests.py [--check]

Runs the programs of test_golden_outcomes and test_golden_tall_outcomes in
both modes and prints one line, then rationalizes the datasets of
test_golden_verdicts in both modes and prints a second; each dataset is
first rendered to JSON and parsed back, and must come back equal, so the
second line covers the parse as the CLI runs it. A third line gives the
digests of the reports of test_golden_float_reports and
test_golden_exact_reports. With --check, each line is compared with the
one the pins of test_lp.py, test_rationalize.py and test_axioms.py give
(their module constants, which the tests assert too): every line that
differs is named on stderr and the exit status is 1. This runs under
Python versions that have no pytest or hypothesis installed. The
spherepref sources are taken from this checkout's src/.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _Stub:
    """Stands in for pytest and hypothesis, which the test modules use at
    import only to decorate tests and build strategies: every attribute,
    call and union of a stub is the stub."""

    def __getattr__(self, name):
        return self

    def __call__(self, *args, **kwargs):
        return self

    def __or__(self, other):
        return self


# only the program and dataset generators of the test modules are used
for _name in ("pytest", "hypothesis"):
    sys.modules.setdefault(_name, _Stub())
sys.path.insert(0, str(ROOT / "tests"))
import test_axioms  # noqa: E402
import test_lp  # noqa: E402
import test_rationalize  # noqa: E402

from spherepref.formats import dumps  # noqa: E402
from spherepref.geometry import EXACT, FLOAT  # noqa: E402
from spherepref.lp import solve  # noqa: E402
from spherepref.rationalize import ObservationSet, rationalize  # noqa: E402


def digest_lines(version: str) -> list:
    """The three lines, computed."""
    rng = random.Random(5)
    golden = [test_lp._golden_lp(rng) for _ in range(400)]
    rng = random.Random(11)
    tall = [test_lp._tall_lp(rng) for _ in range(40)]
    fields = [version]
    for name, lps in (("golden", golden), ("tall", tall)):
        for mode in (EXACT, FLOAT):
            outcomes = [solve(lp, mode) for lp in lps]
            fields.append(f"{name}/{mode} {test_lp._digest(outcomes)} pivots={test_lp._pivots(outcomes)}")
    lines = [" | ".join(fields)]
    datasets = []
    for data, restriction in test_rationalize.golden_datasets():
        parsed = ObservationSet.from_dict(json.loads(dumps(data.to_dict())))
        assert parsed == data, "a dataset did not survive its JSON round trip"
        datasets.append((parsed, restriction))
    fields = [version]
    for mode in (EXACT, FLOAT):
        docs = "".join(dumps(rationalize(data, restriction, mode=mode).to_dict()) for data, restriction in datasets)
        fields.append(f"verdicts/{mode} {hashlib.sha256(docs.encode()).hexdigest()}")
    lines.append(" | ".join(fields))
    floats = test_axioms.reports_digest(test_axioms.golden_float_reports())
    exact = test_axioms.reports_digest(test_axioms.golden_exact_reports())
    lines.append(f"{version} | checkers/float {floats} | checkers/exact {exact}")
    return lines


def pinned_lines(version: str) -> list:
    """The three lines the pins give."""
    fields = [version]
    for name, digests, pivots in (("golden", test_lp.GOLDEN_DIGESTS, test_lp.GOLDEN_PIVOTS),
                                  ("tall", test_lp.TALL_DIGESTS, test_lp.TALL_PIVOTS)):
        fields += [f"{name}/{mode} {digests[mode]} pivots={pivots[mode]}" for mode in (EXACT, FLOAT)]
    verdicts = test_rationalize.GOLDEN_VERDICT_DIGESTS
    reports = test_axioms.GOLDEN_REPORT_DIGESTS
    return [
        " | ".join(fields),
        " | ".join([version] + [f"verdicts/{mode} {verdicts[mode]}" for mode in (EXACT, FLOAT)]),
        f"{version} | checkers/float {reports[FLOAT]} | checkers/exact {reports[EXACT]}",
    ]


def main(argv: list) -> int:
    version = sys.version.split()[0]
    lines = digest_lines(version)
    print("\n".join(lines))
    if "--check" not in argv:
        return 0
    names = ("LP outcomes (line 1)", "verdicts (line 2)", "checker reports (line 3)")
    differ = [(name, want) for name, got, want in zip(names, lines, pinned_lines(version)) if got != want]
    for name, want in differ:
        print(f"{name} differs from the pins, which give:\n{want}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
