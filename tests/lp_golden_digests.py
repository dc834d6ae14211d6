"""Print the digests and pivot totals behind the LP golden tests, and the
verdict digests of test_golden_verdicts, without pytest.

    python tests/lp_golden_digests.py

Runs the programs of test_golden_outcomes and test_golden_tall_outcomes in
both modes and prints one line, then rationalizes the datasets of
test_golden_verdicts in both modes and prints a second; each dataset is
first rendered to JSON and parsed back, and must come back equal, so the
second line covers the parse as the CLI runs it. Compare the lines with
the pins in test_lp.py and test_rationalize.py, or across Python versions
that have no pytest or hypothesis installed. The spherepref sources are
taken from this checkout's src/.
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
import test_lp  # noqa: E402
import test_rationalize  # noqa: E402

from spherepref.formats import dumps  # noqa: E402
from spherepref.geometry import EXACT, FLOAT  # noqa: E402
from spherepref.lp import solve  # noqa: E402
from spherepref.rationalize import ObservationSet, rationalize  # noqa: E402


def main() -> None:
    version = sys.version.split()[0]
    rng = random.Random(5)
    golden = [test_lp._golden_lp(rng) for _ in range(400)]
    rng = random.Random(11)
    tall = [test_lp._tall_lp(rng) for _ in range(40)]
    fields = [version]
    for name, lps in (("golden", golden), ("tall", tall)):
        for mode in (EXACT, FLOAT):
            outcomes = [solve(lp, mode) for lp in lps]
            pivots = sum(o.stats.phase1_pivots + o.stats.phase2_pivots for o in outcomes)
            fields.append(f"{name}/{mode} {test_lp._digest(outcomes)} pivots={pivots}")
    print(" | ".join(fields))
    datasets = []
    for data, restriction in test_rationalize.golden_datasets():
        parsed = ObservationSet.from_dict(json.loads(dumps(data.to_dict())))
        assert parsed == data, "a dataset did not survive its JSON round trip"
        datasets.append((parsed, restriction))
    fields = [version]
    for mode in (EXACT, FLOAT):
        docs = "".join(dumps(rationalize(data, restriction, mode=mode).to_dict()) for data, restriction in datasets)
        fields.append(f"verdicts/{mode} {hashlib.sha256(docs.encode()).hexdigest()}")
    print(" | ".join(fields))


if __name__ == "__main__":
    main()
