"""Print the digests and pivot totals behind the LP golden tests, without pytest.

    python tests/lp_golden_digests.py

Runs the programs of test_golden_outcomes and test_golden_tall_outcomes in
both modes and prints one line; compare it with the pins in test_lp.py, or
across Python versions that have no pytest installed. The spherepref sources
are taken from this checkout's src/.
"""

import random
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _AnyMark:
    def __getattr__(self, name):
        return lambda *args, **kwargs: (lambda fn: fn)


# test_lp.py decorates its tests at import; only its program generators are used
sys.modules.setdefault("pytest", types.SimpleNamespace(mark=_AnyMark()))
sys.path.insert(0, str(ROOT / "tests"))
import test_lp  # noqa: E402

from spherepref.geometry import EXACT, FLOAT  # noqa: E402
from spherepref.lp import solve  # noqa: E402


def main() -> None:
    rng = random.Random(5)
    golden = [test_lp._golden_lp(rng) for _ in range(400)]
    rng = random.Random(11)
    tall = [test_lp._tall_lp(rng) for _ in range(40)]
    fields = [sys.version.split()[0]]
    for name, lps in (("golden", golden), ("tall", tall)):
        for mode in (EXACT, FLOAT):
            outcomes = [solve(lp, mode) for lp in lps]
            pivots = sum(o.stats.phase1_pivots + o.stats.phase2_pivots for o in outcomes)
            fields.append(f"{name}/{mode} {test_lp._digest(outcomes)} pivots={pivots}")
    print(" | ".join(fields))


if __name__ == "__main__":
    main()
