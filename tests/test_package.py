import ast
import random
import sys
import types
from pathlib import Path

import pytest

import spherepref
from spherepref.axioms import (AxiomReport, antipodal_indifference, check_homotheticity, check_oioi, check_perp_diff,
                               check_soioi, cubic_function, cubic_oracle, params_oracle, random_orthonormal_plane,
                               utility_comparison_oracle)
from spherepref.cardinal import (LineSearch, QuadLinDecomposition, check_eventual_linearity,
                                 check_status_quo_independence, coefficient_oracle, cubic_utility, decompose,
                                 u_orthogonal, utility_oracle)
from spherepref.formats import scalar_to_json
from spherepref.geometry import FLOAT, project_out
from spherepref.lp import Constraint, LinearProgram, solve
from spherepref.preference import SphericalParams, canonicalize, preference_distance, sphere_normal
from spherepref.rationalize import ObservationSet, rationalize

# the public names the package has always listed in __all__
PUBLIC = """
AxiomReport ComparisonOracle antipodal_indifference check_homotheticity check_oioi
check_perp_diff check_soioi check_strict_convexity find_monotone_direction params_oracle
utility_comparison_oracle NotQuadraticLinear QuadLinDecomposition UtilityOracle
check_eventual_linearity check_status_quo_independence coefficient_oracle decompose
extract_f u_orthogonal utility_oracle EXACT FLOAT DimensionMismatch Scalar Vec dot
project_out sq_norm Constraint LinearProgram LpOutcome ANTI_EUCLIDEAN EUCLIDEAN
INDIFFERENCE LINEAR Ordering PreferenceClass SphericalParams canonicalize classify
compare preference_distance sphere_normal utility RESTRICT_ANTI_EUCLIDEAN
RESTRICT_EUCLIDEAN RESTRICT_LINEAR CertificateSearch ObservationSet
RationalizabilityVerdict certificate_lp generate_dataset verify_certificate
verify_witness __version__
""".split()


def test_public_names_resolve():
    assert sorted(spherepref.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        value = getattr(spherepref, name)
        assert not isinstance(value, types.ModuleType), name


def test_rationalize_is_the_submodule():
    assert isinstance(spherepref.rationalize, types.ModuleType)
    assert spherepref.rationalize.__name__ == "spherepref.rationalize"
    assert "rationalize" not in spherepref.__all__


def test_runtime_is_stdlib_only():
    # every absolute import in the package is the standard library or the
    # package itself; relative imports (level > 0) stay inside it
    src = Path(spherepref.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "spherepref", (path.name, name)


def test_every_import_is_used():
    # each name a module imports (the package __init__ re-exports, so it is
    # left out) is read somewhere in that module
    src = Path(spherepref.__file__).parent
    files = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


_PLANE = SphericalParams(-1, (0, 0))
_QUADLIN = QuadLinDecomposition(((1, 0), (0, 1)), (0, 0), 0)


@pytest.mark.parametrize("call, message", [
    (lambda: cubic_function(0), "the cubic fixture needs dimension >= 1"),
    (lambda: cubic_oracle(1), "the cubic oracle needs dimension >= 2"),
    (lambda: check_oioi(utility_comparison_oracle(lambda x: 10**400 + x[0], 3), 3),
     "trial 0 overflows a float: int too large to convert to float"),
    (lambda: random_orthonormal_plane(random.Random(0), 1), "a plane needs dimension >= 2"),
    (lambda: antipodal_indifference(_PLANE, (0, 0), 1.0, ((2.0, 0.0), (0.0, 1.0))), "plane vectors must be unit length"),
    (lambda: cubic_utility(3)((0, 0)), "dimension mismatch: 3 vs 2"),
    (lambda: _QUADLIN.quadratic_form((1, 0), (1, 0, 0)), "dimension mismatch: 2 vs 3"),
    (lambda: _QUADLIN.evaluate((1,)), "dimension mismatch: 2 vs 1"),
    (lambda: sphere_normal(_PLANE, (1,)), "dimension mismatch: 2 vs 1"),
    (lambda: preference_distance(_PLANE, SphericalParams(-1, (0,))), "dimension mismatch: 2 vs 1"),
    (lambda: project_out((1, 0), [(1, 0, 0)]), "dimension mismatch: 2 vs 3"),
    (lambda: utility_oracle(lambda x: 1, 2), "utility at the origin is 1, not 0"),
    (lambda: scalar_to_json(True), "booleans are not scalars"),
    (lambda: scalar_to_json("1/2"), "unsupported scalar type: str"),
    (lambda: SphericalParams(True, (1,)).to_dict(), "booleans are not scalars"),
    (lambda: AxiomReport("oioi", 1, 1, {"x": (1, 0), "t": "1/2"}).to_dict(), "unsupported scalar type: str"),
    (lambda: Constraint((1,), "<", 0), "unknown relation '<'"),
    (lambda: LinearProgram((1, 1), (), ((0, 1),)), "1 bounds for 2 variables"),
    (lambda: solve(LinearProgram((1,), ()), "Exact"), "unknown arithmetic mode: 'Exact'"),
    (lambda: canonicalize(SphericalParams(-1, (1,)), "bogus"), "unknown arithmetic mode: 'bogus'"),
])
def test_each_error_branch_names_its_cause(call, message):
    # branches that no other test reaches; distinguishing_pair's spent budget
    # is test_preference.py's
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


_SPHERE = params_oracle(SphericalParams(-1.0, (0.5, 0.0, 0.25)))
_QUAD = coefficient_oracle(((1.0, 0.5), (0.5, 2.0)), (1.0, -1.0))
_DATA = ObservationSet(2, [((1.0, 0.0), (0.0, 1.0))], [((0.0, 0.0), (2.0, 0.5)), ((1.0, 1.0), (1.0, -1.5))])


@pytest.mark.parametrize("name, call", [
    ("tie_rel", lambda **kw: [check(_SPHERE, 40, **kw) for check in (check_oioi, check_perp_diff, check_soioi,
                                                                        check_homotheticity)]),
    ("float_margin", lambda **kw: rationalize(_DATA, mode=FLOAT, **kw)),
    ("residual_rel", lambda **kw: decompose(_QUAD, **kw)),
    ("tol", lambda **kw: check_status_quo_independence(_QUAD, 20, **kw)),
    ("tol", lambda **kw: u_orthogonal(_QUADLIN, (1, 0), (1e-10, 1), **kw)),
    ("tol", lambda **kw: check_eventual_linearity(_QUAD, (1.0, 0.0), (0.0, 1.0), LineSearch(**kw))),
], ids=["tie_rel", "float_margin", "residual_rel", "status_quo_tol", "u_orthogonal_tol", "line_search_tol"])
def test_a_tolerance_of_none_keeps_the_default(name, call):
    # all but tie_rel raised a bare TypeError on None
    assert call(**{name: None}) == call()
