import ast
import sys
import types
from pathlib import Path

import spherepref

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
