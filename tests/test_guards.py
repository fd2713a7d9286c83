"""Source guards: text that must not come back into the library.

Each test searches the files under its paths line by line, as grep over the
checkout would, so a stale read or call on a branch the rest of the suite
never reaches fails here, offline.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _matches(pattern: str, *paths: str, exclude: str | None = None) -> list[str]:
    """'path:line: text' for every line under the paths (files or
    directories) that pattern matches, skipping bytecode and any file named
    exclude."""
    regex = re.compile(pattern)
    hits = []
    for path in map(ROOT.joinpath, paths):
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if not f.is_file() or f.name == exclude or "__pycache__" in f.parts:
                continue
            for k, line in enumerate(f.read_text(errors="replace").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{f.relative_to(ROOT)}:{k}: {line.strip()}")
    return hits


def test_no_read_of_a_removed_tolerance_field():
    # every tolerance is a module constant.  The suite runs most of the
    # CLI in child processes and never reaches some refusal branches, so a
    # stale read there would only show as an AttributeError in use
    assert _matches(r"\.(root_tol|cluster_tol|conic_residual_tol)\b", "src", "tests") == []


def test_no_tol_passed_to_a_callable_that_takes_none():
    # these callables lost their unread tol parameter; for the same reason as
    # above, a stale tol on an unreached CLI branch would only show as a
    # TypeError in use
    names = (
        "solve_levels|invariant_orbits|evaluate|derivative|"
        "compose|fiber|check_value_bound|factor_any_order|"
        "inner_factor_general|build_loops|continue_branch|"
        "fit_conic|foci_vs_zeros"
    )
    assert _matches(rf"\b({names})\([^)]*\btol\b", "src", "tests") == []


def test_no_deleted_public_name_is_documented():
    # these names and class members had no reader in the library or the
    # benchmark and were deleted; continue_branch lives on in
    # tests/conftest.py, the CLI reads files through core._parse_json, and
    # every level set is a circle.LevelSets, whose closure orders
    # poncelet._closure reads off one certified orbit, the range verdict
    # reports its own residual, and a conic fit reports `residual`
    names = (
        "lifted_argument|argument_derivative|chord_second_intersection|"
        "fixed_point|NoInteriorFixedPoint|chain_2n|ChainRecord|ShapeFailure|"
        "DecompositionReport|one_critical_value_form|OneCriticalValueForm|"
        "from_json|to_json|is_identity|max_distance|solve_on_circle|"
        "CircleSolutionSet|_LevelTable|_solve_level_arrays|_hops_to_close|"
        "support_mismatch|max_residual"
    )
    assert _matches(rf"\b({names})\b", "src", "README.md") == []


def test_a_poncelet_curve_is_an_entry_of_its_package():
    # package computes every curve and its closure order from one solve,
    # and an entry fits its curve when read; no one-curve path beside it,
    # and no closure order through a second solve, comes back
    assert _matches(r"\b(envelope|closure_order)\(", "src", "README.md") == []


def test_every_divisor_reads_its_orbits_off_one_level_set():
    # a degree-k search reads class 0 mod hop = n/k of the level set
    # through 1, which every divisor shares, and that class's psi' rates;
    # no second orbit (halfway round, or from a second batch of starts),
    # no partial fractions between two orbits and no product-form Newton
    # step come back
    assert _matches(r"\b_orbit_pair\b", "src", "README.md") == []
    assert _matches(r"\binvariant_orbits?\b", "src/blaschke/decompose.py") == []
    assert _matches(
        r"\b(_inner_from_orbits|_newton_step)\b|hop // 2",
        "src/blaschke/decompose.py",
        "README.md",
    ) == []


def test_the_range_verdict_fits_no_conic():
    # shiftop reads W(A)'s ellipse off its support lines with
    # circle._ellipse, the test poncelet applies to chords; it needs nothing
    # from poncelet, and cli nrange fits nothing of its own
    assert _matches(r"^\s*(from\s+\S*poncelet\S*\s+import|import\s+\S*poncelet)",
                    "src/blaschke/shiftop.py") == []
    source = (ROOT / "src/blaschke/cli.py").read_text()
    nrange = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_nrange"
    )
    assert "fit_conic" not in ast.get_source_segment(source, nrange)


def test_a_package_fits_no_conic_until_a_fit_is_read():
    # an entry fits its conic when its fit is first read; package calls no
    # fit, and fit is no dataclass field that package would have to fill
    tree = ast.parse((ROOT / "src/blaschke/poncelet.py").read_text())
    package, entry = (
        next(node for node in tree.body if getattr(node, "name", None) == name)
        for name in ("package", "PackageEntry")
    )
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(package)
        if isinstance(node, ast.Call)
    }
    assert called & {"fit_conic", "_ellipse"} == set()
    fields = {
        node.target.id for node in entry.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    assert fields == {"skip", "curve", "closure"}


def test_one_ellipse_test_and_one_tolerance():
    # circle._ellipse fits every family of tangent lines, envelope chords
    # and range support lines alike, by one least-squares solve against
    # circle._ELLIPSE_TOL; no point-sample conic fit, SVD or FFT comes back
    package = "src/blaschke"
    deleted = r"np\.linalg\.svd|np\.fft|\b_classify\b|\b_fit_conics\b|_CONIC_RESIDUAL_TOL"
    assert _matches(deleted, package) == []
    constants = _matches(r"^_\w*(ELLIPSE|CONIC|RESIDUAL)\w*\s*=", package)
    assert [hit.split(":")[0] for hit in constants] == ["src/blaschke/circle.py"]
    assert constants[0].endswith("_ELLIPSE_TOL = 1e-8")


def test_one_sampler_for_the_range_curve():
    # W(S)'s boundary is K_1 of z times the zeros, read off one level-set
    # solve through circle._chords, the builder of poncelet's envelopes; no
    # second Newton over normal angles comes back, and solve_levels is the
    # Newton kernel's one caller
    package = "src/blaschke"
    assert _matches(r"\b_chord\b", package) == []
    assert _matches(r"_bracketed_newton\(", package, exclude="circle.py") == []
    assert len(_matches(r"(?<!def )_bracketed_newton\(", "src/blaschke/circle.py")) == 1


def test_every_certificate_fails_on_nan():
    # a certificate reads "not err <= bound", which NaN fails; "err > bound"
    # lets NaN through
    assert _matches(r">\s*(_MATCH_TOL|5e-11)\b", "src/blaschke") == []


def test_one_form_per_circle_kernel():
    # circle reads every factor on the circle through w = 1 - a conj(z), so
    # it needs no quotient kernel from core; and every family of tangent
    # lines reaches circle._ellipse with its tangency points
    assert _matches(r"\b_factor_array\b", "src") == []
    arities = []
    for f in sorted((ROOT / "src/blaschke").glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ellipse":
                arities.append((f.name, len(node.args), len(node.keywords)))
    assert arities and all(args == 3 and not keywords for _, args, keywords in arities)


def test_no_sup_error_certificate_against_a_literal_1e_8():
    # every circle match and re-expansion is certified against
    # core._MATCH_TOL, so the certificates cannot drift apart
    assert _matches(r"\berr *(<=|>|<|>=) *1e-8", "src") == []


def test_one_divisor_table_and_one_home_for_the_shape_of_n():
    # the benchmark's kept results and its traced search counts wrap
    # decompose.inner_factor_general by rebinding the module global, so
    # every divisor search goes through decompose._divisor_rows, which reads
    # it there; the proper divisors of n and its tower height come from
    # core._proper_divisors and core._tower_height alone
    package = "src/blaschke"
    assert _matches(r"inner_factor_general\(", package, exclude="decompose.py") == []
    assert _matches(r"range\(2, n\)|bit_length\(\) - 1", package, exclude="core.py") == []


def test_the_cli_restates_no_library_gate():
    # the elliptical check and verify_generator_power each decide when they
    # apply and raise otherwise; the CLI calls them and leaves a refused
    # block out, reads no tolerance, and asks the z-factor test only where
    # nrange chooses its model space
    assert _matches("_generator_power_refusal", "src") == []
    cli = (ROOT / "src/blaschke/cli.py").read_text()
    assert re.findall("identity_tol|DEFAULT_TOL", cli, re.IGNORECASE) == []
    assert len(re.findall(r"_origin_dropped\(", cli)) == 1


def test_results_are_kept_on_their_product():
    # a result derived from a product is kept on that product object by
    # core._kept, so it lives as long as the product; no module-level memo,
    # with a bound and a lifetime of its own, comes back
    package = "src/blaschke"
    assert _matches(r"\blru_cache\b|@(functools\.)?cache\b", package) == []
    definitions = _matches(r"^\s*def _kept\b|^_kept\s*=", package)
    assert [hit.split(":")[0] for hit in definitions] == ["src/blaschke/core.py"]


def test_the_library_reads_no_environment():
    # every setting is a constant or an argument: no environment variable
    # changes what the library or the CLI computes
    assert _matches(r"\bos\.environ\b|\bgetenv\b|\benviron\[", "src/blaschke") == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml and the README promise Python 3.10, and CI runs only a
    # later version, so syntax that 3.10 lacks would otherwise pass there
    failures = []
    for d in ("src", "tests", "perfbench"):
        for f in sorted((ROOT / d).rglob("*.py")):
            path = f.relative_to(ROOT)
            try:
                ast.parse(f.read_text(), filename=str(path), feature_version=(3, 10))
            except SyntaxError as exc:
                failures.append(f"{path}:{exc.lineno}: {exc.msg}")
    assert failures == []
