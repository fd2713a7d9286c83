"""Source guards: text that must not come back into the library.

Each test searches the files under its paths line by line, as grep over the
checkout would, so a stale read or call on a branch the rest of the suite
never reaches fails here, offline.
"""

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
    # ToleranceConfig carries only identity_tol.  The suite runs most of the
    # CLI in child processes and never reaches some refusal branches, so a
    # stale read there would only show as an AttributeError in use
    assert _matches(r"\.(root_tol|cluster_tol|conic_residual_tol)\b", "src", "tests") == []


def test_no_tol_passed_to_a_callable_that_takes_none():
    # these callables lost their unread tol parameter; for the same reason as
    # above, a stale tol on an unreached CLI branch would only show as a
    # TypeError in use
    names = (
        "solve_levels|solve_on_circle|invariant_orbits|evaluate|derivative|"
        "compose|fiber|check_value_bound|one_critical_value_form|chain_2n|"
        "factor_any_order|inner_factor_general|build_loops|continue_branch|"
        "envelope|fit_conic|closure_order|foci_vs_zeros"
    )
    assert _matches(rf"\b({names})\([^)]*\btol\b", "src", "tests") == []


def test_no_deleted_public_name_is_documented():
    # these names had no reader in the library or the benchmark and were
    # deleted; continue_branch lives on in tests/conftest.py
    names = (
        "lifted_argument|argument_derivative|chord_second_intersection|"
        "fixed_point|NoInteriorFixedPoint"
    )
    assert _matches(rf"\b({names})\b", "src", "README.md") == []


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
    # block out, and reads identity_tol only where nrange chooses its model
    # space
    assert _matches("_generator_power_refusal", "src") == []
    cli = (ROOT / "src/blaschke/cli.py").read_text()
    assert len(re.findall("identity_tol", cli)) == 1
