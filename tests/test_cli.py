import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blaschke
import blaschke.circle as circle
import blaschke.cli as cli
import blaschke.poncelet as poncelet
from blaschke.decompose import factor_any_order
import blaschke.errors as errors

from conftest import (
    chain_json,
    count_ellipse_calls,
    product_json,
    random_product,
    rng_for,
)

DEMOS = (
    "power2",
    "power8",
    "elliptical8",
    "nonexample84",
    "deg6elliptic",
    "deg6nonelliptic",
    "chain3",
)


def child_env(env=None):
    """Environment for a child Python that imports the blaschke under test.

    The directory holding the imported package goes first on PYTHONPATH as an
    absolute path, so a relative entry such as ``src`` cannot leave the child,
    started in another working directory, without the package. Entries already
    on the path are kept after it.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    package_root = str(Path(blaschke.__file__).resolve().parent.parent)
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = (
        os.pathsep.join((package_root, inherited)) if inherited else package_root
    )
    return full_env


def run_cli(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "blaschke.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(env),
    )


def as_complex(pair):
    return complex(pair[0], pair[1])


def test_child_imports_the_package_under_test(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", "import blaschke; print(blaschke.__file__)"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(blaschke.__file__).resolve()


# ------------------------------------------------------------------ happy paths


def test_demo_lists_the_corpus(tmp_path):
    r = run_cli("demo", cwd=tmp_path)
    assert r.returncode == 0
    data = json.loads(r.stdout)
    # the corpus is fixed, so the report names no seed
    assert list(data) == ["demos"]
    names = [row["name"] for row in data["demos"]]
    assert names == list(DEMOS)
    kinds = {row["name"]: row["kind"] for row in data["demos"]}
    assert kinds["chain3"] == "chain"
    assert kinds["power8"] == "product"


def test_analyze_power8(tmp_path):
    r = run_cli("analyze", "--demo", "power8", "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["degree"] == 8
    assert data["critical"]["distinct_count"] == 1
    assert as_complex(data["critical"]["distinct_values"][0]["value"]) == 0


def test_analyze_chain_reports_value_bound(tmp_path):
    r = run_cli("analyze", "--demo", "chain3", "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["value_bound"]["bound"] == 3
    assert data["value_bound"]["ok"] is True
    assert data["value_bound"]["factor_degrees"] == [2, 2, 2]


def test_curve_writes_csv_and_svg(tmp_path):
    r = run_cli(
        "curve", "--demo", "power8", "--skip", "1", "--out", str(tmp_path),
        cwd=tmp_path,
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["skip"] == 1 and data["curve_index"] == 2
    csv_file = tmp_path / "curve_skip1.csv"
    svg_file = tmp_path / "curve_skip1.svg"
    assert csv_file.exists() and svg_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert header == "t,re,im"
    assert svg_file.read_text().startswith("<svg")
    # K2 of the plain 8th power is the circle of radius 1/sqrt(2)
    assert data["fit"]["classification"] in ("ellipse", "circle")
    assert data["closure_order"] == 4


def test_package_nonexample84(tmp_path):
    r = run_cli(
        "package", "--demo", "nonexample84", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    kinds = [e["fit"]["classification"] for e in data["curves"]]
    assert kinds == ["non-conic", "ellipse", "non-conic", "point"]
    assert [e["closure_order"] for e in data["curves"]] == [8, 4, 8, 2]
    assert data["closure_counts"] == {"8": 2, "4": 1, "2": 1}
    for i in (1, 2, 3, 4):
        assert (tmp_path / f"package_k{i}.csv").exists()
        assert (tmp_path / f"package_k{i}.svg").exists()


def test_nrange_deg6elliptic(tmp_path):
    r = run_cli(
        "nrange", "--demo", "deg6elliptic", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["origin_zero_removed"] is True
    assert data["is_ellipse"] is True
    assert data["size"] == 5
    assert (tmp_path / "nrange.csv").exists()
    assert len(data["kippenhahn_probes"]) == 3


def test_decompose_nonexample84(tmp_path):
    r = run_cli(
        "decompose", "--demo", "nonexample84", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["chain"]["degrees"] == [2, 2, 2]
    assert data["chain"]["verification_error"] < 1e-8
    found = {row["k"]: row["found"] for row in data["divisors"]}
    assert found == {2: True, 4: True}


def test_monodromy_chain3(tmp_path):
    r = run_cli(
        "monodromy", "--demo", "chain3", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["order"] == 128
    assert data["wreath_audit"]["ok"] is True
    assert sorted(s["block_size"] for s in data["block_systems"]) == [2, 4]
    assert data["cross_validation"]["consistent"] is True


def test_invariants_power2(tmp_path):
    r = run_cli(
        "invariants", "--demo", "power2", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["order"] == 2
    assert data["identity_sup_error"] < 1e-9
    for pair in data["generator_samples"]:
        z = as_complex(pair["z"])
        g = as_complex(pair["g"])
        assert abs(g / z + 1.0) < 1e-9


def test_invariants_chain_reports_generator_power(tmp_path):
    r = run_cli(
        "invariants", "--demo", "chain3", "--out", str(tmp_path), cwd=tmp_path
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    block = data["generator_power"]
    assert block["ok"] is True
    assert block["power"] == 4
    assert block["sup_error"] < 1e-9


def test_invariants_solve_one_batch_per_orbit_family(monkeypatch, capsys, tmp_path):
    # the 8 generator samples share one solve_levels call, and so do the 64
    # samples of the generator-power check; main builds the demo afresh, so
    # nothing an earlier run of the same demo kept is read
    real = circle.solve_levels
    batches = []

    def counted(B, lams):
        lams = list(lams)
        batches.append(len(lams))
        return real(B, lams)

    monkeypatch.setattr(circle, "solve_levels", counted)
    assert cli.main(["invariants", "--demo", "chain3", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["generator_power"]["ok"] is True
    assert batches == [8, 64]


@pytest.mark.parametrize("demo", ["power8", "elliptical8", "chain3"])
@pytest.mark.parametrize("skip", ["0", "1"])
def test_curve_solves_two_level_batches(monkeypatch, capsys, tmp_path, demo, skip):
    # the curve, its fit and its closure order are one entry of the package,
    # whose one solve holds the 90 envelope level sets and the one through
    # 1; the scene's 3 level sets are the second solve
    real = circle.solve_levels
    batches = []

    def counted(B, lams):
        lams = list(lams)
        batches.append(len(lams))
        return real(B, lams)

    monkeypatch.setattr(circle, "solve_levels", counted)
    monkeypatch.setattr(poncelet, "solve_levels", counted)
    args = ["curve", "--demo", demo, "--skip", skip, "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out)["curve_index"] == int(skip) + 1
    assert batches == [91, 3]


@pytest.mark.parametrize("demo", ["power8", "elliptical8", "chain3"])
@pytest.mark.parametrize("skip", ["0", "1"])
def test_curve_makes_one_ellipse_call(monkeypatch, capsys, tmp_path, demo, skip):
    # cli curve prints the fit of one entry of the package, and the other
    # entries fit nothing
    calls = count_ellipse_calls(monkeypatch)
    args = ["curve", "--demo", demo, "--skip", skip, "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert json.loads(capsys.readouterr().out)["curve_index"] == int(skip) + 1
    assert calls[0] == 1


@pytest.mark.parametrize("demo", ["power8", "elliptical8", "chain3"])
def test_package_makes_one_ellipse_call_per_curve(monkeypatch, capsys, tmp_path, demo):
    # cli package prints the fit of every entry; the report, foci match and
    # scene of an entry read its one ConicFit
    calls = count_ellipse_calls(monkeypatch)
    assert cli.main(["package", "--demo", demo, "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls[0] == len(report["curves"]) == report["degree"] // 2


def test_invariants_accepts_found_chain(tmp_path):
    chain = factor_any_order(cli.demo_corpus()["chain3"].expand(), (2, 2, 2))
    src = tmp_path / "chain.json"
    src.write_text(chain_json(chain))
    r = run_cli("invariants", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    block = json.loads(r.stdout)["generator_power"]
    assert block["ok"] is True
    assert block["power"] == 4


@pytest.mark.parametrize(
    "factors",
    [
        # a degree-3 factor
        ((0j, 0.3 + 0j), (0j, 0.2j, -0.4 + 0j)),
        # degree-2 factors, but the innermost one has no zero at the origin
        ((0j, 0.3 + 0j), (0.2j, -0.4 + 0j)),
    ],
    ids=["degree-three-factor", "no-origin-zero"],
)
def test_invariants_leaves_out_generator_power_for_a_refused_chain(
    tmp_path, factors
):
    chain = blaschke.CompositionChain(
        tuple(blaschke.BlaschkeProduct(1.0, zeros) for zeros in factors)
    )
    src = tmp_path / "chain.json"
    src.write_text(chain_json(chain))
    r = run_cli("invariants", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    report = json.loads(r.stdout)
    assert "generator_power" not in report
    assert report["order"] == chain.degree


def test_decompose_prints_one_divisor_table(capsys, tmp_path):
    # each divisor's row appears once, under "divisors"; the elliptical check
    # reports only its verdict and whether it agrees with that table
    assert cli.main(["decompose", "--demo", "nonexample84", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert [row["k"] for row in report["divisors"]] == [2, 4]
    assert out.count('"k": ') == 2
    assert report["elliptical_check"] == {"is_ellipse": False, "consistent": True}


# a degree-8 product with no degree-2 inner factor, and its decompose report
# as recorded: no golden case reaches the failure branch of the quadratic chain
UNCHAINED8 = (
    '{"gamma": [1, 0], "zeros": [[0, 0], [0.5, 0], [-0.3, 0.4], [0.2, -0.6], '
    '[-0.45, -0.2], [0.1, 0.7], [0.6, 0.3], [-0.7, 0.1]]}'
)
UNCHAINED8_DECOMPOSE = """\
{
  "degree": 8,
  "chain": {
    "failures": [
      {
        "shape": [2, 2, 2],
        "reason": "no degree-2 inner factor at level 0 (pending degree 8): search not-found, error inf"
      }
    ]
  },
  "divisors": [
    {
      "k": 2,
      "found": false,
      "reason": "not-found"
    },
    {
      "k": 4,
      "found": false,
      "reason": "not-found"
    }
  ],
  "elliptical_check": {
    "is_ellipse": false,
    "consistent": true
  }
}
"""


def test_decompose_reports_a_failed_quadratic_chain(capsys, tmp_path):
    src = tmp_path / "p.json"
    src.write_text(UNCHAINED8)
    assert cli.main(["decompose", "--input", str(src), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr() == (UNCHAINED8_DECOMPOSE, "")


def test_analyze_accepts_input_file(tmp_path):
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.4, 0.1]]}')
    r = run_cli("analyze", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["degree"] == 2


def test_degree_one_monodromy_is_the_trivial_group(tmp_path):
    src = tmp_path / "mobius.json"
    src.write_text('{"gamma": [1, 0], "zeros": [[0, 0]]}')
    r = run_cli("monodromy", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["critical_values"] == [] and report["generators"] == []
    assert report["order"] == 1 and report["transitive"] is True


def test_degree_one_nrange_names_the_empty_model_space(tmp_path):
    src = tmp_path / "mobius.json"
    src.write_text('{"gamma": [1, 0], "zeros": [[0, 0]]}')
    r = run_cli("nrange", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == (
        "input error: nrange needs degree at least 2 when B(0) = 0: "
        "the model space of B(z)/z is empty\n"
    )


def test_degree_one_curve_is_refused_by_the_skip_gate(monkeypatch, capsys, tmp_path):
    # a degree-1 product has no chord family, so no skip names a curve; the
    # gate refuses it, naming the degree, before any solve
    src = tmp_path / "mobius.json"
    src.write_text('{"gamma": [1, 0], "zeros": [[0.2, 0]]}')

    def refuse(B, lams):
        raise AssertionError("solved a level set")

    monkeypatch.setattr(circle, "solve_levels", refuse)
    monkeypatch.setattr(poncelet, "solve_levels", refuse)
    assert cli.main(["curve", "--input", str(src), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "input error: skip must lie in [0, -1] for degree 1\n"
    )


def test_degree_one_decompose_has_no_elliptical_check(tmp_path):
    # the check reads the model space of B(z)/z, which is empty here
    src = tmp_path / "mobius.json"
    src.write_text('{"gamma": [1, 0], "zeros": [[0, 0]]}')
    r = run_cli("decompose", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"degree": 1, "divisors": []}


# ------------------------------------------------------------------ exit codes


def test_requires_exactly_one_source(tmp_path):
    assert run_cli("analyze", cwd=tmp_path).returncode == 2
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [1.0, 0.0], "zeros": [[0.0, 0.0]]}')
    both = run_cli(
        "analyze", "--input", str(src), "--demo", "power2", cwd=tmp_path
    )
    assert both.returncode == 2


def test_unknown_demo_is_an_input_error(tmp_path):
    r = run_cli("analyze", "--demo", "nosuch", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == (
        "input error: unknown demo 'nosuch'; choices: chain3, deg6elliptic, "
        "deg6nonelliptic, elliptical8, nonexample84, power2, power8\n"
    )


def test_missing_and_malformed_input_files(tmp_path):
    assert run_cli("analyze", "--input", str(tmp_path / "gone.json"), cwd=tmp_path).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert run_cli("analyze", "--input", str(bad), cwd=tmp_path).returncode == 2
    schema = tmp_path / "schema.json"
    schema.write_text('{"eggs": 3}')
    assert run_cli("analyze", "--input", str(schema), cwd=tmp_path).returncode == 2


@pytest.mark.parametrize("text", ["5", '"factors"', "[1, 2]", "null", "{bad"])
def test_input_that_is_no_json_object_is_one_input_error_line(tmp_path, text):
    # the input is read by core's JSON readers, so bad JSON and JSON that is
    # not an object both end in an InputError, never in a traceback
    src = tmp_path / "input.json"
    src.write_text(text)
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("factors", ["5", "null"])
def test_chain_factors_must_be_a_list(tmp_path, factors):
    src = tmp_path / "chain.json"
    src.write_text(f'{{"factors": {factors}}}')
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == 'input error: chain JSON needs a "factors" list\n'


def test_a_boolean_is_no_number_in_product_json(tmp_path):
    # json reads true as a bool, which complex() took for 1
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [true, false], "zeros": [[0.5, 0]]}')
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == (
        "input error: malformed product JSON: gamma must be a pair [re, im] "
        "of numbers, got [true, false]\n"
    )


def test_a_third_component_in_product_json_is_refused(tmp_path):
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [1, 0], "zeros": [[0.5, 0], [0.25, 0, 9]]}')
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == (
        "input error: malformed product JSON: zeros[1] must be a pair [re, im] "
        "of numbers, got [0.25, 0.0, 9.0]\n"
    )


def test_a_chain_refusal_names_the_factor(tmp_path):
    # each factor is read as a product, and its refusal names the factor too
    src = tmp_path / "chain.json"
    src.write_text(
        '{"factors": [{"gamma": [1, 0], "zeros": [[0, 0], [0.3, 0]]},'
        ' {"gamma": [1, 0], "zeros": [[0.2, 0, 1], [0, 0]]}]}'
    )
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == (
        "input error: malformed product JSON: factors[1].zeros[0] must be a pair "
        "[re, im] of numbers, got [0.2, 0.0, 1.0]\n"
    )


@pytest.mark.parametrize(
    "factor, refusal",
    [
        ('{"gamma": [1, 0], "zeros": [[1.5, 0]]}',
         "zero (1.5+0j) is not inside the open unit disk"),
        ('{"gamma": [2, 0], "zeros": [[0, 0], [0.5, 0]]}', "|gamma| = 2.0, must be 1"),
        ('{"gamma": [1, 0], "zeros": []}', "a Blaschke product needs at least one zero"),
    ],
)
def test_a_chain_factor_the_constructor_refuses_is_named(tmp_path, factor, refusal):
    # the product's own refusals name the factor as the JSON shape checks do
    src = tmp_path / "chain.json"
    src.write_text(
        f'{{"factors": [{{"gamma": [1, 0], "zeros": [[0, 0], [0.3, 0]]}}, {factor}]}}'
    )
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == f"input error: factors[1]: {refusal}\n"


def test_zero_outside_disk_rejected(tmp_path):
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [1.0, 0.0], "zeros": [[1.5, 0.0]]}')
    assert run_cli("analyze", "--input", str(src), cwd=tmp_path).returncode == 2


def test_bad_skip_and_empty_grid(tmp_path):
    r = run_cli("curve", "--demo", "power8", "--skip", "9", cwd=tmp_path)
    assert r.returncode == 2
    for command in ("curve", "package", "nrange"):
        r = run_cli(
            command, "--demo", "power8", "--lambda-samples", "0", cwd=tmp_path
        )
        assert r.returncode == 2, command
        assert r.stderr.startswith("input error: need at least"), command


def test_solver_failure_maps_to_exit_3(tmp_path):
    src = tmp_path / "crowded.json"
    src.write_text(
        '{"gamma": [1.0, 0.0],'
        ' "zeros": [[0.9999999999999, 0.0], [0.99999999999987, 1e-14]]}'
    )
    r = run_cli("analyze", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 3
    assert "solver failure" in r.stderr


def test_normalize_without_a_base_point_is_a_solver_failure(tmp_path):
    # for every beta the scan tries on this valid degree-64 product, B(beta)
    # lies within cluster_tol of a critical value: the scan gives up, which
    # is a solver limit and not an input error
    src = tmp_path / "deg64.json"
    src.write_text(product_json(random_product(rng_for(2026), 64)))
    r = run_cli("analyze", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 3
    assert r.stderr.startswith("solver failure: no regular base point")


EXIT_LADDER = {
    errors.BlaschkeError("x"): (3, "solver failure"),
    errors.InputError("x"): (2, "input error"),
    errors.DegenerateInput("x"): (2, "input error"),
    errors.GeometryFailure("x"): (2, "input error"),
    errors.PoleProximity(1.5 + 0j, 1e-13): (3, "solver failure"),
    errors.SolverFailure("x"): (3, "solver failure"),
    errors.CountMismatch(3, 2, "points"): (3, "solver failure"),
    errors.EigensolverFailure("x"): (3, "solver failure"),
    errors.TrackingFailure("x"): (3, "solver failure"),
    errors.VerificationFailure("x"): (4, "verification failure"),
    errors.NonBijective("x"): (4, "verification failure"),
}


def test_exit_code_ladder(monkeypatch, capsys):
    def boom(exc):
        def handler(obj, cfg):
            raise exc

        return handler

    # every error class of the package, the base class included, is listed
    classes = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.BlaschkeError)
    }
    assert {type(exc) for exc in EXIT_LADDER} == classes
    for exc, (code, prefix) in EXIT_LADDER.items():
        monkeypatch.setitem(cli.DISPATCH, "analyze", boom(exc))
        assert cli.main(["analyze", "--demo", "power2"]) == code
        assert capsys.readouterr().err == f"{prefix}: {exc}\n"


def test_nan_gamma_is_an_input_error(tmp_path):
    # json reads NaN, and every range check on it is False
    src = tmp_path / "nan.json"
    src.write_text('{"gamma": [NaN, 0.0], "zeros": [[0.0, 0.0], [0.5, 0.0]]}')
    r = run_cli("nrange", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == "input error: gamma (nan+0j) is not finite\n"
    assert r.stdout == ""


def test_decompose_runs_each_inner_factor_search_once(monkeypatch, capsys, tmp_path):
    # the quadratic chain peels (8, 2) and (4, 2); the divisor table and the elliptical
    # check ask again for (8, 2) and (8, 4) and get the kept results
    import blaschke.decompose as decompose
    from blaschke.core import _kept

    raw = decompose._inner_factor.__wrapped__
    calls = []

    @functools.wraps(raw)
    def counted(B, k):
        calls.append((B.degree, k))
        return raw(B, k)

    monkeypatch.setattr(decompose, "_inner_factor", _kept(counted))
    for demo in ("power8", "elliptical8", "nonexample84"):
        calls.clear()
        assert cli.main(["decompose", "--demo", demo, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(calls) == [(4, 2), (8, 2), (8, 4)], demo


def test_nrange_and_the_elliptical_check_drop_the_same_origin_zero(
    monkeypatch, capsys, tmp_path
):
    # nrange and the elliptical check, which decompose runs, read the
    # compressed shift of B/z from core._origin_dropped: the zero of least
    # modulus goes, not the first zero within identity_tol.  -0.4j has a
    # -0.0 real part, which the product file keeps
    import blaschke.decompose as decompose
    import blaschke.shiftop as shiftop

    B = blaschke.BlaschkeProduct(1.0, (1e-10 + 0j, 0j, 0.5 + 0j, -0.4j))
    path = tmp_path / "product.json"
    path.write_text(product_json(B))
    real = shiftop.shift_matrix
    built = []

    def recorded(zeros):
        A = real(zeros)
        built.append(A.entries.tobytes())
        return A

    monkeypatch.setattr(shiftop, "shift_matrix", recorded)
    monkeypatch.setattr(decompose, "shift_matrix", recorded)
    for command in ("nrange", "decompose"):
        assert cli.main([command, "--input", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
    assert "elliptical_check" in report
    decompose.elliptical_implies_decomposable_check(B)
    rest = real((1e-10 + 0j, 0.5 + 0j, -0.4j)).entries.tobytes()
    assert built == [rest] * 3


@pytest.mark.parametrize("demo", ["chain3", "elliptical8", "power8"])
def test_analyze_solves_critical_points_once_per_product(monkeypatch, capsys, demo):
    # the report, is_regularized, check_value_bound and normalize share the
    # solve of the input; the normalized product needs the second
    import blaschke.critical as critical

    real = critical._half_plane_zeros
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(critical, "_half_plane_zeros", counted)
    assert cli.main(["analyze", "--demo", demo]) == 0
    capsys.readouterr()
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["analyze", "invariants"])
def test_a_chain_is_expanded_once_per_run(monkeypatch, capsys, tmp_path, command):
    # the report and check_value_bound (analyze) or verify_generator_power
    # (invariants) read one expansion of the three-factor chain: two
    # compositions, not four
    import blaschke.core as core

    real = core.compose
    calls = []

    def counted(outer, inner):
        calls.append(1)
        return real(outer, inner)

    monkeypatch.setattr(core, "compose", counted)
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--demo", "chain3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2


@pytest.mark.parametrize(
    "flag", ["--tol-root", "--tol-cluster", "--tol-identity", "--tol-conic-residual"]
)
def test_tolerance_flags_are_not_accepted(capsys, flag):
    # every subcommand runs at the library tolerances
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--demo", "power2", flag, "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unclosed_polygon_is_a_verification_failure(monkeypatch, capsys, tmp_path):
    # a computed polygon that fails its closure certificate is not bad input
    real = circle._orbit

    def missed(points, z, count):
        orbit = real(points, z, count)
        return orbit[:-1] + (-orbit[-1],)

    monkeypatch.setattr(circle, "_orbit", missed)
    monkeypatch.setattr(poncelet, "_orbit", missed)
    for command in ("package", "curve"):
        code = cli.main([command, "--demo", "nonexample84", "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("verification failure:")
        assert "failed to close" in err


# ---------------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    a.mkdir()
    first = run_cli("package", "--demo", "nonexample84", "--out", str(a), cwd=a)
    files_first = {
        p.name: p.read_bytes() for p in sorted(a.iterdir()) if p.is_file()
    }
    second = run_cli("package", "--demo", "nonexample84", "--out", str(a), cwd=a)
    files_second = {
        p.name: p.read_bytes() for p in sorted(a.iterdir()) if p.is_file()
    }
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert files_first == files_second


# ------------------------------------------------------------- start-up cost


def test_demo_builders_agree_with_the_corpus():
    # the corpus keeps its names and order, and each entry is, to the bit,
    # what its own builder makes, taking no argument: the one a --demo run
    # calls alone
    corpus = cli.demo_corpus()
    assert list(corpus) == list(DEMOS) == list(cli.DEMO_BUILDERS)
    for name, item in corpus.items():
        built = cli.DEMO_BUILDERS[name]()
        assert type(built) is type(item)
        assert repr(built) == repr(item), name
    assert [f.zeros[1] for f in corpus["chain3"].factors] == [
        0.13760744476706951 + 0.26800061937351505j,
        0.4857242782846331 + 0.08400615624448605j,
        0.4373918087197892 - 0.004234764827409691j,
    ]


IMPORT_PROBE = """
import contextlib, io, json, sys
from blaschke import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main([sys.argv[1], "--demo", sys.argv[2], "--out", "out"])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""

# what each subcommand must not import: monodromy, poncelet and decompose
# are the costly modules, and no subcommand needs numpy.random, chain3 being
# a fixed chain
UNUSED_MODULES = {
    "analyze": {"blaschke.monodromy", "blaschke.poncelet", "blaschke.decompose"},
    "curve": {"blaschke.monodromy", "blaschke.decompose"},
    "package": {"blaschke.monodromy", "blaschke.decompose"},
    "invariants": {"blaschke.monodromy", "blaschke.decompose"},
    "nrange": set(),
    "decompose": set(),
    "monodromy": set(),
}


@pytest.mark.parametrize("command", sorted(UNUSED_MODULES))
def test_subcommands_import_only_their_modules(tmp_path, command):
    for demo in ("power2", "chain3"):
        r = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, command, demo],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["exit"] == 0
        loaded = set(report["modules"])
        assert "blaschke.cli" in loaded
        assert not loaded & (UNUSED_MODULES[command] | {"numpy.random"}), demo
