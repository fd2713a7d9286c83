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
from blaschke.decompose import chain_2n
import blaschke.errors as errors

from conftest import random_product, rng_for

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
    assert data["seed"] == 0xB1A5
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
    # samples of the generator-power check
    real = circle.solve_levels
    batches = []

    def counted(B, lams, *args, **kwargs):
        lams = list(lams)
        batches.append(len(lams))
        return real(B, lams, *args, **kwargs)

    monkeypatch.setattr(circle, "solve_levels", counted)
    assert cli.main(["invariants", "--demo", "chain3", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["generator_power"]["ok"] is True
    assert batches == [8, 64]


def test_invariants_accepts_found_chain(tmp_path):
    chain = chain_2n(cli.demo_corpus()["chain3"].expand()).chains[0].chain
    src = tmp_path / "chain.json"
    src.write_text(chain.to_json())
    r = run_cli("invariants", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    block = json.loads(r.stdout)["generator_power"]
    assert block["ok"] is True
    assert block["power"] == 4


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
    assert "unknown demo" in r.stderr


def test_missing_and_malformed_input_files(tmp_path):
    assert run_cli("analyze", "--input", str(tmp_path / "gone.json"), cwd=tmp_path).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert run_cli("analyze", "--input", str(bad), cwd=tmp_path).returncode == 2
    schema = tmp_path / "schema.json"
    schema.write_text('{"eggs": 3}')
    assert run_cli("analyze", "--input", str(schema), cwd=tmp_path).returncode == 2


@pytest.mark.parametrize("factors", ["5", "null"])
def test_chain_factors_must_be_a_list(tmp_path, factors):
    src = tmp_path / "chain.json"
    src.write_text(f'{{"factors": {factors}}}')
    r = run_cli("analyze", "--input", str(src), cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr == 'input error: chain JSON needs a "factors" list\n'


def test_zero_outside_disk_rejected(tmp_path):
    src = tmp_path / "p.json"
    src.write_text('{"gamma": [1.0, 0.0], "zeros": [[1.5, 0.0]]}')
    assert run_cli("analyze", "--input", str(src), cwd=tmp_path).returncode == 2


def test_bad_skip_and_empty_grid(tmp_path):
    r = run_cli("curve", "--demo", "power8", "--skip", "9", cwd=tmp_path)
    assert r.returncode == 2
    r = run_cli(
        "curve", "--demo", "power8", "--lambda-samples", "0", cwd=tmp_path
    )
    assert r.returncode == 2


def test_bad_seed_env(tmp_path):
    r = run_cli("demo", cwd=tmp_path, env={"BLASCHKE_SEED": "pelican"})
    assert r.returncode == 2


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
    src.write_text(random_product(rng_for(2026), 64).to_json())
    r = run_cli("analyze", "--input", str(src), "--out", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 3
    assert r.stderr.startswith("solver failure: no regular base point")


EXIT_LADDER = {
    errors.BlaschkeError("x"): (3, "solver failure"),
    errors.InputError("x"): (2, "input error"),
    errors.DegenerateInput("x"): (2, "input error"),
    errors.GeometryFailure("x"): (2, "input error"),
    errors.PoleProximity(1.5 + 0j, 1e-13): (3, "solver failure"),
    errors.NoInteriorFixedPoint("x"): (3, "solver failure"),
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
    # chain_2n peels (8, 2) and (4, 2); the divisor table and the elliptical
    # check ask again for (8, 2) and (8, 4) and get the kept results
    import blaschke.decompose as decompose

    real = decompose._orbit_pair
    calls = []

    def counted(B, hop, k, tol):
        calls.append((B.degree, k))
        return real(B, hop, k, tol)

    monkeypatch.setattr(decompose, "_orbit_pair", counted)
    for demo in ("power8", "elliptical8", "nonexample84"):
        decompose._inner_factor.cache_clear()
        calls.clear()
        assert cli.main(["decompose", "--demo", demo, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(calls) == [(4, 2), (8, 2), (8, 4)], demo


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
    critical._critical_data.cache_clear()
    assert cli.main(["analyze", "--demo", demo]) == 0
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
    real = poncelet.invariant_orbit

    def missed(B, z, count, tol=None):
        orbit = real(B, z, count, tol)
        return orbit[:-1] + (-orbit[-1],)

    monkeypatch.setattr(poncelet, "invariant_orbit", missed)
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


def test_seed_env_changes_the_random_chain(tmp_path):
    base = run_cli("demo", cwd=tmp_path)
    seeded = run_cli("demo", cwd=tmp_path, env={"BLASCHKE_SEED": "7"})
    assert base.returncode == seeded.returncode == 0
    d0 = json.loads(base.stdout)
    d7 = json.loads(seeded.stdout)
    assert d7["seed"] == 7
    chain0 = [r for r in d0["demos"] if r["name"] == "chain3"][0]
    chain7 = [r for r in d7["demos"] if r["name"] == "chain3"][0]
    assert chain0["definition"] != chain7["definition"]
    fixed0 = [r for r in d0["demos"] if r["name"] == "elliptical8"][0]
    fixed7 = [r for r in d7["demos"] if r["name"] == "elliptical8"][0]
    assert fixed0["definition"] == fixed7["definition"]
