import ast
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bvsharp import build_domain, cli, geometry, half_space_constant, two_valued_quotient_exact
from bvsharp.cli import ConfigError, main, make_config, parse_config, run


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def read_detail(out_dir):
    with open(out_dir / "detail.csv") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_minimal_constants_config(self):
        config = parse_config("task = constants\nn_max = 5")
        assert config.task == "constants"
        assert config.n_max == 5

    def test_comments_and_blank_lines(self):
        config = parse_config(
            "# experiment\n\ntask = constants  # trailing comment\nn_max = 3\n"
        )
        assert config.n_max == 3

    def test_sweep_config(self):
        text = (
            "task = domain-sweep\nshape = ellipse\na = 2\nb = 1\nq = 1\n"
            "eps_min = 0.02\neps_max = 0.4"
        )
        config = parse_config(text)
        assert config.shape == "ellipse"
        assert config.eps_max == 0.4

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ConfigError, match="q"):
            parse_config("task = solve\nq = 2.5")

    @pytest.mark.parametrize("key", ["wibble", "eps", "run_solver"])
    def test_unknown_key_carries_line_number(self, key):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"task = constants\n{key} = 3")

    @pytest.mark.parametrize("key", ["step", "decay", "smoothing", "tol"])
    def test_former_solver_keys_are_unknown(self, key, tmp_path, capsys):
        # The descent schedule is fixed in the solver; neither a config
        # line nor a flag can set it.
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"task = solve\n{key} = 0.1")
        status = main(["solve", "--out", str(tmp_path / "x"), f"--{key}", "0.1"])
        assert status == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("task constants")

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config("task = frobnicate")

    def test_list_values(self):
        config = parse_config("task = sphere-certificate\nq_list = 0.25, 0.5, 1.0")
        assert config.q_list == (0.25, 0.5, 1.0)

    def test_range_violations_name_the_field(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_config("task = solve\nbudget = 0")
        with pytest.raises(ConfigError, match="h"):
            parse_config("task = solve\nh = -0.1")

    def test_unknown_shape_and_surface_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            parse_config("task = domain-sweep\nshape = hexagon")
        with pytest.raises(ConfigError, match="surface"):
            parse_config("task = surface-classify\nsurface = klein-bottle")

    def test_q_list_rejected_for_single_exponent_tasks(self):
        with pytest.raises(ConfigError, match="q_list"):
            parse_config("task = solve\nq_list = 0.5, 1.0")
        parse_config("task = sphere-certificate\nq_list = 0.5, 1.0")  # fine here


class TestRunTasks:
    def test_constants_task(self, tmp_path):
        config = make_config({"task": "constants", "out": str(tmp_path), "n_max": 5})
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["schema_version"] == 1
        assert summary["c_star_2"] == pytest.approx(3.5449077018110318, abs=1e-12)
        rows = read_detail(tmp_path)
        assert rows[0] == ["n", "omega_n", "c_star", "c_half"]
        assert len(rows) == 5  # header + n = 2..5

    def test_sphere_certificate_task(self, tmp_path):
        config = make_config(
            {"task": "sphere-certificate", "out": str(tmp_path), "q_list": (0.5, 1.0, 1.5)}
        )
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["value"] == pytest.approx(3.5449077018110318, abs=1e-12)
        assert summary["residual"] == 0.0
        assert summary["equals_c_star"] is True
        assert len(read_detail(tmp_path)) == 4

    def test_domain_certificate_task_with_witness_revalidation(self, tmp_path):
        config = make_config(
            {"task": "domain-certificate", "out": str(tmp_path),
             "shape": "disk", "r": 1.0, "h": 1.0 / 64, "q": 1.0}
        )
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["achieved"] is True
        assert summary["gap"] > 0
        assert summary["gap"] == summary["witness"]["threshold"] - summary["best_quotient"]
        assert summary["theorem"] == "Prop 3.1"
        assert summary["flag"] == "achieved (Prop 3.1 + Prop 3.5)"
        assert summary["threshold"] == pytest.approx(half_space_constant(2), rel=1e-12)
        assert summary["witness"]["threshold"] == pytest.approx(half_space_constant(2),
                                                                rel=1e-15, abs=0)
        # Any achieved report must ship a witness that revalidates through
        # the library.
        witness = summary["witness"]
        domain = build_domain(config.domain_spec(), config.h)
        revalidated = two_valued_quotient_exact(
            domain, witness["center"], witness["eps"], witness["q"]
        )
        assert revalidated.value < witness["threshold"]
        assert revalidated.value == pytest.approx(witness["quotient"], rel=1e-9)

    def test_domain_sweep_task(self, tmp_path):
        config = make_config(
            {"task": "domain-sweep", "out": str(tmp_path), "shape": "disk",
             "h": 1.0 / 64, "eps_min": 0.1, "eps_max": 0.4, "eps_count": 4}
        )
        assert run(config) == 0
        rows = read_detail(tmp_path)
        assert rows[0] == ["eps", "cap", "arc", "beta", "quotient", "gap"]
        assert len(rows) == 5
        summary = read_summary(tmp_path)
        assert summary["best_quotient"] < half_space_constant(2)

    def test_domain_sweep_reports_an_overflowing_plateau(self, tmp_path):
        # At q = 0.005 and eps = 1.99, beta = (V/W)^200 lies beyond the float
        # range, though the quotient does not: the row reads beta = inf.
        status = main(["domain-sweep", "--out", str(tmp_path), "--shape", "disk",
                       "--h", "0.015625", "--q", "0.005", "--eps_list", "0.5,1.99"])
        assert status == 0
        rows = read_detail(tmp_path)
        assert [row[0] for row in rows[1:]] == ["0.5", "1.99"]
        domain = build_domain(geometry.DomainSpec.disk(1.0), 1.0 / 64)
        qv = two_valued_quotient_exact(domain, (1.0, 0.0), 1.99, 0.005)
        assert rows[2][3] == "inf"
        assert rows[2][4] == repr(qv.value) == "7.721078294494291"

    def test_domain_sweep_scans_each_circle_once(self, tmp_path, monkeypatch):
        # Per radius the sweep asks for the cap and the arc itself and again
        # through the quotient: four requests, one scan, one cap quadrature.
        geometry._circle_measures.cache_clear()
        integrals = [0]
        green = geometry._green_boundary_integral

        def counted(*args):
            integrals[0] += 1
            return green(*args)

        monkeypatch.setattr(geometry, "_green_boundary_integral", counted)
        config = make_config(
            {"task": "domain-sweep", "out": str(tmp_path), "shape": "ellipse", "a": 2.0,
             "b": 1.0, "h": 1.0 / 64, "eps_min": 0.1, "eps_max": 0.4, "eps_count": 5}
        )
        assert run(config) == 0
        info = geometry._circle_measures.cache_info()
        assert (info.misses, info.hits) == (5, 15)
        assert integrals[0] == 5

    def test_geometry_memos_keep_the_last_op_only(self, tmp_path):
        # One op reads one spec and one centre, so each geometry memo holds
        # one entry, and each op samples its boundary and tabulates its
        # centre once.
        memos = (geometry._boundary_samples, geometry._centre_table, geometry._circle_measures)
        for memo in memos:
            memo.cache_clear()
        for name, shape in (("disk", []), ("ellipse", ["--shape", "ellipse", "--a", "2"])):
            assert main(["domain-certificate", "--out", str(tmp_path / name), "--h", "0.015625",
                         *shape]) == 0
        assert [memo.cache_info().currsize for memo in memos] == [1, 1, 1]
        assert [memo.cache_info().misses for memo in memos[:2]] == [2, 2]

    @pytest.mark.parametrize("task", ["domain-certificate", "domain-sweep"])
    def test_certificate_tasks_build_no_raster(self, task, tmp_path, monkeypatch):
        # The interior mask is built on first read; only the solver reads it.
        built = []
        build = geometry.build_domain

        def recorded(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(geometry, "build_domain", recorded)
        config = make_config({"task": task, "out": str(tmp_path), "shape": "ellipse",
                              "a": 2.0, "b": 1.0, "h": 1.0 / 64, "eps_count": 3})
        assert run(config) == 0
        assert len(built) == 1 and "interior_mask" not in built[0].__dict__

    def test_solve_task_history_columns(self, tmp_path):
        config = make_config(
            {"task": "solve", "out": str(tmp_path), "shape": "disk", "h": 1.0 / 64,
             "q": 1.0, "budget": 8, "seed": 1}
        )
        assert run(config) == 0
        rows = read_detail(tmp_path)
        assert rows[0] == ["iter", "quotient", "residual", "tv", "norm"]
        summary = read_summary(tmp_path)
        assert summary["value"] <= summary["seed_value"] * 1.15
        assert summary["iterations"] == len(rows) - 1

    def test_surface_classify_task(self, tmp_path):
        config = make_config(
            {"task": "surface-classify", "out": str(tmp_path),
             "surface": "spheroid", "a": 1.0, "c": 1.3, "q": 1.5}
        )
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["verdict"] == "achieved"
        assert summary["justification"] == "Thm7"
        gb = summary["gauss_bonnet"]
        assert abs(gb["integral"] - gb["target"]) <= 1e-3 * gb["target"]
        # achieved verdicts ship a witness whose hypothesis revalidates
        witness = summary["witness"]
        assert witness["chi"] == 2
        assert witness["S_spread"] > 0
        assert witness["S_a"] == pytest.approx(3.38, rel=1e-9)

    def test_surface_classify_flat_torus(self, tmp_path):
        config = make_config(
            {"task": "surface-classify", "out": str(tmp_path),
             "surface": "torus", "L1": 1.0, "L2": 1.0, "q": 1.5}
        )
        run(config)
        summary = read_summary(tmp_path)
        assert summary["verdict"] == "inconclusive"

    def test_expansion_audit_domain(self, tmp_path):
        config = make_config(
            {"task": "expansion-audit", "target": "domain-quotient",
             "out": str(tmp_path), "shape": "disk", "h": 1.0 / 128}
        )
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["relative_error"] <= 0.15
        assert summary["target_coefficient"] == pytest.approx(-0.5319230405352435, abs=1e-9)

    @pytest.mark.parametrize("q, valid", [(1.0, True), (1.5, False)])
    def test_expansion_audit_flags_its_validity(self, tmp_path, q, valid):
        # The linear term leads only while 2 (2 - q) / q > 1, that is q < 4/3;
        # at q = 1.5 the fitted coefficient is off by a relative error of 4.2.
        config = make_config(
            {"task": "expansion-audit", "target": "domain-quotient",
             "out": str(tmp_path), "shape": "disk", "h": 1.0 / 128, "q": q}
        )
        assert run(config) == 0
        assert read_summary(tmp_path)["expansion_valid"] is valid

    def test_expansion_audit_gray(self, tmp_path):
        config = make_config(
            {"task": "expansion-audit", "target": "gray", "out": str(tmp_path)}
        )
        assert run(config) == 0
        summary = read_summary(tmp_path)
        assert summary["ball_order"] >= 3.5
        assert summary["circle_order"] >= 3.5


class TestConfigKeys:
    def test_every_key_is_read_outside_validation(self):
        # A key read only by _validate changes no output: a dead key.
        tree = ast.parse(Path(cli.__file__).read_text())
        read = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name != "_validate":
                read |= {node.attr for node in ast.walk(func)
                         if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id in ("config", "self")}
        keys = {field.name for field in dataclasses.fields(cli.ExperimentConfig)}
        assert keys - read == set()

    def test_seed_changes_no_solve_output(self, tmp_path):
        outputs = []
        for seed in (0, 3):
            out = tmp_path / str(seed)
            run(make_config({"task": "solve", "out": str(out), "h": 1.0 / 64, "budget": 8,
                             "seed": seed}))
            summary = read_summary(out)
            assert summary.pop("seed") == seed
            outputs.append((summary, (out / "detail.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            config = make_config(
                {"task": "domain-sweep", "out": str(out), "shape": "disk",
                 "h": 1.0 / 64, "eps_min": 0.1, "eps_max": 0.4, "eps_count": 4}
            )
            run(config)
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "detail.csv").read_bytes() == (out_b / "detail.csv").read_bytes()


# sha256 of summary.json and detail.csv of one small run of every task.
# The digests pin output bytes across refactors; a change that alters
# outputs on purpose records new digests here.  They depend on the float
# results of this platform's libm and numpy build.
GOLDEN_RUNS = {
    "constants": (["--n_min", "2", "--n_max", "12"],
                  "5533fb7f09a40a75d46de2284537039ee3507a1ac6ec6f51e2e12146b38f1f33",
                  "0889d16af4e6c79669902c456268d8590a154c7a364f78bede4e0feca3d64c6d"),
    "sphere-certificate": (["--q_list", "0.01,0.5,1,1.5,1.99"],
                           "3cd2d5541cf62556cb9c651932ab569fb9740045119dc9d95b602e9d1dc2e6a4",
                           "31f82cca23391229dfd1c58eeffa6776bbae305f774f7018fa8e264f2387db66"),
    "domain-certificate": (["--shape", "ellipse", "--a", "2", "--b", "1", "--h", "0.015625",
                            "--q", "0.5"],
                           "4a4565047320046ebeb2ff211eb05ef924cb6609c35156821151a4ab449e8060",
                           "f85bafca70c1ae0548af38b60422450ef7052a6f444c60f5d2c677a19e08c662"),
    # The 1.99 row has a finite beta whose square overflows.
    "domain-sweep": (["--shape", "disk", "--h", "0.015625", "--q", "0.01",
                      "--eps_list", "0.1,0.5,1,1.99"],
                     "3e8c259357c4e0b987bdc4bf44f53576fe591818f55dc25a73a67f62669c20dd",
                     "9b34519908d7bc82633dac229b3e873e113eb343984c7f9a20678487498833cd"),
    "solve": (["--shape", "disk", "--h", "0.015625", "--q", "1", "--budget", "8"],
              "f6c0c26be8a8f24db6e59ee84e6ef061b93307900b01083bcb8fb095ae033d84",
              "a7a9b319af3c8b1957657e5bb03e0adb21f943e0cacb5ce53aac67f9c5cfbed9"),
    "surface-classify": (["--surface", "spheroid", "--a", "1", "--c", "1.3",
                          "--q_list", "0.5,1,1.5"],
                         "d4f72ceac810ae1352870839a2e9b5c51627f111cca7e509ab49f0366009edc3",
                         "832f25c41fcad04ad31c24a0635a0bb7b67110248be55904a21964eb8eebb44f"),
    "expansion-audit": (["--target", "gray", "--r", "1.5", "--eps_list", "0.05,0.1,0.2,0.4"],
                        "ffb97d11dc082da0ce5531dddaa77fea2f9bd1e5663ffd30a28b55ba6fbdce64",
                        "40662b5adacb5e4c769c34c2eb0bbdc40ea4a54c004be21c7dde14ef37249e13"),
}


def _output_digests(out_dir):
    return [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("summary.json", "detail.csv")]


@pytest.mark.parametrize("task", sorted(GOLDEN_RUNS))
def test_output_bytes_match_the_golden_digests(task, tmp_path):
    flags, summary_digest, detail_digest = GOLDEN_RUNS[task]
    assert main([task, "--out", str(tmp_path), *flags]) == 0
    assert _output_digests(tmp_path) == [summary_digest, detail_digest]


def test_golden_runs_cover_every_task():
    assert sorted(GOLDEN_RUNS) == sorted(cli.TASKS)


# Surfaces whose curvature no GOLDEN_RUNS entry reaches: the round sphere
# (constant S = 2/r^2) and the flat torus (S = 0).
CURVATURE_RUNS = {
    "sphere": (["--surface", "sphere", "--q_list", "0.5,1,1.5"],
               "64e364b3adf376bf90a33411eb4fcff00b3779156c8429d3b727cc4310550705",
               "ca17e9211e6d1cd9ce4d5468861f433d9f6693b3e07af62712cbc6e8dbc5c3ee"),
    "torus": (["--surface", "torus", "--L1", "0.5", "--L2", "1"],
              "0660e76f19d0d9778170b555d6dc2f58fda04b84f7fa1609f5c55345923da1ae",
              "1bdfc2319a59ae05f8e0312bde078fa196109559c9d70fcfadf427ee0b91c19b"),
}


@pytest.mark.parametrize("surface", sorted(CURVATURE_RUNS))
def test_surface_classify_bytes_match_the_curvature_digests(surface, tmp_path):
    flags, summary_digest, detail_digest = CURVATURE_RUNS[surface]
    assert main(["surface-classify", "--out", str(tmp_path), *flags]) == 0
    assert _output_digests(tmp_path) == [summary_digest, detail_digest]


# The solver's Illinois-shift path, which the q = 1 GOLDEN_RUNS entry
# does not reach.
SOLVE_RUNS = {
    "0.5": ("ce1b5a0a832dcb6da66ee041829b68c7cc583595021545e42d2a778bc3b28588",
            "c37a9491d4b6569e8f89d6a6b7b2b9443921e8a3536a6b720c7e370e83e6c64d"),
    "1.5": ("dc581adc66ab891872138d16980ff859e965f28abd47cab95b896bffff1a3128",
            "f8ed613ca9929147fc4ac4aa0215be368523b8c79bad21b4b2d2ff2d43996803"),
}


@pytest.mark.parametrize("q", sorted(SOLVE_RUNS))
def test_solve_bytes_match_the_shift_digests(q, tmp_path):
    summary_digest, detail_digest = SOLVE_RUNS[q]
    assert main(["solve", "--out", str(tmp_path), "--shape", "disk", "--h", "0.015625",
                 "--q", q, "--budget", "8"]) == 0
    assert _output_digests(tmp_path) == [summary_digest, detail_digest]


# The domain-quotient audit, at its default radii; GOLDEN_RUNS pins only
# the gray target.
AUDIT_RUNS = {
    "ellipse": (["--shape", "ellipse", "--a", "2", "--b", "1", "--h", "0.015625", "--q", "1"],
                "868d64d08e97e7a25d56f19ccde09667450d95ae8e98dd595569fe6ad7c0f914",
                "a7d9d4d9fd19357cfe50e1523d09260159ee3c6d717d63982f39db12164f6cb3"),
    "disk": (["--shape", "disk", "--h", "0.015625", "--q", "0.5"],
             "3a5e2e58be8c9ccdc386ab0ada84c1c224da3fc786392da5b37476a626471bc9",
             "be8a373dd70d47d20f943c92dc5ee8f1d56bb8c4ef1bde2cc8640e6de7f90d60"),
}


@pytest.mark.parametrize("shape", sorted(AUDIT_RUNS))
def test_domain_audit_bytes_match_the_audit_digests(shape, tmp_path):
    flags, summary_digest, detail_digest = AUDIT_RUNS[shape]
    assert main(["expansion-audit", "--target", "domain-quotient", "--out", str(tmp_path),
                 *flags]) == 0
    assert _output_digests(tmp_path) == [summary_digest, detail_digest]


class TestMainEntryPoint:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task = constants\nn_max = 3\nout = should_not_be_used\n")
        out = tmp_path / "flagged"
        status = main(["constants", "--config", str(cfg), "--out", str(out), "--n_max", "4"])
        assert status == 0
        rows = read_detail(out)
        assert len(rows) == 4  # header + n = 2..4

    def test_task_positional_overrides_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("task = solve\n")
        out = tmp_path / "out"
        status = main(["constants", "--config", str(cfg), "--out", str(out)])
        assert status == 0
        assert read_summary(out)["task"] == "constants"

    def test_invalid_value_yields_nonzero_exit(self, tmp_path, capsys):
        status = main(["solve", "--out", str(tmp_path / "x"), "--q", "2.5"])
        assert status == 2
        assert "q" in capsys.readouterr().err

    def test_surface_q_out_of_range_names_the_dimension(self, tmp_path, capsys):
        # The check covers surfaces as well as planar domains: both are n = 2.
        status = main(["surface-classify", "--out", str(tmp_path / "x"), "--q_list", "0.5,2.5"])
        assert status == 2
        err = capsys.readouterr().err
        assert "q_list: q must lie in (0, 2.0), got 2.5" in err
        assert "planar" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--q", "2.5"], "q: q must lie in (0, 2.0), got 2.5"),
        (["solve", "--q", "nan"], "q: q must lie in (0, 2.0), got nan"),
        (["sphere-certificate", "--q_list", "0.5,0"], "q_list: q must lie in (0, 2.0), got 0.0"),
        (["constants", "--n_min", "1"], "n_min: dimension must be >= 2, got 1"),
        (["domain-sweep", "--eps_list", "0.1,-0.2"], "eps_list: eps must be positive, got -0.2"),
        (["domain-sweep", "--eps_list", "0.1,inf"], "eps_list: eps must be finite, got inf"),
        # NaN and inf passed the old comparisons and failed later without the key.
        (["domain-sweep", "--eps_min", "nan"], "eps_min: eps must be finite, got nan"),
        (["domain-sweep", "--eps_max", "inf"], "eps_max: eps must be finite, got inf"),
        (["domain-sweep", "--eps_min", "-0.1"], "eps_min: eps must be positive, got -0.1"),
    ])
    def test_theory_rules_name_the_key(self, argv, message, tmp_path, capsys):
        # The same rules as the library's entry points, prefixed with the key.
        status = main([*argv, "--out", str(tmp_path / "x")])
        assert status == 2
        assert capsys.readouterr().err == f"bv-sharp: error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [
        # A model that is not in use: these exited 0 and wrote their reports.
        (["surface-classify", "--surface", "sphere", "--c", "nan", "--a", "nan"],
         "a: a must be finite, got nan"),
        (["surface-classify", "--surface", "sphere", "--c", "nan"],
         "c: c must be finite, got nan"),
        (["constants", "--L1", "nan", "--h", "nan"], "h: h must be finite, got nan"),
        (["constants", "--L2", "inf"], "L2: L2 must be finite, got inf"),
        (["solve", "--h", "-0.1"], "h: h must be positive, got -0.1"),
        (["domain-sweep", "--r0", "0"], "r0: r0 must be positive, got 0.0"),
    ])
    def test_every_model_parameter_names_the_key(self, argv, message, tmp_path, capsys):
        status = main([*argv, "--out", str(tmp_path / "x")])
        assert status == 2
        assert capsys.readouterr().err == f"bv-sharp: error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_negative_seed_names_the_key(self, tmp_path, capsys):
        status = main(["solve", "--out", str(tmp_path / "x"), "--seed", "-1",
                       "--h", "0.015625"])
        assert status == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_square_domain_yields_diagnostic(self, tmp_path, capsys):
        status = main([
            "domain-certificate", "--out", str(tmp_path / "x"),
            "--shape", "square", "--h", "0.004",
        ])
        assert status == 2
        assert "curvature" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cause", [
        (["domain-certificate", "--r", "inf"], "r: r must be finite, got inf"),
        (["domain-certificate", "--r", "nan"], "r: r must be finite, got nan"),
        (["domain-certificate", "--h", "nan"], "h: h must be finite, got nan"),
        (["domain-certificate", "--shape", "ellipse", "--a", "inf"],
         "a: a must be finite, got inf"),
        (["domain-certificate", "--h", "1e-320"], "h=1e-320 gives a non-finite cell count"),
        (["domain-certificate", "--r", "1e308"], "disk boundary curvature is not finite"),
        (["constants", "--n_min", "340", "--n_max", "343"],
         "Gamma(172.0) lies beyond the float range"),
        # The four below exited 0 with a wrong number (a Gauss-Bonnet integral
        # of 26.23 against 8 pi, a fit through one radius) or named the
        # wrong cause (a negative cap measure).
        (["domain-sweep", "--shape", "ellipse", "--a", "2", "--b", "1", "--h", "0.01",
          "--eps_list", "3e-16"], "eps=3e-16 of the circle centred at (2.0, 0.0) lies below "
                                  "the resolution floor"),
        (["surface-classify", "--surface", "spheroid", "--a", "1", "--c", "1000"],
         "spheroid a=1.0, c=1000.0: the Gauss-Bonnet integral is not resolved"),
        (["expansion-audit", "--target", "gray", "--eps_list", "0.1,0.1"],
         "radii must be distinct for an order fit"),
        (["expansion-audit", "--target", "domain-quotient", "--eps_list", "0.1,0.1"],
         "radii must be distinct for a coefficient fit"),
    ], ids=["r-inf", "r-nan", "h-nan", "ellipse-a-inf", "h-subnormal", "r-overflow",
            "constants-gamma-overflow", "sweep-below-radius-floor", "gauss-bonnet-unresolved",
            "gray-repeated-radii", "domain-quotient-repeated-radii"])
    def test_non_finite_shape_input_names_its_cause(self, argv, cause, tmp_path, capsys):
        status = main([*argv, "--out", str(tmp_path / "x")])
        assert status == 2
        assert cause in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_overflowing_curvature_names_the_radius(self, tmp_path, capsys):
        # (r^2)^(3/2) overflows for r = 1e154: the curvature would read 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["domain-certificate", "--out", str(tmp_path / "x"),
                           "--r", "1e154", "--h", "1e150"])
        assert status == 2
        assert "disk boundary radius 1e+154 is too large" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, cause", [
        (["--r", "1e-200"], "sphere r=1e-200: r^2 = 0.0"),
        (["--r", "1e160"], "sphere r=1e+160: r^2 = inf"),
        (["--surface", "spheroid", "--a", "1e-200"], "spheroid a=1e-200, c=1.0: a^4 = 0.0"),
        (["--surface", "spheroid", "--a", "1e160"], "spheroid a=1e+160, c=1.0: a^4 = inf"),
        (["--surface", "spheroid", "--a", "1e-80"],
         "spheroid a=1e-80, c=1.0: polar scalar curvature 2c^2/a^4 = inf"),
        (["--surface", "spheroid", "--c", "1e100"],
         "spheroid a=1.0, c=1e+100: max(a, c)^4 = inf"),
    ], ids=["sphere-tiny", "sphere-huge", "spheroid-a-tiny", "spheroid-a-huge",
            "spheroid-curvature-overflow", "spheroid-integrand-overflow"])
    def test_surface_model_out_of_float_range_names_its_cause(self, flags, cause, tmp_path,
                                                              capsys):
        # These crashed with a traceback, or wrote an infinite curvature or a
        # Gauss-Bonnet integral of 0 against 8 pi.
        status = main(["surface-classify", "--out", str(tmp_path / "x"), "--a", "1", "--c", "1",
                       *flags])
        assert status == 2
        assert cause + " is not finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_stray_token_rejected(self, tmp_path, capsys):
        status = main(["constants", "stray"])
        assert status == 2


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the command-line
    # entry point (and with it every module of the package) loads no scipy.
    # Every task runs serially, so no thread pool is loaded either.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = (
        "import sys, bvsharp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print('concurrent.futures' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "False"]


def test_import_loads_only_numpy_core():
    # `import bvsharp.cli` loads no numpy submodule that `import numpy`
    # alone does not: the panel rule's Gauss-Legendre table is literal, so
    # numpy.polynomial (nine modules) stays out of every process.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = (
        "import sys, numpy; core = set(sys.modules); import bvsharp.cli; "
        "print(sorted(m for m in set(sys.modules) - core if m.split('.')[0] == 'numpy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", f"extra numpy modules: {result.stdout.strip()}"
