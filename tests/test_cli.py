import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bvsharp import build_domain, geometry, half_space_constant, two_valued_quotient_exact
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
        assert summary["theorem"] == "Prop 3.1"
        assert summary["threshold"] == pytest.approx(half_space_constant(2), rel=1e-12)
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

    def test_domain_sweep_scans_each_circle_once(self, tmp_path):
        # Per radius the sweep asks for the cap and the arc itself and again
        # through the quotient: four requests, one scan.
        geometry._circle_crossings.cache_clear()
        config = make_config(
            {"task": "domain-sweep", "out": str(tmp_path), "shape": "ellipse", "a": 2.0,
             "b": 1.0, "h": 1.0 / 64, "eps_min": 0.1, "eps_max": 0.4, "eps_count": 5}
        )
        assert run(config) == 0
        info = geometry._circle_crossings.cache_info()
        assert (info.misses, info.hits) == (5, 15)

    def test_solve_task_history_columns(self, tmp_path):
        config = make_config(
            {"task": "solve", "out": str(tmp_path), "shape": "disk", "h": 1.0 / 64,
             "q": 1.0, "budget": 8, "restarts": 0, "seed": 1}
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

    def test_square_domain_yields_diagnostic(self, tmp_path, capsys):
        status = main([
            "domain-certificate", "--out", str(tmp_path / "x"),
            "--shape", "square", "--h", "0.004",
        ])
        assert status == 2
        assert "curvature" in capsys.readouterr().err

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
