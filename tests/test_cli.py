"""Config loading, deterministic report emission and the four subcommands."""

import copy
import csv
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import CONFIG_DIR
from fraccert.cli import (
    SchemaError,
    ValidationError,
    dumps_report,
    load_config,
    main,
)
from fraccert.kernel import kernel_values
from fraccert.solver import build_grid

REF = str(CONFIG_DIR / "reference.json")
NE_CFG = str(CONFIG_DIR / "nonexistence.json")

BASE = {
    "equations": [
        {"alpha": 1.5, "beta": 0.2, "eta": 0.75, "b": 0.775},
        {"alpha": 1.25, "beta": 0.4, "eta": 2.0 / 3.0, "b": 41.0 / 60.0},
    ],
    "nonlinearities": {"f1": "10", "f2": "10"},
    "options": {"conservative": True},
}


def write_config(tmp_path, mutate=None, name="cfg.json"):
    cfg = copy.deepcopy(BASE)
    if mutate is not None:
        mutate(cfg)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_reference_config(self):
        cfg = load_config(REF)
        assert cfg.params[0].alpha == 1.5 and cfg.params[0].b == 0.775
        assert cfg.params[1].eta == 2.0 / 3.0
        assert cfg.f_text == ("10", "10")
        assert cfg.options.conservative is True
        assert cfg.options.margin == 1e-9

    def test_missing_nonlinearity_is_schema_error(self, tmp_path):
        path = write_config(tmp_path, lambda c: c["nonlinearities"].pop("f2"))
        with pytest.raises(SchemaError) as info:
            load_config(path)
        assert any("/nonlinearities/f2" in msg for msg in info.value.errors)

    def test_bad_alpha_is_validation_error(self, tmp_path):
        path = write_config(tmp_path, lambda c: c["equations"][0].update(alpha=2.5))
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert info.value.errors[0].startswith("/equations/0")
        assert "alpha" in info.value.errors[0]

    def test_semantic_errors_aggregate(self, tmp_path):
        def mutate(c):
            c["equations"][0]["alpha"] = 2.5
            c["equations"][1]["beta"] = -1.0
            c["nonlinearities"]["f1"] = "2*(3"

        path = write_config(tmp_path, mutate)
        with pytest.raises(ValidationError) as info:
            load_config(path)
        prefixes = {msg.split(":")[0] for msg in info.value.errors}
        assert {"/equations/0", "/equations/1", "/nonlinearities/f1"} <= prefixes

    def test_schema_errors_aggregate(self, tmp_path):
        def mutate(c):
            c["extra"] = 1
            c["options"]["bogus"] = 2
            del c["equations"][0]["alpha"]

        path = write_config(tmp_path, mutate)
        with pytest.raises(SchemaError) as info:
            load_config(path)
        joined = "\n".join(info.value.errors)
        assert "/extra" in joined
        assert "/options/bogus" in joined
        assert "/equations/0/alpha" in joined

    def test_b_defaults_to_admissible_midpoint(self, tmp_path):
        def mutate(c):
            c["equations"][0] = {"alpha": 1.5, "beta": 0.5, "eta": 0.75}

        cfg = load_config(write_config(tmp_path, mutate))
        assert cfg.params[0].b == 0.875

    def test_b_falls_back_to_eta(self, tmp_path):
        # the midpoint 0.875 violates the interval condition for beta=0.2,
        # so the loader falls back to the always-admissible b = eta
        def mutate(c):
            c["equations"][0] = {"alpha": 1.5, "beta": 0.2, "eta": 0.75}

        cfg = load_config(write_config(tmp_path, mutate))
        assert cfg.params[0].b == 0.75

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_config(path)
        assert info.value.errors[0].startswith("/: not valid JSON")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_bad_quadrature_options(self, tmp_path):
        # the removed options.quadrature is an unknown key like any other
        path = write_config(
            tmp_path, lambda c: c["options"].update(quadrature={"panel_order": 1}))
        with pytest.raises(SchemaError) as info:
            load_config(path)
        assert info.value.errors == ["/options/quadrature: unknown key"]

    def test_negative_margin(self, tmp_path):
        path = write_config(tmp_path, lambda c: c["options"].update(margin=-1.0))
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert "/options/margin" in info.value.errors[0]

    def test_lipschitz_option_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path, lambda c: c["options"].update(lipschitz={"L1": 0.5, "L2": 1.5}))
        assert main(["constants", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "/options/lipschitz: unknown key" in captured.err


class TestDumpsReport:
    def test_frozen_rendering(self):
        report = {"b": 1.0, "a": [1, 2.5, "x"], "c": {"nested": True, "empty": {}},
                  "n": None}
        expected = (
            '{\n'
            '  "a": [\n'
            '    1,\n'
            '    2.5,\n'
            '    "x"\n'
            '  ],\n'
            '  "b": 1,\n'
            '  "c": {\n'
            '    "empty": {},\n'
            '    "nested": true\n'
            '  },\n'
            '  "n": null\n'
            '}\n'
        )
        assert dumps_report(report) == expected

    def test_float_roundtrip(self):
        x = 0.1 + 0.2
        text = dumps_report({"x": x})
        assert json.loads(text)["x"] == x

    def test_rejects_unserializable(self):
        with pytest.raises(ValueError):
            dumps_report({"x": math.inf})
        with pytest.raises(TypeError):
            dumps_report({1: 2})
        with pytest.raises(TypeError):
            dumps_report({"x": {3, 4}})


class TestConstantsCommand:
    def test_values_and_shape(self, capsys):
        assert main(["constants", "--config", REF]) == 0
        data = json.loads(capsys.readouterr().out)
        eqs = data["equations"]
        assert [e["equation"] for e in eqs] == [1, 2]
        assert data["conservative"] is True
        assert eqs[0]["m"] == pytest.approx(1.45221660205, rel=1e-9)
        assert eqs[0]["m_hat"] == pytest.approx(1.37052028558, rel=1e-9)
        assert eqs[0]["M"] == pytest.approx(7.67062889351, rel=1e-9)
        assert eqs[0]["M_hat"] == pytest.approx(84.1916883607, rel=1e-8)
        assert eqs[1]["m"] == pytest.approx(1.07332354424, rel=1e-9)
        assert eqs[1]["m_hat"] == pytest.approx(1.05881547717, rel=1e-9)
        assert eqs[1]["M"] == pytest.approx(3.8961055219, rel=1e-9)
        assert eqs[1]["M_hat"] == pytest.approx(482.544914595, rel=1e-8)
        assert eqs[0]["c"] == pytest.approx(0.018338002258036133, rel=1e-12)
        assert eqs[1]["c"] == pytest.approx(0.0025722429682660353, rel=1e-12)
        assert eqs[0]["alpha"] == 1.5 and eqs[1]["b"] == pytest.approx(41.0 / 60.0)

    def test_output_bytes_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(["constants", "--config", REF, "--out", str(out1)]) == 0
        stdout1 = capsys.readouterr().out
        assert main(["constants", "--config", REF, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text(encoding="utf-8") == stdout1

    def test_quadrature_option_rejected(self, tmp_path, capsys):
        # the removed key fails the run with exit 1 and its JSON pointer
        quad = write_config(tmp_path, lambda c: c["options"].update(
            quadrature={"abs_tol": 1e-6}), name="quad.json")
        assert main(["constants", "--config", quad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config rejected:" in captured.err
        assert "/options/quadrature: unknown key" in captured.err


class TestCertifyCommand:
    def test_ladder_success(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = main(["certify", "--config", REF, "--pattern", "S1",
                   "--ladder", "0.02,10", "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text(encoding="utf-8")) == report
        cert = report["certificate"]
        assert cert["pattern"] == "S1" and cert["solutions"] == 1
        assert cert["ladder"] == [[0.02, 0.02], [10.0, 10.0]]
        assert [c["kind"] for c in cert["conditions"]] == ["I0", "I0", "I1", "I1"]
        assert all(c["holds"] for c in cert["conditions"])
        assert report["warnings"] == []
        assert report["conservative"] is True

    def test_ladder_pair_form_matches(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["certify", "--config", REF, "--pattern", "S1",
              "--ladder", "0.02,10", "--out", str(out1)])
        main(["certify", "--config", REF, "--pattern", "S1",
              "--ladder", "0.02,0.02,10,10", "--out", str(out2)])
        a = json.loads(out1.read_text(encoding="utf-8"))
        b = json.loads(out2.read_text(encoding="utf-8"))
        assert a["certificate"] == b["certificate"]

    def test_condition_failed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="0", f2="0"))
        out = tmp_path / "cert.json"
        rc = main(["certify", "--config", cfg, "--pattern", "S1",
                   "--ladder", "0.02,10", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no certificate" in captured.err
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["certificate"] is None
        assert report["failure"]["kind"] == "I0"
        assert report["failure"]["equation"] == 1
        assert report["failure"]["rho"] == [0.02, 0.02]

    def test_nonexistence_failure_exit_2(self, capsys):
        rc = main(["certify", "--config", NE_CFG, "--pattern", "NE2",
                   "--box=0.01,10,0.01,10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no certificate" in captured.err
        report = json.loads(captured.out)
        assert report["certificate"] is None
        assert sorted(report["failure"]) == ["equation", "kind", "lhs", "threshold"]
        assert report["failure"]["kind"] == "NE2"

    def test_ladder_violation_exit_1(self, capsys):
        rc = main(["certify", "--config", REF, "--pattern", "S1", "--ladder", "1,1"])
        assert rc == 1
        assert "LadderOrderViolation" in capsys.readouterr().err

    def test_search_found(self, capsys):
        rc = main(["certify", "--config", REF, "--pattern", "S1",
                   "--search", "1e-3:1e3:13"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["ladder"][0][0] == pytest.approx(1e-3, rel=1e-12)
        assert cert["ladder"][1][0] == pytest.approx(10.0, rel=1e-9)

    def test_search_none_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="0", f2="0"))
        rc = main(["certify", "--config", cfg, "--pattern", "S1",
                   "--search", "0.1:10:5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.out)["message"] == "no certificate found"
        assert "no certificate found" in captured.err

    def test_ladder_and_search_conflict(self, capsys):
        rc = main(["certify", "--config", REF, "--pattern", "S1",
                   "--ladder", "0.02,10", "--search", "0.1:10:5"])
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_nonexistence_default_box(self, capsys):
        rc = main(["certify", "--config", NE_CFG, "--pattern", "NE1"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["pattern"] == "NONEXIST-1"
        assert cert["solutions"] == 0
        assert cert["ne_box"]["u_range"] == [-10.0, 10.0]
        assert cert["samples_per_axis"] == 41
        assert [c["kind"] for c in cert["conditions"]] == ["NE1", "NE1"]

    def test_nonexistence_custom_box(self, capsys):
        rc = main(["certify", "--config", NE_CFG, "--pattern", "NE1",
                   "--box=-5,5,-5,5", "--samples", "21"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["ne_box"]["u_range"] == [-5.0, 5.0]
        assert cert["samples_per_axis"] == 21
        assert cert["conditions"][0]["estimate"]["samples"] == 21 * 20 * 21

    def test_nonexistence_rejects_ladder(self, capsys):
        rc = main(["certify", "--config", NE_CFG, "--pattern", "NE1",
                   "--ladder", "1,2"])
        assert rc == 1
        assert "do not apply" in capsys.readouterr().err

    def test_negative_sample_warning(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f1="0.6*u", f2="0.5*abs(v)"))
        rc = main(["certify", "--config", cfg, "--pattern", "NE1"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("f1 sampled negative")
        assert "warning: f1 sampled negative" in captured.err

    def test_bad_box_flag(self, capsys):
        rc = main(["certify", "--config", NE_CFG, "--pattern", "NE1",
                   "--box", "1,2,3"])
        assert rc == 1

    # sha256 of stdout for the README's certify commands, recorded with
    # math.gamma thresholds and without the estimates' lipschitz_bound key
    @pytest.mark.parametrize("argv, code, digest", [
        ([REF, "--pattern", "S1", "--ladder", "0.02,10"], 0,
         "be9b8a580ea39b9b09809f8c4960a81844210313a0fa5e8bb5ac20356b82242f"),
        ([REF, "--pattern", "S3", "--search", "0.001:1000:13"], 2,
         "d937c0d63add24795d7ca7b4ae875d4556fe49ce77290e88dad5607f7fb71340"),
        ([NE_CFG, "--pattern", "NE1", "--box=-10,10,-10,10", "--samples", "41"], 0,
         "8155748f26fc5036a190d04038dff44817b071b796d59f1d55a1b8d703d9d0ea"),
    ], ids=["S1-ladder", "S3-search", "NE1-box"])
    def test_readme_reports_frozen(self, capsys, argv, code, digest):
        rc = main(["certify", "--config", *argv])
        out = capsys.readouterr().out
        assert rc == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSolveCommand:
    def test_constant_forcing(self, tmp_path, capsys, model1, model2, params1):
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "64", "--out", str(out)])
        assert rc == 0
        sidecar_text = out.with_suffix(".json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == sidecar_text
        meta = json.loads(sidecar_text)
        assert meta["converged"] is True
        assert meta["residual_sup"] <= 1e-12
        assert meta["grid_requested"] == 64
        assert meta["init"] == "const:0,0"
        assert [c["equation"] for c in meta["cone"]] == [1, 2]
        assert all(c["in_cone"] for c in meta["cone"])

        grid = build_grid((model1, model2), 64)
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid.nodes.size == meta["nodes"]
        ts = np.array([float(r["t"]) for r in rows])
        us = np.array([float(r["u"]) for r in rows])
        assert np.array_equal(ts, grid.nodes)
        a, g = params1.alpha, math.gamma(params1.alpha + 1.0)
        exact = 10.0 * (params1.beta + (params1.eta**a - ts**a) / g)
        assert np.max(np.abs(us - exact)) < 1e-7

    def test_output_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            assert main(["solve", "--config", REF, "--grid", "32",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_nonconvergence_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f1="3*u + 1", f2="3*v + 1"))
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", cfg, "--grid", "16", "--max-iter", "30",
                   "--damping", "1.0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not converged" in captured.err
        assert json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))[
            "converged"] is False
        assert out.exists()

    def test_file_init_restarts_converged(self, tmp_path):
        first = tmp_path / "first.csv"
        assert main(["solve", "--config", REF, "--grid", "32",
                     "--out", str(first)]) == 0
        second = tmp_path / "second.csv"
        rc = main(["solve", "--config", REF, "--grid", "32",
                   "--init", f"file:{first}", "--out", str(second)])
        assert rc == 0
        meta = json.loads(second.with_suffix(".json").read_text(encoding="utf-8"))
        assert meta["iterations"] <= 1
        assert meta["init"] == f"file:{first}"

    def test_const_init_form(self, tmp_path):
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "16",
                   "--init", "const:0.7,0.9", "--out", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("init", ["garbage", "const:1", "file:/nonexistent.csv"])
    def test_bad_init_exit_1(self, tmp_path, init, capsys):
        rc = main(["solve", "--config", REF, "--grid", "16", "--init", init,
                   "--out", str(tmp_path / "sol.csv")])
        assert rc == 1

    def test_init_file_needs_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        rc = main(["solve", "--config", REF, "--grid", "16",
                   "--init", f"file:{bad}", "--out", str(tmp_path / "sol.csv")])
        assert rc == 1
        assert "columns t,u,v" in capsys.readouterr().err

    def test_grid_too_small_exit_1(self, tmp_path, capsys):
        rc = main(["solve", "--config", REF, "--grid", "4",
                   "--out", str(tmp_path / "sol.csv")])
        assert rc == 1


class TestKernelCommand:
    def test_dump_matches_kernel(self, tmp_path, params1):
        out = tmp_path / "k.csv"
        rc = main(["kernel", "--config", REF, "--which", "1", "--grid", "5",
                   "--out", str(out)])
        assert rc == 0
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert float(rows[0]["t"]) == 0.0 and float(rows[0]["s"]) == 0.0
        assert float(rows[0]["k"]) == pytest.approx(1.17720502381, abs=1e-9)
        assert float(rows[0]["phi"]) == pytest.approx(1.17720502381, abs=1e-9)
        assert float(rows[-1]["k"]) == pytest.approx(0.2, abs=1e-12)
        assert float(rows[-1]["phi"]) == pytest.approx(0.364189583548, abs=1e-9)
        ss = np.linspace(0.0, 1.0, 5)
        for t in np.linspace(0.0, 1.0, 5):
            expected = kernel_values(params1, float(t), ss)
            got = [float(r["k"]) for r in rows if float(r["t"]) == t]
            assert np.array_equal(np.asarray(got), expected)

    def test_which_choice_enforced(self, tmp_path, capsys):
        rc = main(["kernel", "--config", REF, "--which", "3", "--grid", "5",
                   "--out", str(tmp_path / "k.csv")])
        assert rc == 1

    def test_grid_validated(self, tmp_path, capsys):
        rc = main(["kernel", "--config", REF, "--which", "1", "--grid", "1",
                   "--out", str(tmp_path / "k.csv")])
        assert rc == 1


class TestDispatch:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["constants", "--config", REF, "--nope"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["constants", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_oversized_grid_is_one_error_line(self, capsys):
        # 100000^3 float64 samples are 7.11 PiB; numpy refuses before allocating
        rc = main(["certify", "--config", REF, "--pattern", "NE1", "--samples", "100000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Unable to allocate" in err

    def test_config_errors_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda c: c["equations"][0].update(alpha=2.5))
        assert main(["constants", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config rejected:" in err
        assert "/equations/0" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "fraccert" in capsys.readouterr().out
