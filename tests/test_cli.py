"""Config loading, deterministic report emission and the four subcommands."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraccert
from conftest import CONFIG_DIR
from fraccert import cli
from fraccert.certify import Box3, ConditionFailed, check_nonexistence
from fraccert.cli import (
    SchemaError,
    ValidationError,
    _csv_text,
    dumps_report,
    load_config,
    main,
)
from fraccert.exprlang import MAX_DEPTH
from fraccert.kernel import RANGE, in_range, kernel_values
from fraccert.solver import build_grid
from test_exprlang import NESTED_SHAPES, nested

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

PICARD_F = {"f1": "0.75*(1 + 0.4*sin(u)) + 0.2*cos(v)",
            "f2": "0.75*(1 + 0.3*cos(u)) + 0.2*sin(v)"}


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

    def test_b_falls_back_to_eta(self, tmp_path, capsys):
        # the midpoint 0.875 violates the interval condition for beta=0.2,
        # so the loader falls back to the always-admissible b = eta
        def mutate(c):
            c["equations"][0] = {"alpha": 1.5, "beta": 0.2, "eta": 0.75}

        path = write_config(tmp_path, mutate)
        assert load_config(path).params[0].b == 0.75
        assert main(["constants", "--config", path]) == 0
        assert '"b": 0.75,' in capsys.readouterr().out

    def test_omitted_b_without_admissible_default(self, tmp_path, capsys):
        # eta = 0 makes the fallback b = eta a point interval; the message
        # names the omission and the admissible range, not a b never written
        def mutate(c):
            c["equations"][0] = {"alpha": 1.5, "beta": 0.2, "eta": 0.0}

        assert main(["constants", "--config", write_config(tmp_path, mutate)]) == 1
        err = capsys.readouterr().err
        hi = (0.2 * math.gamma(1.5)) ** 2
        assert "config rejected:" in err
        assert "/equations/0: interval end b was omitted" in err
        assert f"set b in (0.0, {hi!r})" in err
        assert "got 0.0" not in err

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

    def test_neg_is_not_a_config_function(self, tmp_path, capsys):
        # unary minus parses to a call of "neg", which a config cannot write
        path = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="neg(u)"))
        assert main(["constants", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "config rejected:\n  /nonlinearities/f1: unknown function 'neg' (at offset 0)\n")

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


def _set(path, value):
    """A config mutation that sets (or, for value None, deletes) one key path."""
    def mutate(cfg):
        *parents, last = path
        for key in parents:
            cfg = cfg[key]
        if value is None:
            del cfg[last]
        else:
            cfg[last] = value
    return mutate


class TestSchemaMessages:
    """Every structural message, its exact text, and their order."""

    @pytest.mark.parametrize("mutate, message", [
        (_set(["extra"], 1), "/extra: unknown key"),
        (_set(["equations"], None), "/equations: must be a list of exactly 2 entries"),
        (_set(["equations"], [{}]), "/equations: must be a list of exactly 2 entries"),
        (_set(["equations", 1], [1.5]), "/equations/1: must be an object"),
        (_set(["equations", 0, "gamma"], 1.0), "/equations/0/gamma: unknown key"),
        (_set(["equations", 1, "beta"], None), "/equations/1/beta: required key missing"),
        (_set(["equations", 0, "alpha"], "1.5"), "/equations/0/alpha: must be a finite number"),
        (_set(["equations", 0, "eta"], True), "/equations/0/eta: must be a finite number"),
        (_set(["equations", 1, "b"], "0.7"), "/equations/1/b: must be a finite number"),
        (_set(["equations", 0, "b"], float("nan")), "/equations/0/b: must be a finite number"),
        (_set(["nonlinearities"], ["10", "10"]),
         "/nonlinearities: must be an object with keys f1, f2"),
        (_set(["nonlinearities"], None), "/nonlinearities: must be an object with keys f1, f2"),
        (_set(["nonlinearities", "f3"], "1"), "/nonlinearities/f3: unknown key"),
        (_set(["nonlinearities", "f1"], None), "/nonlinearities/f1: required key missing"),
        (_set(["nonlinearities", "f1"], 10), "/nonlinearities/f1: must be a string expression"),
        (_set(["options"], []), "/options: must be an object"),
        (_set(["options", "tol"], 1), "/options/tol: unknown key"),
        (_set(["options", "conservative"], 1), "/options/conservative: must be a boolean"),
        (_set(["options", "margin"], "0"), "/options/margin: must be a finite number"),
        (_set(["options", "margin"], False), "/options/margin: must be a finite number"),
    ])
    def test_message(self, tmp_path, mutate, message):
        with pytest.raises(SchemaError) as info:
            load_config(write_config(tmp_path, mutate))
        assert info.value.errors == [message]

    def test_message_order(self, tmp_path):
        def mutate(cfg):
            cfg["zz"] = 0
            cfg["aa"] = 0
            cfg["equations"][0] = {"zeta": 1, "b": True, "alpha": "x", "a": 0}
            cfg["equations"][1] = "eq"
            cfg["nonlinearities"] = {"f2": 2, "g": "", "a": ""}
            cfg["options"] = {"z": 0, "margin": None, "conservative": "yes", "a": 0}

        with pytest.raises(SchemaError) as info:
            load_config(write_config(tmp_path, mutate))
        assert info.value.errors == [
            "/aa: unknown key",
            "/zz: unknown key",
            "/equations/0/a: unknown key",
            "/equations/0/zeta: unknown key",
            "/equations/0/alpha: must be a finite number",
            "/equations/0/beta: required key missing",
            "/equations/0/eta: required key missing",
            "/equations/0/b: must be a finite number",
            "/equations/1: must be an object",
            "/nonlinearities/a: unknown key",
            "/nonlinearities/g: unknown key",
            "/nonlinearities/f1: required key missing",
            "/nonlinearities/f2: must be a string expression",
            "/options/a: unknown key",
            "/options/z: unknown key",
            "/options/conservative: must be a boolean",
            "/options/margin: must be a finite number",
        ]

    def test_top_level_message(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_config(path)
        assert info.value.errors == ["/: top level must be a JSON object"]

    def test_cli_lists_messages(self, tmp_path, capsys):
        cfg = write_config(tmp_path, _set(["equations", 0, "alpha"], "1.5"))
        assert main(["constants", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "config rejected:\n  /equations/0/alpha: must be a finite number\n")


def _nested_run(tmp_path, shape, levels, command):
    """Run ``command`` on the reference config with f1 nested ``levels`` deep."""
    cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1=nested(shape, levels)[0]))
    flags = {"constants": [], "certify": ["--pattern", "S1", "--ladder", "0.02,10"],
             "solve": ["--grid", "16", "--out", str(tmp_path / "sol.csv")]}[command]
    return main([command, "--config", cfg, *flags])


class TestNestingDepth:
    @pytest.mark.parametrize("command", ["constants", "certify", "solve"])
    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_at_the_limit_runs(self, tmp_path, capsys, shape, command):
        assert _nested_run(tmp_path, shape, MAX_DEPTH, command) in (0, 2)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["constants", "certify", "solve"])
    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_one_past_the_limit_exit_1(self, tmp_path, capsys, shape, command):
        assert _nested_run(tmp_path, shape, MAX_DEPTH + 1, command) == 1
        offset = nested(shape, MAX_DEPTH + 1)[1]
        assert capsys.readouterr().err == (
            f"config rejected:\n  /nonlinearities/f1: expression nests deeper than "
            f"{MAX_DEPTH} levels (at offset {offset})\n")


class TestDumpsReport:
    def test_frozen_rendering(self):
        report = {"b": 1.0, "a": [1, 2.5, "x"], "c": {"nested": True, "empty": {}},
                  "n": None, "p": (0.5, [], False)}
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
            '  "n": null,\n'
            '  "p": [\n'
            '    0.5,\n'
            '    [],\n'
            '    false\n'
            '  ]\n'
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
        with pytest.raises(TypeError, match=r"^report keys must be strings, got 1$"):
            dumps_report({1: 2})
        with pytest.raises(TypeError, match=r"^cannot serialize set into a report$"):
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

    # sha256 of stdout: the reference config (m at t = 0 for both equations)
    # and reference equation 2 paired with a tuple whose m sits at t = 1
    @pytest.mark.parametrize("first, digest", [
        (None, "1e3919bbe8b4dd6edef02e83ccbb5e3d501c918ad3608b4be68ee97a9f8ed548"),
        ({"alpha": 1.09, "beta": 0.007, "eta": 0.39, "b": 0.39},
         "14d7a628d4d44338dd28e8030e5ebeb4a2bd9975a6d7a2bfa516e9e17bd099ab"),
    ], ids=["reference", "sup-at-one"])
    def test_reports_frozen(self, tmp_path, capsys, first, digest):
        path = REF
        if first is not None:
            cfg = json.loads((CONFIG_DIR / "reference.json").read_text(encoding="utf-8"))
            cfg["equations"][0] = first
            path = tmp_path / "sup_at_one.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["constants", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert [e["t_star_m"] for e in json.loads(out)["equations"]] == (
            [0, 0] if first is None else [1, 0])
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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

    def test_nonexistence_plane_failure_exit_2(self, tmp_path, capsys):
        # f = 1e-9 grows below m_i * |w_i| off the slab but is positive on u = 0
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="1e-9", f2="1e-9"))
        rc = main(["certify", "--config", cfg, "--pattern", "NE1", "--box=-10,10,-10,10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert json.loads(captured.out)["failure"] == {
            "kind": "NE1", "equation": 1, "lhs": 1e-9, "threshold": 0.0}
        assert captured.err == ("no certificate: condition NE1 failed for equation 1 "
                                "on the plane u = 0: lhs 1e-09 vs threshold 0\n")

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

    @pytest.mark.parametrize("argv, err", [
        (["--pattern", "NE1", "--box=-0.001,0.001,-0.001,0.001"],
         "condition NE1 for equation 1: growth ratio f1/|u| overflows"),
        (["--pattern", "NE2", "--box=0.000000001,0.001,0.000000001,0.001"],
         "condition NE2 for equation 1: growth ratio f1/|u| overflows"),
        (["--pattern", "S1", "--ladder", "1e-10,1e100"],
         "condition I0 for equation 1: f1/rho_1 overflows"),
    ], ids=["NE1", "NE2", "S1"])
    def test_overflowing_ratio_exit_1(self, tmp_path, capsys, argv, err):
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="1e306", f2="1e306"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["certify", "--config", cfg, *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {err}\n"

    def test_nonexistence_failure_before_overflow_exit_2(self, tmp_path, capsys):
        # equation 1 fails NE1, so equation 2's overflowing ratio 1e306/|v| is never sampled
        cfg = write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f1="100*abs(u)", f2="1e306"))
        rc = main(["certify", "--config", cfg, "--pattern", "NE1", "--box=-10,10,-0.001,0.001"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "condition NE1 failed for equation 1" in captured.err
        assert "overflows" not in captured.err

    def test_fault_past_a_failing_scan_exit_2(self, tmp_path, capsys):
        # the coarse scan fails I1 for equation 1, so round 1, whose u step 1/256
        # would hit the pole u = 1/256, never runs
        cfg = write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f1="u + 1/(u - 0.00390625)"))
        rc = main(["certify", "--config", cfg, "--pattern", "S2", "--ladder", "1,2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ("no certificate: condition I1 failed for equation 1: "
                                "lhs 17.1292 vs threshold 1.37052\n")
        assert "DivisionByZero" not in captured.err

    @pytest.mark.parametrize("argv, err", [
        (["NE1", "--box=a,1,2,3"], "--box: could not convert string to float: 'a'"),
        (["S1", "--search", "1:x:3"], "--search: could not convert string to float: 'x'"),
        (["S1", "--search", "1:10:2.5"],
         "--search: invalid literal for int() with base 10: '2.5'"),
        (["S1", "--ladder", "a,b"], "--ladder: could not convert string to float: 'a'"),
        # numbers past the one input range: 0, or magnitude in [2^-480, 2^480]
        (["NE1", "--box=-1e308,1e308,-1,1"], "--box: -1e+308 is neither 0 nor of magnitude"),
        (["NE1", "--box=0,5e-324,-1,1"], "--box: 5e-324 is neither 0 nor of magnitude"),
        (["S1", "--ladder", "1e-10,1e300"], "--ladder: 1e+300 is neither 0 nor of magnitude"),
        (["S2", "--ladder", "1,1e306"], "--ladder: 1e+306 is neither 0 nor of magnitude"),
        (["S2", "--ladder", "1e308,1.5e308"], "--ladder: 1e+308 is neither 0 nor of magnitude"),
        (["S1", "--ladder", "2e306,1,1.5e308,1000"],
         "--ladder: 2e+306 is neither 0 nor of magnitude"),
        (["S2", "--search", "1:1e306:3"], "--search: 1e+306 is neither 0 nor of magnitude"),
        (["S1", "--search", "1:inf:3"], "--search: inf is neither 0 nor of magnitude"),
        (["S1", "--search", "1e-300:1e300:5"], "--search: 1e-300 is neither 0 nor of magnitude"),
        (["S1", "--search", "3:1.7976931348623157e308:3"],
         "--search: 1.7976931348623157e+308 is neither 0 nor of magnitude"),
    ], ids=["box", "search-float", "search-int", "ladder", "box-width", "box-subnormal",
            "ladder-ratio", "ladder-I0", "ladder-I1", "ladder-I0star", "search-I0",
            "search-inf", "search-ends", "search-top"])
    def test_bad_flag_value_is_named_exit_1(self, capsys, argv, err):
        if "magnitude" in err:
            err += " in [2^-480, 2^480]"
        rc = main(["certify", "--config", REF, "--pattern", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {err}\n"

    def test_ladder_wrong_count_exit_1(self, capsys):
        rc = main(["certify", "--config", REF, "--pattern", "S1", "--ladder", "0.02,0.03,10"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ValueError: --ladder needs 2 radii (shared) or 4 (per-equation pairs), "
            "got 3\n")

    def test_malformed_search_exit_1(self, capsys):
        rc = main(["certify", "--config", REF, "--pattern", "S1", "--search", "0.1:10"])
        assert rc == 1
        assert capsys.readouterr().err == "error: ValueError: --search expects lo:hi:points\n"

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

    # sha256 of stdout for report shapes the digests above miss, recorded
    # from the field-by-field report dicts: unequal radii per equation, an
    # NE2 failure, NE3 mixing NE1 and NE2, and the starred fallback taken
    # by equation 2 (f1 = 0 fails index 0 for equation 1 even starred)
    @pytest.mark.parametrize("f, argv, code, kinds, digest", [
        (None, [REF, "--pattern", "S1", "--ladder", "0.02,0.03,10,12"], 0,
         [("I0star", 1), ("I1", 1), ("I1", 2)],
         "2e9f422dc66067e3700a5cdc5e8fca2967a3a4196c44ed99435d5b33e3564666"),
        (None, [NE_CFG, "--pattern", "NE2", "--box=0.01,10,0.01,10"], 2, None,
         "c3f93b3a9ce3e60d9ee0c5096fe099dfd7f14d4e0deb44b0254843f414b057d7"),
        ({"f1": "0.6*abs(u)", "f2": "600*abs(v)"}, ["--pattern", "NE3"], 0,
         [("NE1", 1), ("NE2", 2)],
         "7f9d48f3d21aaa6698edcd21e532a6288ba6ecab4efdbde727da6ed6bb28e55c"),
        ({"f1": "0", "f2": "10"}, ["--pattern", "S1", "--ladder", "0.02,10"], 0,
         [("I0star", 2), ("I1", 1), ("I1", 2)],
         "e5ebc20b587db9f249fee1ce87045d1dff1cfc6058f205aa4cf4000872856176"),
    ], ids=["S1-per-equation-ladder", "NE2-failure", "NE3-mixed", "S1-star-equation-2"])
    def test_report_shapes_frozen(self, tmp_path, capsys, f, argv, code, kinds, digest):
        if f is not None:
            argv = [write_config(tmp_path, lambda c: c["nonlinearities"].update(f)), *argv]
        rc = main(["certify", "--config", *argv])
        out = capsys.readouterr().out
        assert rc == code
        cert = json.loads(out)["certificate"]
        assert kinds == (None if cert is None else
                         [(c["kind"], c["equation"]) for c in cert["conditions"]])
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

    @pytest.mark.parametrize("name", ["out.csv", "out", "out."])
    def test_sidecar_replaces_the_extension(self, tmp_path, capsys, name):
        rc = main(["solve", "--config", REF, "--grid", "8", "--out", str(tmp_path / name)])
        assert rc == 0
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({name, "out.json"})

    def test_output_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            assert main(["solve", "--config", REF, "--grid", "32",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_csv_bytes_match_csv_writer(self):
        # the formatted rows against the csv.writer rows they replaced
        t = np.array([0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1.0])
        u = np.array([-0.0, 1e308, -1e308, 3.0, 1e16])
        v = np.array([2.0, -5e-324, 1e-310, -1.0, 0.1])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "u", "v"])
        for row in zip(t, u, v):
            writer.writerow([f"{float(x):.17g}" for x in row])
        assert _csv_text("t,u,v", (t, u, v)) == buf.getvalue()

    def test_csv_names_the_first_non_finite_value(self):
        # the first in row order: v of row 1 comes before u of row 2
        t = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="^cannot serialize non-finite float nan$"):
            _csv_text("t,u,v", (t, np.array([1.0, 1.0, np.inf]), np.array([1.0, np.nan, 1.0])))

    def test_interval_end_far_below_the_first_cell(self, tmp_path, capsys):
        # near alpha = 1 with eta = 0 every admissible b is below 1e-19; as
        # a node it made a cell that overflowed the interpolation basis
        def mutate(c):
            c["equations"][0] = {"alpha": 1.0625, "beta": 0.06459413757360319,
                                 "eta": 0.0, "b": 2.710505431213761e-20}

        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", write_config(tmp_path, mutate), "--grid", "64",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        meta = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert meta["converged"] and meta["nodes"] == meta["grid_requested"] == 64
        assert all(c["in_cone"] for c in meta["cone"])

    def test_nonconvergence_exit_2(self, tmp_path, capsys):
        # u^2 + 10 has no fixed point on this grid (the certificate is in
        # test_solver's test_divergent_iteration_is_flagged), so no number of
        # steps converges; the affine 3u + 1 used here before is solved
        cfg = write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f1="u*u + 10", f2="v*v + 10"))
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

    @pytest.mark.parametrize("init", ["garbage", "const:1", "file:/nonexistent.csv", "short-row"])
    def test_bad_init_exit_1(self, tmp_path, init, capsys):
        if init == "short-row":  # its missing v reads as None
            short = tmp_path / "short.csv"
            short.write_text("t,u,v\n0,1\n0.25,1,1\n0.5,1,1\n1,1,1\n", encoding="utf-8")
            init = f"file:{short}"
        rc = main(["solve", "--config", REF, "--grid", "16", "--init", init,
                   "--out", str(tmp_path / "sol.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unparsable_const_init_is_named_exit_1(self, tmp_path, capsys):
        rc = main(["solve", "--config", REF, "--grid", "16", "--init", "const:x,1",
                   "--out", str(tmp_path / "sol.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ValueError: --init: could not convert string to float: 'x'\n")

    @pytest.mark.parametrize("init", ["const:1e144,1e144", "const:3e144,-3e144"])
    def test_huge_init_no_warning(self, tmp_path, capsys, init):
        # differences up to 2 RANGE = 2^481 keep the Gram row finite, mixing
        # stays on, and no RuntimeWarning is printed
        out = tmp_path / "sol.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", REF, "--grid", "16", "--init", init,
                       "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["converged"] is True
        assert "Warning" not in captured.err

    @pytest.mark.parametrize("init, value", [
        ("const:nan,0", "nan"), ("const:1e999,0", "inf"), ("const:0,-inf", "-inf"),
        ("const:1e160,1e160", "1e+160"), ("const:1e300,-1e300", "1e+300"),
        ("const:1.7e308,-1.7e308", "1.7e+308"), ("const:0,-5e-324", "-5e-324"),
        ("t,u,v\n0,1,1\n0.25,1,1\n0.5,nan,1\n1,1,1\n", "nan"),
        # distinct t rows 5e-324 apart would underflow the interpolation denominators
        ("t,u,v\n0,1,1\n5e-324,1,1\n1e-323,1,1\n1,1,1\n", "5e-324"),
        ("t,u,v\n0,1,1\n0.25,1,1\n0.5,1,1e160\n1,1,1\n", "1e+160"),
    ], ids=["nan", "inf", "-inf", "1e160", "1e300", "1.7e308", "subnormal", "file-nan",
            "file-subnormal-t", "file-1e160"])
    def test_init_out_of_range_exit_1(self, tmp_path, init, value, capsys):
        flag = "--init"
        if init.startswith("t,u,v"):
            bad = tmp_path / "bad.csv"
            bad.write_text(init, encoding="utf-8")
            init, flag = f"file:{bad}", f"--init file {bad}"
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "16", "--init", init, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: ValueError: {flag}: {value} is neither 0 "
                                           "nor of magnitude in [2^-480, 2^480]\n")
        assert not out.exists()

    def test_init_file_repeated_t_exit_1(self, tmp_path, capsys):
        # two rows at t = 0.5 would make the interpolation divide by zero
        rep = tmp_path / "rep.csv"
        rep.write_text("t,u,v\n0,1,1\n0.5,1,1\n0.5,2,1\n1,1,1\n", encoding="utf-8")
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "16",
                   "--init", f"file:{rep}", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: --init file {rep} repeats t = 0.5\n")
        assert not out.exists()

    def test_init_file_needs_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        rc = main(["solve", "--config", REF, "--grid", "16",
                   "--init", f"file:{bad}", "--out", str(tmp_path / "sol.csv")])
        assert rc == 1
        assert "columns t,u,v" in capsys.readouterr().err

    def test_init_file_close_spacing_exit_1(self, tmp_path, capsys):
        # distinct t rows 2^-470 apart underflow the interpolation denominators
        near = tmp_path / "near.csv"
        near.write_text("t,u,v\n0,1,1\n1e-141,1,1\n2e-141,1,1\n3e-141,1,1\n1,1,1\n",
                        encoding="utf-8")
        out = tmp_path / "sol.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", REF, "--grid", "16",
                       "--init", f"file:{near}", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: --init file {near} does not interpolate to finite values "
            "(t rows too close together, or values too large)\n")
        assert not out.exists()

    def test_init_file_needs_four_rows(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("t,u,v\n0,1,1\n0.5,1,1\n1,1,1\n", encoding="utf-8")
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "16",
                   "--init", f"file:{short}", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: --init file {short} needs at least 4 rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["inf", "1e999"])
    def test_infinite_tol_exit_1(self, tmp_path, capsys, tol):
        # an infinite tol would "converge" at step 0 and write the CSV, and
        # only the sidecar would then fail, on serializing tol = inf
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", "16", "--tol", tol, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ValueError: tol must be finite and > 0, got inf\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("equation, f, init", [
        ({"alpha": 1.0206346419407315, "beta": 0.4793025377737877, "eta": 0.9144134652258156,
          "b": 0.9144134652258157}, {"f1": "1.7e308"}, "const:0,0"),
        (None, {"f1": "1e200"}, "const:0,0"),
        (None, {"f1": "u", "f2": "u"}, "const:3e144,-3e144"),
    ], ids=["W-f", "T", "T-minus-x"])
    def test_overflowing_defect_exit_1(self, tmp_path, capsys, equation, f, init):
        # W f (1/m = 1.38 here) passes the largest double, or T(x) or T(x) - x
        # passes 2^480: one named line, raised before any file is written, and
        # no RuntimeWarning
        def mutate(c):
            c["nonlinearities"].update(f)
            if equation is not None:
                c["equations"][0] = equation

        cfg = write_config(tmp_path, mutate)
        (tmp_path / "out").mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", cfg, "--grid", "16", "--init", init,
                       "--out", str(tmp_path / "out" / "sol.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ValueError: T(x) or T(x) - x passes 2^480 at iteration 0\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("n", [8, 801, 3201])
    def test_grid_end_to_end(self, tmp_path, capsys, n):
        # on every numpy build, where the frozen digests need numpy 2: at 8 nodes
        # the first four columns, the Toeplitz part and the last row overlap;
        # 3201 nodes in O(n) storage, where two dense weight matrices took 164 MB
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", REF, "--grid", str(n), "--out", str(out)])
        meta = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert meta["converged"] and meta["nodes"] == n
        assert len(out.read_text(encoding="utf-8").splitlines()) == n + 1

    def test_grid_too_small_exit_1(self, tmp_path, capsys):
        rc = main(["solve", "--config", REF, "--grid", "4",
                   "--out", str(tmp_path / "sol.csv")])
        assert rc == 1

    # sha256 of stdout followed by the CSV bytes, for the reference config
    # and for picard_warm's state-dependent forcings at amplitude 0.75; the
    # transforms and the power, sin and cos loops round per numpy build, and
    # these were recorded with numpy 2.4 (C++ pocketfft) on x86-64
    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="digests recorded with numpy 2's pocketfft")
    @pytest.mark.parametrize("f, argv, digest", [
        (None, ["--grid", "8"],
         "31d3b9bd85b881555ad61052c562e971e9dcd50bfac6d7072f2cce0998f44d19"),
        (None, ["--grid", "201"],
         "1e17ec6c4e1b17df0393a62a595f373b878c5c1fffb6b43b33e146865d782c29"),
        (None, ["--grid", "801"],
         "b04c625c890252b0bf8bf3b871c05cccf90fd17abd98e8e6c8992c3ded9c3a46"),
        (PICARD_F, ["--grid", "8", "--damping", "0.7"],
         "b2607a8e96aad8bf108e161971341a1df4a5ccaf45860216dbbd48f7110c0e2a"),
        (PICARD_F, ["--grid", "201", "--damping", "0.7"],
         "42e2a1e7098626565f71aa6ffe6791f2bde8e7784f540f98b3e3a225156ef2d3"),
        (PICARD_F, ["--grid", "801", "--damping", "0.7"],
         "a7bff76cbc5beb8b78f20f8032dccac6eed9e606ff717b6f00d3de639f15ca24"),
    ], ids=["reference-8", "reference-201", "reference-801", "picard-8", "picard-201",
            "picard-801"])
    def test_solutions_frozen(self, tmp_path, capsys, f, argv, digest):
        cfg = REF if f is None else write_config(
            tmp_path, lambda c: c["nonlinearities"].update(f))
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--config", cfg, *argv, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert hashlib.sha256(stdout.encode("utf-8") + out.read_bytes()).hexdigest() == digest


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

    # sha256 of the dump of each reference equation at --grid 101, recorded
    # from the csv.writer rendering
    @pytest.mark.parametrize("which, digest", [
        ("1", "098c81646a8b49907eb9520860b10f3863aa53c4bbf1d37da0fcf7e0dd02781d"),
        ("2", "c1f17d31a4f6b110dd4f6aeadbcf35e9bd0f91bb6b1b63a8c6d33131e7559686"),
    ], ids=["eq1", "eq2"])
    def test_dump_frozen(self, tmp_path, which, digest):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--config", REF, "--which", which, "--grid", "101",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_dump_is_streamed(self, tmp_path):
        # one block of rows per t goes to the file: the whole n^2-row text
        # held in memory peaked at about 158 bytes per row
        n = 401
        tracemalloc.start()
        try:
            rc = main(["kernel", "--config", REF, "--which", "1", "--grid", str(n),
                       "--out", str(tmp_path / "k.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak <= 48 * n * n

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

    def test_oversized_grid_is_one_error_line(self, tmp_path, capsys):
        # only parts that mix variables fill the grid; t*u is the first, and
        # its 2e6 x 2e6 float64 samples are 29 TiB, so numpy refuses before
        # allocating (the 8e18-sample grid still has a shape numpy can hold)
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f1="10 + t*u*v"))
        rc = main(["certify", "--config", cfg, "--pattern", "NE1", "--samples", "2000000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Unable to allocate" in err

    def test_one_variable_ratio_never_fills_the_grid(self, capsys, base_problem):
        # f1 = 10 makes NE1 scan 10/|u| on the u axis alone: 10^15 samples
        # are counted, none allocated
        rc = main(["certify", "--config", REF, "--pattern", "NE1", "--samples", "100000"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["failure"]["kind"] == "NE1"
        box = Box3((0.0, 1.0), (-10.0, 10.0), (-10.0, 10.0))
        with pytest.raises(ConditionFailed) as info:
            check_nonexistence(base_problem, 1, box, 100000)
        assert info.value.result.estimate.samples == 10**15

    def test_grid_past_the_intp_range_is_never_broadcast(self, capsys):
        # 5e6-point axes make a 1.25e20-sample grid, more than numpy can
        # give a shape; f1 = 10 scans 10/|u| on the u axis alone
        rc = main(["certify", "--config", REF, "--pattern", "NE1", "--samples", "5000000"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["failure"]["kind"] == "NE1"

    def test_unread_axes_are_never_built(self):
        # f1 = 10 reads no variable, so NE1 builds the u axis alone: the
        # run's peak RSS was 226 MB with all three 5e6-point axes built.
        # VmHWM is the child's own peak; ru_maxrss would keep this process's.
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status")
        code = ("import contextlib, io\n"
                "from fraccert.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = main(['certify', '--config', {REF!r}, '--pattern', 'NE1',"
                " '--samples', '5000000'])\n"
                f"print(rc, *[line.split()[1] for line in open({str(status)!r})"
                " if line.startswith('VmHWM:')])\n")
        src = str(Path(fraccert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, check=True, timeout=300)
        rc, peak_kb = map(int, child.stdout.split())
        assert rc == 2
        assert peak_kb / 1024 < 180

    @pytest.mark.parametrize("command", [
        ["constants"], ["certify", "--pattern", "S1", "--ladder", "0.02,10"],
        ["solve", "--grid", "16"], ["kernel", "--which", "1", "--grid", "5"],
    ], ids=["constants", "certify", "solve", "kernel"])
    def test_missing_out_directory_named_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                         command):
        monkeypatch.setattr(cli, "load_config", lambda path: pytest.fail("the work began"))
        out = tmp_path / "a" / "x"
        rc = main([command[0], "--config", REF, *command[1:], "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"error: ValueError: --out {out}: its directory does not exist\n")
        assert list(tmp_path.iterdir()) == []

    def test_config_errors_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda c: c["equations"][0].update(alpha=2.5))
        assert main(["constants", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config rejected:" in err
        assert "/equations/0" in err

    @pytest.mark.parametrize("command", [["constants"], ["solve", "--grid", "16"]])
    def test_point_interval_rejected(self, tmp_path, capsys, command):
        # eta = b = 0 makes [0, b] a point; both commands reject it as config
        cfg = write_config(tmp_path, lambda c: c["equations"][0].update(eta=0.0, b=0.0))
        argv = [command[0], "--config", cfg, *command[1:]]
        if command[0] == "solve":
            argv += ["--out", str(tmp_path / "sol.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config rejected:" in err
        assert "/equations/0: interval end b must be > 0" in err

    def test_out_of_range_literal_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lambda c: c["nonlinearities"].update(f2="1/1e999"))
        assert main(["constants", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config rejected:" in captured.err
        assert "/nonlinearities/f2: number '1e999' is out of range (at offset 2)" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "fraccert" in capsys.readouterr().out


# magnitudes at the ends of the one input range, and just past them
_range_edges = st.sampled_from([
    0.0, 1.0 / RANGE, RANGE, math.nextafter(1.0 / RANGE, 0.0), math.nextafter(RANGE, math.inf),
    5e-324, 1.7976931348623157e308,
]) | st.floats(0.5 / RANGE, 2.0 / RANGE) | st.floats(0.5 * RANGE, 2.0 * RANGE)
_range_values = st.tuples(_range_edges, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


class TestRangeGate:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["ladder", "box", "search", "init", "b"]),
           st.lists(_range_values, min_size=4, max_size=4))
    def test_numbers_at_the_range_ends(self, tmp_path_factory, where, xs):
        # a number past the range is one line naming its flag or JSON pointer;
        # one inside it runs, or stops on one line: no warning, no traceback
        folder = tmp_path_factory.mktemp("range")
        used, flag = xs[:2], f"--{where}"
        if where == "ladder":
            argv = ["certify", "--config", REF, "--pattern", "S1",
                    f"--ladder={xs[0]!r},{xs[1]!r}"]
        elif where == "box":
            used = xs
            argv = ["certify", "--config", REF, "--pattern", "NE1",
                    "--box=" + ",".join(map(repr, xs))]
        elif where == "search":
            used = sorted(xs[:2])
            argv = ["certify", "--config", REF, "--pattern", "S2",
                    f"--search={used[0]!r}:{used[1]!r}:3"]
        elif where == "init":
            argv = ["solve", "--config", REF, "--grid", "8", f"--init=const:{xs[0]!r},{xs[1]!r}",
                    "--out", str(folder / "sol.csv")]
        else:
            used = xs[:1]
            cfg = write_config(folder, lambda c: c["equations"][0].update(eta=0.0, b=xs[0]))
            argv = ["constants", "--config", cfg]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(argv)
        err = err.getvalue()
        bad = [x for x in used if not in_range(x)]
        if bad:
            line = (f"config rejected:\n  /equations/0: b must be 0 or of magnitude in "
                    f"[2^-480, 2^480], got {bad[0]!r}\n" if where == "b" else
                    f"error: ValueError: {flag}: {bad[0]!r} is neither 0 nor of magnitude in "
                    "[2^-480, 2^480]\n")
            assert (rc, err) == (1, line)
        elif rc == 1:
            assert "overflow" not in err
            assert (err.startswith("error: ") and err.count("\n") == 1
                    or err.startswith("config rejected:\n  /equations/0: ")
                    and err.count("\n") == 2)
        else:
            assert rc in (0, 2)
