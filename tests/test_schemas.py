"""Shipped configs and emitted reports against the documented JSON schemas."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from conftest import CONFIG_DIR
from fraccert.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"
REF = str(CONFIG_DIR / "reference.json")
NE_CFG = str(CONFIG_DIR / "nonexistence.json")


def validator(name: str) -> Draft7Validator:
    schema = json.loads((DOCS / name).read_text(encoding="utf-8"))
    Draft7Validator.check_schema(schema)
    return Draft7Validator(schema)


def assert_valid(name: str, doc) -> None:
    errors = [f"{'/'.join(map(str, e.absolute_path))}: {e.message}"
              for e in validator(name).iter_errors(doc)]
    assert errors == []


@pytest.mark.parametrize("path", [REF, NE_CFG], ids=["reference", "nonexistence"])
def test_shipped_configs(path):
    assert_valid("config.schema.json", json.loads(Path(path).read_text(encoding="utf-8")))


def test_lipschitz_option_outside_config_schema():
    cfg = json.loads(Path(REF).read_text(encoding="utf-8"))
    cfg["options"]["lipschitz"] = {"L1": 0.5, "L2": 1.5}
    assert not validator("config.schema.json").is_valid(cfg)


def test_constants_report(capsys):
    assert main(["constants", "--config", REF]) == 0
    assert_valid("report.constants.schema.json", json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("argv, code", [
    ([REF, "--pattern", "S1", "--ladder", "0.02,10"], 0),
    ([REF, "--pattern", "S3", "--search", "0.001:1000:13"], 2),
    ([REF, "--pattern", "S2", "--ladder", "10,1000"], 2),
    ([NE_CFG, "--pattern", "NE2", "--box=0.01,10,0.01,10"], 2),
    ([NE_CFG, "--pattern", "NE1", "--box=-10,10,-10,10"], 0),
], ids=["certificate", "none-found", "ladder-failure", "ne-failure", "ne-certificate"])
def test_certify_reports(capsys, argv, code):
    assert main(["certify", "--config", *argv]) == code
    report = json.loads(capsys.readouterr().out)
    assert_valid("report.certificate.schema.json", report)


def test_solve_sidecar(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    assert main(["solve", "--config", REF, "--grid", "32", "--out", str(out)]) == 0
    sidecar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert sidecar == json.loads(capsys.readouterr().out)
    assert_valid("report.solve.schema.json", sidecar)
