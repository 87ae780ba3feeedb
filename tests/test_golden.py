"""Byte-for-byte replay of the frozen CLI corpus under tests/golden/."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def test_manifest_lists_every_case():
    assert [m["case"] for m in MANIFEST] == [c[0] for c in generate.cases()]


@pytest.mark.parametrize("case", MANIFEST, ids=lambda m: m["case"])
def test_golden_replay(case):
    code, out = generate.run_case(case["argv"], case["graph"])
    assert code == case["exit"]
    assert out == (GOLDEN / case["out"]).read_text()


@pytest.mark.parametrize("name", ["gs4-homology-3", "gs4-cw-3"])
def test_threads_flag_leaves_the_output_unchanged(name):
    # `--threads` is accepted and ignored: every command runs in one process
    case = next(m for m in MANIFEST if m["case"] == name)
    want = (GOLDEN / case["out"]).read_text()
    for threads in ("1", "3"):
        code, out = generate.run_case(case["argv"] + ["--threads", threads],
                                      case["graph"])
        assert (code, out) == (case["exit"], want)
