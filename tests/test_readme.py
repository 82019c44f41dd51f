"""The code names README.md puts in backticks exist in the code."""

import importlib
import json
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPANS = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_SUFFIXES = (".py", ".json", ".md")


def _metric_names() -> set[str]:
    """perfbench's per-layer metric names without their role prefix."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"].split(".", 1)[1] for metric in bench["per_layer"]}


def _has_attrs(obj, attrs) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolves(name: str, metrics: set[str], files: set[str]) -> bool:
    head, *rest = name.split(".")
    if name in metrics:
        return True
    if name.endswith(FILE_SUFFIXES):
        return name in files
    if head == "np":
        return _has_attrs(np, rest)
    if head == "multisubset":
        head, *rest = rest
    if not (ROOT / "src" / "multisubset" / f"{head}.py").is_file():
        return False
    return _has_attrs(importlib.import_module(f"multisubset.{head}"), rest)


def test_dotted_names_resolve():
    metrics = _metric_names()
    files = {p.name for p in ROOT.rglob("*") if ".git" not in p.parts}
    names = sorted({span for span in SPANS if DOTTED.fullmatch(span)})
    assert names, "README.md names no module attributes"
    assert [n for n in names if not _resolves(n, metrics, files)] == []


def test_named_tests_exist():
    refs = sorted({span for span in SPANS if "::" in span})
    assert refs, "README.md names no tests"
    missing = []
    for ref in refs:
        path, test = ref.split("::")
        file = ROOT / path
        name = test.split("[")[0]
        if not (file.is_file() and re.search(rf"^def {name}\(", file.read_text(), re.M)):
            missing.append(ref)
    assert missing == []
