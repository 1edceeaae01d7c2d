"""Meta-tests: documentation freshness, docstring coverage, determinism."""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def all_repro_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


class TestDocstringCoverage:
    def test_every_module_has_a_docstring(self):
        missing = [
            name for name in all_repro_modules()
            if not (importlib.import_module(name).__doc__ or "").strip()
        ]
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_callable_has_a_docstring(self):
        missing = []
        for name in all_repro_modules():
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", "") != name:
                    continue
                if not (inspect.getdoc(obj) or "").strip():
                    missing.append(f"{name}.{attr}")
        assert not missing, f"undocumented public items: {missing}"

    def test_public_methods_have_docstrings(self):
        missing = []
        for name in all_repro_modules():
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != name:
                    continue
                for mname, method in inspect.getmembers(obj, inspect.isfunction):
                    if mname.startswith("_"):
                        continue
                    if not method.__qualname__.startswith(obj.__name__):
                        continue
                    if not (inspect.getdoc(method) or "").strip():
                        missing.append(f"{name}.{attr}.{mname}")
        assert not missing, f"undocumented methods: {missing}"


class TestGeneratedDocs:
    def test_api_reference_is_fresh(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "gen_api_docs.py"),
             "--check"],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr

    def test_required_documents_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/architecture.md", "docs/protocols.md",
                    "docs/api.md", "CONTRIBUTING.md"):
            assert (REPO_ROOT / doc).exists(), doc

    def test_named_scripts_and_make_targets_exist(self):
        # A deleted script or make target must not live on in the docs,
        # the Makefile or CI.  A bare ``bench_*.py`` name is a script under
        # ``benchmarks/``.  History (CHANGES.md, CHANGELOG.md) and plans
        # (ROADMAP.md) may name files that no longer or do not yet exist.
        sources = [".github/workflows/ci.yml", "Makefile", "README.md",
                   "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md",
                   ".claude/skills/verify/SKILL.md"]
        sources += sorted(str(p.relative_to(REPO_ROOT))
                          for p in (REPO_ROOT / "docs").glob("*.md"))
        makefile = (REPO_ROOT / "Makefile").read_text()
        targets = set(re.findall(r"^([\w-]+):", makefile, re.MULTILINE))
        path_re = re.compile(
            r"\b(?:benchmarks|perfbench|tools|examples|tests)/[\w/.-]*?\.py\b")
        bench_re = re.compile(r"(?<![\w/])bench_\w+\.py\b")
        make_re = re.compile(r"(?:`|^\$ )make ([\w-]+)(?=[`\s])",
                             re.MULTILINE)
        dangling = []
        for source in sources:
            text = (REPO_ROOT / source).read_text()
            dangling += [f"{source}: {path}" for path in path_re.findall(text)
                         if not (REPO_ROOT / path).exists()]
            dangling += [f"{source}: {name}" for name in bench_re.findall(text)
                         if not (REPO_ROOT / "benchmarks" / name).exists()]
            dangling += [f"{source}: make {target}"
                         for target in make_re.findall(text)
                         if target not in targets]
        assert not dangling, dangling


class TestDeterminism:
    def test_distributed_build_trace_is_reproducible(self):
        from repro.graph.generators import random_geometric_network
        from repro.protocols.runner import run_distributed_build

        net = random_geometric_network(30, 8.0, rng=99)
        a = run_distributed_build(net.graph)
        b = run_distributed_build(net.graph)
        trace_a = [(e.time, e.sender, repr(e.message))
                   for e in a.network.trace.entries]
        trace_b = [(e.time, e.sender, repr(e.message))
                   for e in b.network.trace.entries]
        assert trace_a == trace_b

    def test_figure_drivers_reproducible(self):
        from repro.workload.config import PaperEnvironment
        from repro.workload.experiments import run_fig7

        env = PaperEnvironment.quick().scaled(ns=(20,), degrees=(6.0,),
                                              seed=5)
        a = run_fig7(env)[6.0].to_records()
        b = run_fig7(env)[6.0].to_records()
        assert a == b
