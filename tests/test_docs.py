"""Documentation consistency checks: the README, DESIGN.md and
EXPERIMENTS.md must reference modules and experiments that actually
exist."""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestReadme:
    def test_experiment_modules_importable(self):
        text = _read("README.md")
        for match in set(re.findall(r"repro\.experiments\.(\w+)", text)):
            importlib.import_module(f"repro.experiments.{match}")

    def test_example_scripts_exist(self):
        text = _read("README.md")
        for match in set(re.findall(r"examples/(\w+\.py)", text)):
            assert (REPO / "examples" / match).exists(), match

    def test_linked_docs_exist(self):
        text = _read("README.md")
        for match in set(re.findall(r"\]\(([\w/]+\.md)\)", text)):
            assert (REPO / match).exists(), match


class TestDesign:
    def test_bench_files_exist(self):
        text = _read("DESIGN.md")
        for match in set(re.findall(r"benchmarks/(\w+\.py)", text)):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_experiment_files_exist(self):
        text = _read("DESIGN.md")
        for match in set(re.findall(r"experiments/(\w+\.py)", text)):
            assert (REPO / "src/repro/experiments" / match).exists(), match

    def test_paper_identity_confirmed(self):
        assert "No title collision" in _read("DESIGN.md")


class TestExperimentsDoc:
    def test_every_cited_experiment_exists(self):
        text = _read("EXPERIMENTS.md")
        for match in set(re.findall(r"— `(\w+)`", text)):
            importlib.import_module(f"repro.experiments.{match}")

    def test_all_registered_experiments_documented(self):
        from repro.experiments.__main__ import EXPERIMENTS

        design = _read("DESIGN.md")
        for module, _ in EXPERIMENTS.values():
            stem = module.__name__.rsplit(".", 1)[-1]
            assert stem in design, f"{stem} missing from DESIGN.md"


class TestPaperMap:
    def test_cited_test_files_exist(self):
        text = _read("docs/PAPER_MAP.md")
        for match in set(re.findall(r"tests/[\w/]+\.py", text)):
            assert (REPO / match).exists(), match

    def test_cited_source_files_exist(self):
        text = _read("docs/PAPER_MAP.md")
        for match in set(re.findall(r"`(mem|core|apps)/([\w/{},.]+)\.py`", text)):
            prefix, rest = match
            if "{" in rest:  # brace shorthand like {octree,force}
                continue
            assert (
                REPO / "src/repro" / prefix / f"{rest}.py"
            ).exists(), f"{prefix}/{rest}.py"


#: The operator docs whose ``repro.…`` names and CLI lines must resolve.
OPERATOR_DOCS = [
    "README.md",
    "DESIGN.md",
    *sorted(str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md")),
    ".claude/skills/verify/SKILL.md",
]


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestOperatorDocs:
    @pytest.mark.parametrize("name", OPERATOR_DOCS)
    def test_cited_repro_names_resolve(self, name):
        text = _read(name)
        unresolved = sorted(
            {
                match.group()
                for match in re.finditer(r"\brepro(?:\.\w+)+", text)
                # Wildcard and brace forms (repro.experiments.fig*) name
                # a family, not one object.
                if text[match.end() : match.end() + 1] not in ("*", "{")
                and not _resolves(match.group())
            }
        )
        assert not unresolved, f"{name} cites {unresolved}"

    @pytest.mark.parametrize("name", OPERATOR_DOCS)
    def test_cited_cli_words_exist(self, name):
        from repro.experiments.__main__ import (
            EXPERIMENTS,
            SUBCOMMANDS,
            build_parser,
        )

        flags = set(build_parser()._option_string_actions)
        unknown = set()
        for match in re.finditer(r"python -m repro\.experiments[ \t]+(\S+)", _read(name)):
            word = match.group(1).rstrip("`),;:")
            if not word.strip(".") or word[:1] in ("<", "["):
                continue  # an ellipsis or a placeholder
            word = word.rstrip(".")
            if word.startswith("--"):
                known = word.split("=")[0] in flags
            else:
                known = word in SUBCOMMANDS or word in EXPERIMENTS
            if not known:
                unknown.add(word)
        assert not unknown, f"{name} runs unknown CLI words {sorted(unknown)}"
