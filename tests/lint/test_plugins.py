"""Plugin-contract auditor: the real tree is clean, violations are caught."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint.plugins import PluginContractAuditor, extract_registered_names

REPRO_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

KNOWN = frozenset({"good"})


def make_tree(tmp_path: Path, module_source: str, init_source: str | None) -> Path:
    root = tmp_path / "repro"
    plugins = root / "core" / "tsunami" / "plugins"
    plugins.mkdir(parents=True)
    (plugins / "sample.py").write_text(module_source)
    if init_source is not None:
        (plugins / "__init__.py").write_text(init_source)
    return root


def audit(tmp_path: Path, module_source: str,
          init_source: str | None = "ALL_PLUGINS = (GoodPlugin(),)\n"):
    root = make_tree(tmp_path, module_source, init_source)
    return PluginContractAuditor(
        root, known_slugs=KNOWN, signature_slugs=KNOWN
    ).run()


GOOD_PLUGIN = (
    "from repro.core.tsunami.plugin import MavDetectionPlugin\n"
    "\n"
    "class GoodPlugin(MavDetectionPlugin):\n"
    '    slug = "good"\n'
    "\n"
    "    def detect(self, context):\n"
    '        return context.fetch("/")\n'
)


class TestRealTree:
    def test_shipping_plugins_honour_the_contract(self):
        assert PluginContractAuditor(REPRO_ROOT).run() == []

    def test_registry_extraction_sees_all_18(self):
        init = REPRO_ROOT / "core" / "tsunami" / "plugins" / "__init__.py"
        names = extract_registered_names(ast.parse(init.read_text()))
        assert names is not None and len(names) == 18


class TestContractRules:
    def test_clean_plugin_passes(self, tmp_path):
        assert audit(tmp_path, GOOD_PLUGIN) == []

    def test_not_subclassing_base(self, tmp_path):
        source = (
            "class GoodPlugin:\n"
            '    slug = "good"\n'
            "    def detect(self, context):\n"
            "        return None\n"
        )
        findings = audit(tmp_path, source)
        assert [f.rule for f in findings] == ["PLG001"]

    def test_transitive_subclassing_accepted(self, tmp_path):
        source = (
            "from repro.core.tsunami.plugin import MavDetectionPlugin\n"
            "class _Base(MavDetectionPlugin):\n"
            "    def detect(self, context):\n"
            "        return None\n"
            "class GoodPlugin(_Base):\n"
            '    slug = "good"\n'
        )
        assert audit(tmp_path, source) == []

    def test_unknown_slug(self, tmp_path):
        source = GOOD_PLUGIN.replace('"good"', '"mystery"')
        findings = audit(tmp_path, source)
        assert {f.rule for f in findings} == {"PLG002"}
        assert any("mystery" in f.message for f in findings)

    def test_unregistered_plugin(self, tmp_path):
        findings = audit(tmp_path, GOOD_PLUGIN, init_source="ALL_PLUGINS = ()\n")
        assert [f.rule for f in findings] == ["PLG003"]

    def test_missing_registry_skips_registration_check(self, tmp_path):
        assert audit(tmp_path, GOOD_PLUGIN, init_source=None) == []

    def test_raw_transport_access(self, tmp_path):
        source = GOOD_PLUGIN.replace(
            'context.fetch("/")', 'context.transport.get("/")'
        )
        findings = audit(tmp_path, source)
        assert [f.rule for f in findings] == ["PLG004"]

    @pytest.mark.parametrize(
        "statement",
        ["import socket", "import requests", "from repro.net.transport import Transport"],
    )
    def test_forbidden_imports(self, tmp_path, statement):
        findings = audit(tmp_path, statement + "\n" + GOOD_PLUGIN)
        assert [f.rule for f in findings] == ["PLG004"]

    def test_bare_except(self, tmp_path):
        source = (
            "from repro.core.tsunami.plugin import MavDetectionPlugin\n"
            "class GoodPlugin(MavDetectionPlugin):\n"
            '    slug = "good"\n'
            "    def detect(self, context):\n"
            "        try:\n"
            '            return context.fetch("/")\n'
            "        except:\n"
            "            return None\n"
        )
        findings = audit(tmp_path, source)
        assert [f.rule for f in findings] == ["PLG005"]

    def test_mutating_call(self, tmp_path):
        source = GOOD_PLUGIN.replace('context.fetch("/")', 'context.post("/")')
        findings = audit(tmp_path, source)
        assert [f.rule for f in findings] == ["PLG006"]

    def test_duplicate_slug(self, tmp_path):
        source = GOOD_PLUGIN + (
            "\nclass OtherPlugin(MavDetectionPlugin):\n"
            '    slug = "good"\n'
            "    def detect(self, context):\n"
            "        return None\n"
        )
        findings = audit(
            tmp_path, source,
            init_source="ALL_PLUGINS = (GoodPlugin(), OtherPlugin())\n",
        )
        assert [f.rule for f in findings] == ["PLG007"]
