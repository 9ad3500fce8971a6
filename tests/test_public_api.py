"""Guard the public API surface: everything advertised in __all__ is
importable and the README quickstart works verbatim."""
import importlib

import pytest

import repro


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", [
        "repro.isa", "repro.memory", "repro.frontend", "repro.pipeline",
        "repro.core", "repro.attacks", "repro.workloads",
        "repro.experiments", "repro.cli", "repro.paperdata",
    ])
    def test_submodules_import(self, module):
        importlib.import_module(module)

    def test_subpackage_all_names_resolve(self):
        for module_name in ("repro.isa", "repro.memory", "repro.pipeline",
                            "repro.core", "repro.attacks",
                            "repro.workloads", "repro.experiments"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import Processor, ProgramBuilder, SecurityConfig

        b = ProgramBuilder()
        b.li(1, 5)
        b.label("loop").addi(1, 1, -1).bne(1, 0, "loop")
        b.halt()

        cpu = Processor(b.build(),
                        security=SecurityConfig.cache_hit_tpbuf())
        report = cpu.run()
        assert report.halted
        assert "cache_hit_tpbuf" in report.render()


class TestFigure5Bars:
    def test_render_bars(self):
        from repro.experiments import run_figure5
        result = run_figure5(benchmarks=["hmmer"], scale=0.05)
        text = result.render_bars(width=20)
        assert "hmmer" in text
        assert "#" in text      # baseline glyph
        assert "=" in text      # tpbuf glyph
