"""Guard the public API surface: everything advertised in __all__ is
importable and the README quickstart works verbatim."""
import importlib
import os
import subprocess
import sys

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

    def test_sweep_imports_skip_the_analysis_ladder(self):
        # What a sweep worker imports must not load every experiment
        # driver and, through them, the static analyses.
        code = ("import sys, repro.experiments.runner, repro.perf.parallel; "
                "print(sorted(name for name in ('repro.analysis', "
                "'repro.experiments.fence_study') if name in sys.modules))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


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
