"""Tests for the speculative-taint gadget scanner."""
import pytest

from repro.analysis import (
    DEFAULT_WINDOW,
    GadgetKind,
    analyze_program,
    static_suspect_pcs,
)
from repro.analysis.corpus import GADGET_KINDS, build_gadget_program
from repro.analysis.prescreen import attack_program
from repro.isa import ProgramBuilder

_KIND_OF = {
    "v1": GadgetKind.SPECTRE_V1,
    "v2": GadgetKind.SPECTRE_V2,
    "v4": GadgetKind.SPECTRE_V4,
    "rsb": GadgetKind.SPECTRE_RSB,
}


class TestGadgetCorpus:
    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_unfenced_gadget_detected(self, kind):
        report = analyze_program(build_gadget_program(kind, fenced=False))
        assert report.count(_KIND_OF[kind]) >= 1

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_fenced_gadget_clean(self, kind):
        report = analyze_program(build_gadget_program(kind, fenced=True))
        assert report.clean, report.render()

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_full_attack_program_detected(self, kind):
        # the whole attack (training loop, gadget, receiver), not just
        # the minimal driver, must yield a finding of its own kind
        report = analyze_program(attack_program(kind))
        assert report.count(_KIND_OF[kind]) >= 1, report.render()


def _v1_program(with_fence=False, window=None):
    b = ProgramBuilder()
    b.li(1, 0)              # index
    b.li(2, 0x2000)         # array base
    b.li(3, 8)              # bound
    b.bge(1, 3, "done")
    if with_fence:
        b.fence()
    b.load(4, 2)            # arr[index] -- speculative load
    b.add(5, 4, 4)          # derive address from loaded value
    b.load(6, 5)            # S-Pattern sink
    b.label("done")
    b.halt()
    return b.build()


class TestSPattern:
    def test_finding_fields(self):
        program = _v1_program()
        report = analyze_program(program, name="v1")
        assert report.count() == 1
        finding = report.findings[0]
        assert finding.kind is GadgetKind.SPECTRE_V1
        assert finding.source_pc == program.address_of(3)   # the bge
        assert finding.sink_pc == program.address_of(6)     # second load
        assert finding.tainting_loads == (program.address_of(4),)
        # fence goes before the first speculative load of the chain
        assert finding.suggested_fence_pc == program.address_of(4)

    def test_fence_breaks_the_pattern(self):
        report = analyze_program(_v1_program(with_fence=True))
        assert report.clean

    def test_single_load_is_not_a_gadget(self):
        """One speculative load without a dependent access is the
        leak-free half of the pattern; CS leaves it unprotected too."""
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8)
        b.bge(1, 3, "done")
        b.li(2, 0x2000)
        b.load(4, 2)
        b.add(5, 4, 4)       # derived value never reaches memory
        b.label("done")
        b.halt()
        assert analyze_program(b.build()).clean

    def test_store_sink_detected(self):
        """A tainted *store* address leaks exactly like a load."""
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8).li(2, 0x2000)
        b.bge(1, 3, "done")
        b.load(4, 2)
        b.store(1, 4)        # address from the speculative load
        b.label("done")
        b.halt()
        report = analyze_program(b.build())
        assert report.count(GadgetKind.SPECTRE_V1) == 1

    def test_window_bounds_the_search(self):
        """With a tiny window the dependent access falls outside the
        speculation window and must not be flagged."""
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8).li(2, 0x2000)
        b.bge(1, 3, "done")
        b.load(4, 2)
        for _ in range(6):
            b.nop()
        b.add(5, 4, 4)
        b.load(6, 5)
        b.label("done")
        b.halt()
        program = b.build()
        assert analyze_program(program).count() == 1
        assert analyze_program(program, window=4).clean

    def test_taint_cleared_by_overwrite(self):
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8).li(2, 0x2000)
        b.bge(1, 3, "done")
        b.load(4, 2)
        b.li(4, 0x3000)      # overwrite kills the taint
        b.load(6, 4)
        b.label("done")
        b.halt()
        assert analyze_program(b.build()).clean

    def test_r0_never_tainted(self):
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8).li(2, 0x2000)
        b.bge(1, 3, "done")
        b.load(0, 2)         # writes the hardwired zero register
        b.load(6, 0)         # r0 is always 0 -> not a gadget
        b.label("done")
        b.halt()
        assert analyze_program(b.build()).clean

    def test_v4_store_opens_window(self):
        b = ProgramBuilder()
        b.li(1, 0x2000).li(2, 7)
        b.store(2, 1)        # V4 source: later loads may bypass it
        b.load(4, 1)
        b.add(5, 4, 4)
        b.load(6, 5)
        b.halt()
        report = analyze_program(b.build())
        assert report.count(GadgetKind.SPECTRE_V4) >= 1


class TestReport:
    def test_render_and_to_dict(self):
        report = analyze_program(build_gadget_program("v1"), name="v1")
        text = report.render()
        assert "spectre-v1" in text and "suggested fence" in text
        data = report.to_dict()
        assert data["name"] == "v1"
        assert data["findings"][0]["kind"] == "spectre-v1"
        assert isinstance(data["findings"][0]["source_pc"], int)

    def test_clean_render(self):
        b = ProgramBuilder()
        b.li(1, 1).halt()
        report = analyze_program(b.build())
        assert report.clean
        assert "no speculative gadgets" in report.render()

    def test_by_kind_partitions_findings(self):
        report = analyze_program(build_gadget_program("v2"))
        by_kind = report.by_kind()
        assert sum(len(v) for v in by_kind.values()) == report.count()
        for kind, findings in by_kind.items():
            assert all(f.kind is kind for f in findings)


class TestStaticSuspects:
    def test_default_window_positive(self):
        assert DEFAULT_WINDOW > 0

    def test_memory_after_branch_is_suspect(self):
        program = _v1_program()
        suspects = static_suspect_pcs(program)
        assert program.address_of(4) in suspects   # load after bge
        assert program.address_of(6) in suspects

    def test_leading_memory_not_suspect(self):
        """Memory accesses before any speculation source stay clear."""
        b = ProgramBuilder()
        b.li(1, 0x2000)
        b.load(2, 1)         # no prior branch or store
        b.halt()
        assert static_suspect_pcs(b.build()) == set()

    def test_fence_clears_suspicion(self):
        b = ProgramBuilder()
        b.li(1, 0).li(3, 8).li(2, 0x2000)
        b.bge(1, 3, "done")
        b.fence()
        b.load(4, 2)
        b.label("done")
        b.halt()
        program = b.build()
        assert program.address_of(5) not in static_suspect_pcs(program)
