"""Tests for the Trusted Page Buffer (Section V.D semantics).

The TPBuf keeps no entries of its own: equation 1 reads V, W, S and
the page off the load/store queue's residents older than the incoming
request."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tpbuf import TPBuf
from repro.errors import SimulationError
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.lsq import LoadStoreQueue

_OPS = {"load": Instruction(Opcode.LOAD, rd=1, rs1=2),
        "store": Instruction(Opcode.STORE, rs1=1, rs2=2),
        "flush": Instruction(Opcode.CLFLUSH, rs1=1)}


def resident(lsq, seq, kind="load", ppn=None, suspect=False,
             writeback=False):
    """Allocate an LSQ resident with the given TPBuf facts: ``ppn`` (V
    and the tag), ``suspect`` (S) and ``writeback`` (W: a completed
    load or a store whose data was captured; a completed CLFLUSH never
    writes back)."""
    inst = DynInst(seq, 0x1000 + 4 * seq, _OPS[kind])
    inst.ppn = ppn
    inst.suspect = suspect
    if writeback:
        inst.state = InstState.COMPLETED
        inst.store_data_ready = kind == "store"
    if kind == "load":
        lsq.allocate_load(inst)
    else:
        lsq.allocate_store(inst)
    return inst


def incoming(lsq, seq, ppn):
    """The incoming suspect load: translated, not yet written back."""
    return resident(lsq, seq, ppn=ppn, suspect=True)


def _lsq():
    return LoadStoreQueue(8, 8)


class TestLifecycle:
    def test_mask_snapshots_older_entries(self):
        """The Mask is the residents allocated before the incoming
        request: older loads and stores count, a younger one does
        not."""
        for kind, flagged, unsafe in (("load", 1, True),
                                      ("store", 2, True),
                                      ("load", 4, False)):
            lsq = _lsq()
            for seq in (1, 2, 3, 4):    # allocation is in program order
                if seq == 3:
                    load = incoming(lsq, 3, ppn=0x200)
                    continue
                resident(lsq, seq, kind=kind if seq == flagged else "load",
                         ppn=0x100, suspect=seq == flagged, writeback=True)
            assert TPBuf().is_safe(load, lsq) is not unsafe, (kind, flagged)

    def test_deallocate_clears_from_younger_masks(self):
        """A resident that leaves the LSQ (commit or squash) leaves
        every younger request's Mask."""
        lsq = _lsq()
        older = resident(lsq, 1, ppn=0x100, suspect=True, writeback=True)
        load = incoming(lsq, 2, ppn=0x200)
        tpbuf = TPBuf()
        assert not tpbuf.is_safe(load, lsq)
        lsq.release(older)
        assert tpbuf.is_safe(load, lsq)

    def test_zero_entries_rejected(self):
        """The TPBuf's entries are the LSQ's: with none, no memory
        instruction is allocated one."""
        lsq = LoadStoreQueue(0, 0)
        with pytest.raises(SimulationError, match="LDQ overflow"):
            resident(lsq, 1)
        with pytest.raises(SimulationError, match="STQ overflow"):
            resident(lsq, 2, kind="store")
        assert lsq.allocations == 0


class TestSPatternDetection:
    """Equation 1 / Table II: unsafe iff an *older* entry has
    V & W & S and a different PPN."""

    def test_different_page_older_suspect_writeback_is_unsafe(self):
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=True, writeback=True)
        assert not TPBuf().is_safe(incoming(lsq, 2, ppn=0x200), lsq)

    def test_same_page_is_safe(self):
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=True, writeback=True)
        assert TPBuf().is_safe(incoming(lsq, 2, ppn=0x100), lsq)

    def test_not_suspect_entry_is_ignored(self):
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=False, writeback=True)
        assert TPBuf().is_safe(incoming(lsq, 2, ppn=0x200), lsq)

    def test_no_writeback_entry_is_ignored(self):
        """A suspect access whose data is not yet available cannot have
        fed the incoming access's address - not an S-Pattern."""
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=True, writeback=False)
        resident(lsq, 2, kind="store", ppn=0x100, suspect=True,
                 writeback=False)
        assert TPBuf().is_safe(incoming(lsq, 3, ppn=0x200), lsq)

    def test_no_valid_ppn_entry_is_ignored(self):
        lsq = _lsq()
        resident(lsq, 1, ppn=None, suspect=True, writeback=True)
        assert TPBuf().is_safe(incoming(lsq, 2, ppn=0x200), lsq)

    def test_younger_entries_do_not_flag(self):
        """Only entries older in program order (the Mask) matter."""
        lsq = _lsq()
        load = incoming(lsq, 1, ppn=0x200)
        resident(lsq, 2, ppn=0x999, suspect=True, writeback=True)
        resident(lsq, 3, kind="store", ppn=0x999, suspect=True,
                 writeback=True)
        assert TPBuf().is_safe(load, lsq)

    def test_empty_buffer_is_safe(self):
        lsq = _lsq()
        assert TPBuf().is_safe(incoming(lsq, 1, ppn=0x100), lsq)

    def test_any_one_matching_entry_suffices(self):
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=True, writeback=True)
        resident(lsq, 2, ppn=0x200, suspect=False, writeback=True)
        assert not TPBuf().is_safe(incoming(lsq, 3, ppn=0x300), lsq)

    def test_mismatch_rate(self):
        """The S-Pattern mismatch rate (Table V) is the fraction of
        queries judged safe."""
        lsq = _lsq()
        resident(lsq, 1, ppn=0x100, suspect=True, writeback=True)
        tpbuf = TPBuf()
        tpbuf.is_safe(incoming(lsq, 2, ppn=0x100), lsq)   # safe
        tpbuf.is_safe(incoming(lsq, 3, ppn=0x200), lsq)   # unsafe
        stats = tpbuf.stats
        assert stats.get("safe") / stats.get("queries") == 0.5
        assert stats.as_dict() == {"queries": 2, "safe": 1, "unsafe": 1}

    def test_flush_never_writes_back(self):
        """A completed CLFLUSH occupies the STQ but fetches no data, so
        it never sets W."""
        lsq = _lsq()
        resident(lsq, 1, kind="flush", ppn=0x100, suspect=True,
                 writeback=True)
        assert TPBuf().is_safe(incoming(lsq, 2, ppn=0x200), lsq)


_RESIDENTS = st.lists(
    st.tuples(st.sampled_from(sorted(_OPS)),
              st.one_of(st.none(), st.integers(0x100, 0x104)),
              st.booleans(), st.booleans()),
    min_size=0, max_size=8,
)


class TestTPBufProperties:
    @settings(max_examples=100, deadline=None)
    @given(entries=_RESIDENTS, position=st.integers(0, 8),
           incoming_ppn=st.integers(0x100, 0x104))
    def test_is_safe_matches_reference_predicate(self, entries, position,
                                                 incoming_ppn):
        """Model-based check of equation 1 over random LSQ residents of
        random kind, V (a page or none), S, W, page and age: the
        incoming load is allocated at ``position`` in program order."""
        # Room for eight residents of one kind plus the incoming load.
        lsq = LoadStoreQueue(9, 9)
        position = min(position, len(entries))
        seqs = [index + 1 + (index >= position)
                for index in range(len(entries))]
        load = None
        for seq in range(1, len(entries) + 2):
            if seq == position + 1:
                load = incoming(lsq, seq, incoming_ppn)
            else:
                kind, ppn, suspect, writeback = entries[seqs.index(seq)]
                resident(lsq, seq, kind, ppn, suspect, writeback)
        expected_unsafe = any(
            seq < load.seq and ppn is not None and suspect and writeback
            and kind != "flush" and ppn != incoming_ppn
            for seq, (kind, ppn, suspect, writeback) in zip(seqs, entries)
        )
        assert TPBuf().is_safe(load, lsq) == (not expected_unsafe)
