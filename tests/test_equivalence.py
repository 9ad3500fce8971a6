"""Property-based validation: for any generated program, the
out-of-order core - under every protection mode - must retire exactly
the architectural state the in-order oracle computes.

This is the core integration property of the whole simulator: renaming,
speculation, squash/recovery, forwarding, the security filters and the
store buffer may change *timing* but never *semantics*.
"""
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Processor, SecurityConfig, tiny_config
from repro.isa import ProgramBuilder, run_oracle

_MEM_BASE = 0x4000
_MEM_WORDS = 16

_ALU_OPS = ["add", "sub", "mul", "and_", "or_", "xor"]
_ALU_IMM_OPS = ["addi", "andi", "xori", "shli", "shri"]
_BRANCH_OPS = ["beq", "bne", "blt", "bge"]

# r7 is the loop counter and must not be clobbered by body items.
_reg = st.integers(0, 6)
_imm = st.integers(-64, 64)
_shift = st.integers(0, 8)
_word = st.integers(0, _MEM_WORDS - 1)

_alu = st.tuples(st.just("alu"), st.sampled_from(_ALU_OPS),
                 _reg, _reg, _reg)
_alui = st.tuples(st.just("alui"), st.sampled_from(_ALU_IMM_OPS),
                  _reg, _reg, _shift)
_li = st.tuples(st.just("li"), _reg, _imm)
_load = st.tuples(st.just("load"), _reg, _word)
_store = st.tuples(st.just("store"), _reg, _word)
_flush = st.tuples(st.just("flush"), _word)
_fence = st.tuples(st.just("fence"))
_branch = st.tuples(st.just("branch"), st.sampled_from(_BRANCH_OPS),
                    _reg, _reg, st.integers(1, 4))

_body_item = st.one_of(_alu, _alui, _li, _load, _store, _flush, _fence,
                       _branch)

programs = st.tuples(
    st.lists(_body_item, min_size=1, max_size=25),
    st.integers(1, 4),                                  # loop iterations
    st.lists(st.integers(0, 255), min_size=_MEM_WORDS,
             max_size=_MEM_WORDS),                      # initial memory
)


def _emit(builder, body):
    """Emit body items; forward branches skip a bounded distance."""
    pending = []  # (emit_index, label)
    for index, item in enumerate(body):
        kind = item[0]
        for target_index, label in list(pending):
            if target_index == index:
                builder.label(label)
                pending.remove((target_index, label))
        if kind == "alu":
            _, op, rd, rs1, rs2 = item
            getattr(builder, op)(rd, rs1, rs2)
        elif kind == "alui":
            _, op, rd, rs1, imm = item
            getattr(builder, op)(rd, rs1, imm)
        elif kind == "li":
            _, rd, imm = item
            builder.li(rd, imm)
        elif kind == "load":
            _, rd, word = item
            builder.li(6, _MEM_BASE + word * 8)
            builder.load(rd, 6)
        elif kind == "store":
            _, rs, word = item
            builder.li(6, _MEM_BASE + word * 8)
            builder.store(rs, 6)
        elif kind == "flush":
            _, word = item
            builder.li(6, _MEM_BASE + word * 8)
            builder.clflush(6)
        elif kind == "fence":
            builder.fence()
        else:  # forward branch
            _, op, rs1, rs2, skip = item
            label = f"fwd_{index}"
            getattr(builder, op)(rs1, rs2, label)
            pending.append((index + skip, label))
    # Resolve any labels that point past the end of the body.
    for _, label in pending:
        builder.label(label)


def build_program(body, iterations, memory, as_function=False):
    """Wrap the body in a counted loop; with ``as_function`` the body
    lives in a subroutine invoked via CALL/RET each iteration (r31 is
    the link register and must not be generated in the body - the
    register strategy tops out at r6)."""
    builder = ProgramBuilder()
    for word, value in enumerate(memory):
        builder.data_word(_MEM_BASE + word * 8, value)
    builder.li(7, iterations)
    builder.label("loop_top")
    if as_function:
        builder.call("body_fn")
    else:
        _emit(builder, body)
    builder.addi(7, 7, -1)
    builder.bne(7, 0, "loop_top")
    builder.halt()
    if as_function:
        builder.label("body_fn")
        _emit(builder, body)
        builder.ret()
    return builder.build()


def assert_equivalent(program, security):
    oracle = run_oracle(program, max_instructions=500_000)
    assert oracle.halted, "generated program must halt"
    cpu = Processor(program, machine=tiny_config(), security=security)
    report = cpu.run(max_cycles=500_000)
    assert report.halted, f"core did not halt under {security.mode}"
    for reg in range(32):
        assert cpu.arch_reg(reg) == oracle.reg(reg), (
            f"r{reg} mismatch under {security.mode}"
        )
    for word in range(_MEM_WORDS):
        vaddr = _MEM_BASE + word * 8
        assert cpu.read_vword(vaddr) == oracle.mem(vaddr), (
            f"mem[{vaddr:#x}] mismatch under {security.mode}"
        )
    assert report.committed == oracle.retired
    # Microarchitectural invariants must hold at rest too.
    assert cpu.hierarchy.check_inclusion() == []
    cpu.rename.check_free_list_integrity()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_origin_matches_oracle(data):
    body, iterations, memory = data
    program = build_program(body, iterations, memory)
    assert_equivalent(program, SecurityConfig.origin())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_baseline_matches_oracle(data):
    body, iterations, memory = data
    program = build_program(body, iterations, memory)
    assert_equivalent(program, SecurityConfig.baseline())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_cache_hit_matches_oracle(data):
    body, iterations, memory = data
    program = build_program(body, iterations, memory)
    assert_equivalent(program, SecurityConfig.cache_hit())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_tpbuf_matches_oracle(data):
    body, iterations, memory = data
    program = build_program(body, iterations, memory)
    assert_equivalent(program, SecurityConfig.cache_hit_tpbuf())


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_function_call_bodies_match_oracle(data):
    """The same property with the body behind CALL/RET exercises the
    return-address stack, link-register renaming and RET squashes."""
    body, iterations, memory = data
    program = build_program(body, iterations, memory, as_function=True)
    assert_equivalent(program, SecurityConfig.cache_hit_tpbuf())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_lru_policies_do_not_change_semantics(data):
    from repro.memory.replacement import SpeculativeLRUPolicy
    body, iterations, memory = data
    program = build_program(body, iterations, memory)
    for policy in (SpeculativeLRUPolicy.NO_UPDATE,
                   SpeculativeLRUPolicy.DELAYED):
        assert_equivalent(program, SecurityConfig(
            mode="cache_hit_tpbuf", lru_policy=policy,
        ))
