"""Unit and property tests for the opcode semantics table."""

import inspect

import pytest
from hypothesis import given, strategies as st

from repro.alpha import opcodes
from repro.alpha.opcodes import (BRANCH_INVERSES, ISSUE_CLASSES, MASK64,
                                 OPCODES, _s32, _s64, issue_class,
                                 open_code)

u64 = st.integers(min_value=0, max_value=MASK64)
s_small = st.integers(min_value=-(1 << 40), max_value=1 << 40)


def sem(name):
    return OPCODES[name].sem


def cond(name):
    return OPCODES[name].cond


class TestIntegerOps:
    def test_addq_basic(self):
        assert sem("addq")(2, 3) == 5

    def test_addq_wraps_64_bits(self):
        assert sem("addq")(MASK64, 1) == 0

    def test_subq_borrow_wraps(self):
        assert sem("subq")(0, 1) == MASK64

    def test_addl_sign_extends_32_bit_result(self):
        # 0x7fffffff + 1 overflows 32 bits -> negative longword.
        result = sem("addl")(0x7FFFFFFF, 1)
        assert _s64(result) == -(1 << 31)

    def test_mulq_signed(self):
        minus_two = MASK64 - 1  # -2
        assert _s64(sem("mulq")(minus_two, 3)) == -6

    def test_s4addq(self):
        assert sem("s4addq")(10, 3) == 43

    def test_s8addq(self):
        assert sem("s8addq")(10, 3) == 83

    def test_logicals(self):
        assert sem("and")(0b1100, 0b1010) == 0b1000
        assert sem("bis")(0b1100, 0b1010) == 0b1110
        assert sem("xor")(0b1100, 0b1010) == 0b0110
        assert sem("bic")(0b1111, 0b0101) == 0b1010

    def test_shifts(self):
        assert sem("sll")(1, 63) == 1 << 63
        assert sem("srl")(1 << 63, 63) == 1
        # sra preserves sign.
        assert sem("sra")(MASK64, 5) == MASK64

    def test_shift_count_masked_to_6_bits(self):
        assert sem("sll")(1, 64) == 1  # 64 & 63 == 0

    @given(u64, u64)
    def test_addq_subq_inverse(self, a, b):
        assert sem("subq")(sem("addq")(a, b), b) == a

    @given(u64, u64)
    def test_xor_self_inverse(self, a, b):
        assert sem("xor")(sem("xor")(a, b), b) == a

    @given(s_small, s_small)
    def test_cmplt_matches_python(self, a, b):
        assert sem("cmplt")(a & MASK64, b & MASK64) == int(a < b)

    @given(u64, u64)
    def test_cmpult_unsigned(self, a, b):
        assert sem("cmpult")(a, b) == int(a < b)

    @given(u64, u64)
    def test_cmpule_consistent_with_cmpult_and_cmpeq(self, a, b):
        ule = sem("cmpule")(a, b)
        assert ule == (sem("cmpult")(a, b) | sem("cmpeq")(a, b))


class TestFloatOps:
    def test_addt(self):
        assert sem("addt")(1.5, 2.25) == 3.75

    def test_mult(self):
        assert sem("mult")(3.0, -2.0) == -6.0

    def test_divt_by_zero_is_quiet(self):
        assert sem("divt")(1.0, 0.0) == 0.0

    def test_cpys_as_move(self):
        assert sem("cpys")(-2.0, 2.0) == -2.0
        assert sem("cpys")(3.0, -5.0) == 5.0


class TestBranchConditions:
    @pytest.mark.parametrize("name,value,expected", [
        ("beq", 0, True), ("beq", 1, False),
        ("bne", 0, False), ("bne", 5, True),
        ("blt", MASK64, True), ("blt", 1, False),
        ("ble", 0, True), ("bgt", 0, False),
        ("bge", 0, True), ("bge", MASK64, False),
        ("blbc", 2, True), ("blbc", 3, False),
        ("blbs", 3, True), ("blbs", 2, False),
    ])
    def test_conditions(self, name, value, expected):
        assert cond(name)(value) is expected

    @given(u64)
    def test_beq_bne_complementary(self, value):
        assert cond("beq")(value) != cond("bne")(value)

    @given(u64)
    def test_blt_bge_complementary(self, value):
        assert cond("blt")(value) != cond("bge")(value)


#: The arithmetic as it was written before the table carried
#: expressions (plain functions; signed branch tests via ``_s64``).
#: Kept here only as the reference the declared expressions must match.
REFERENCE = {
    "addq": lambda a, b: (a + b) & MASK64,
    "subq": lambda a, b: (a - b) & MASK64,
    "addl": lambda a, b: _s32(a + b) & MASK64,
    "subl": lambda a, b: _s32(a - b) & MASK64,
    "mulq": lambda a, b: (_s64(a) * _s64(b)) & MASK64,
    "s4addq": lambda a, b: (4 * a + b) & MASK64,
    "s8addq": lambda a, b: (8 * a + b) & MASK64,
    "and": lambda a, b: a & b,
    "bis": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "bic": lambda a, b: a & ~b & MASK64,
    "sll": lambda a, b: (a << (b & 63)) & MASK64,
    "srl": lambda a, b: (a & MASK64) >> (b & 63),
    "sra": lambda a, b: (_s64(a) >> (b & 63)) & MASK64,
    "cmpeq": lambda a, b: 1 if a == b else 0,
    "cmplt": lambda a, b: 1 if _s64(a) < _s64(b) else 0,
    "cmple": lambda a, b: 1 if _s64(a) <= _s64(b) else 0,
    "cmpult": lambda a, b: 1 if (a & MASK64) < (b & MASK64) else 0,
    "cmpule": lambda a, b: 1 if (a & MASK64) <= (b & MASK64) else 0,
    "addt": lambda a, b: a + b,
    "subt": lambda a, b: a - b,
    "mult": lambda a, b: a * b,
    "divt": lambda a, b: a / b if b != 0.0 else 0.0,
    "cpys": lambda a, b: -abs(b) if a < 0 else abs(b),
    "cvtqt": lambda a, b: float(_s64(int(b))),
    "cvttq": lambda a, b: float(int(b)),
    "beq": lambda a: a == 0,
    "bne": lambda a: a != 0,
    "blt": lambda a: _s64(a) < 0,
    "ble": lambda a: _s64(a) <= 0,
    "bgt": lambda a: _s64(a) > 0,
    "bge": lambda a: _s64(a) >= 0,
    "blbc": lambda a: (a & 1) == 0,
    "blbs": lambda a: (a & 1) == 1,
    "cmovne": lambda a: a != 0,
    "cmoveq": lambda a: a == 0,
    "fbeq": lambda a: a == 0.0,
    "fbne": lambda a: a != 0.0,
    "fblt": lambda a: a < 0.0,
    "fbge": lambda a: a >= 0.0,
}

INT_EDGES = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
             2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1, MASK64 - 1, MASK64]
FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e-300,
               2.0**62, -2.0**62, 1e18, -1e18]


def _same(x, y):
    # +0.0 == -0.0 but they are different register values.
    return type(x) is type(y) and repr(x) == repr(y)


def _edges(name):
    info = OPCODES[name]
    return FLOAT_EDGES if info.kind in ("fop", "fbranch") else INT_EDGES


def _semantic(pred):
    return sorted(name for name, info in OPCODES.items() if pred(info))


class TestOneSemanticsTable:
    """Every expression equals its pre-table reference, and what a code
    generator open-codes from it equals the callable."""

    def test_reference_covers_every_semantic_opcode(self):
        assert sorted(REFERENCE) == _semantic(
            lambda info: info.sem or info.cond)

    @pytest.mark.parametrize("name", _semantic(lambda info: info.sem))
    def test_sem_matches_reference_on_edges(self, name):
        fn = OPCODES[name].sem
        for a in _edges(name):
            for b in _edges(name):
                want = REFERENCE[name](a, b)
                assert _same(fn(a, b), want), (name, a, b)
                text = open_code(fn, repr(a), repr(b))
                assert _same(eval(text, dict(opcodes.EXPR_GLOBALS)),
                             want), (name, text)

    @pytest.mark.parametrize("name", _semantic(lambda info: info.cond))
    def test_cond_matches_reference_on_edges(self, name):
        fn = OPCODES[name].cond
        for a in _edges(name):
            want = REFERENCE[name](a)
            assert fn(a) is want, (name, a)
            text = open_code(fn, repr(a))
            assert eval(text, dict(opcodes.EXPR_GLOBALS)) is want, text

    @given(u64, u64)
    def test_integer_sems_match_reference(self, a, b):
        for name in _semantic(lambda info: info.sem
                              and info.kind == "op"):
            assert OPCODES[name].sem(a, b) == REFERENCE[name](a, b), name

    @given(u64)
    def test_integer_conds_match_reference(self, a):
        for name in _semantic(lambda info: info.cond
                              and info.kind != "fbranch"):
            assert OPCODES[name].cond(a) is REFERENCE[name](a), name

    @given(u64)
    def test_branch_inverses_complementary(self, a):
        for name, inverse in BRANCH_INVERSES.items():
            if OPCODES[name].kind == "cbranch":
                assert OPCODES[name].cond(a) != OPCODES[inverse].cond(a)

    def test_branch_inverses_complementary_on_edges(self):
        for name, inverse in BRANCH_INVERSES.items():
            for a in _edges(name):
                assert (OPCODES[name].cond(a)
                        != OPCODES[inverse].cond(a)), (name, a)

    def test_declaring_an_opcode_twice_raises_at_import(self):
        source = inspect.getsource(opcodes)
        twice = source.replace('_declare("cmovne"', '_declare("bne"', 1)
        assert twice != source
        with pytest.raises(ValueError, match="'bne' declared twice"):
            exec(compile(twice, "opcodes_twice", "exec"),
                 {"__name__": "opcodes_twice"})


class TestIssueClasses:
    def test_every_opcode_has_issue_class(self):
        for name, info in OPCODES.items():
            assert info.cls in ISSUE_CLASSES, name

    def test_load_latency_exceeds_alu(self):
        assert ISSUE_CLASSES["LD"].latency > ISSUE_CLASSES["IADD"].latency

    def test_fdiv_not_pipelined(self):
        assert ISSUE_CLASSES["FDIV"].busy > 0

    def test_stores_single_pipe(self):
        assert ISSUE_CLASSES["ST"].pipes == ("E0",)

    def test_issue_class_helper(self):
        assert issue_class("ldq") is ISSUE_CLASSES["LD"]
