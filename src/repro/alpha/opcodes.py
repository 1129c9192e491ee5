"""Opcode metadata for the Alpha-like ISA.

Each opcode carries everything the rest of the system needs:

* ``kind`` -- the operand shape (integer operate, load, store, branch...),
  which determines how the assembler parses it and how the interpreter
  executes it.
* ``cls`` -- the issue class used by the pipeline model and the static
  scheduler (functional unit, result latency, allowed issue pipes).
* ``sem`` / ``cond`` -- the architectural semantics.

Semantics are declared here, once, and never restated: each operate,
conditional-move and branch-condition opcode is one small expression
over its operands in the tables below.  The callable the simulator's
slow path and the translation validator call is derived from that
text and carries it (``fn.expr``); the simulator's fast path emits the
same text through :func:`open_code`.  A consumer that needs an
opcode's arithmetic reads it from here.

The issue classes below describe a 21164-flavoured dual-issue machine.
They are a simplification of the real chip, but the *same* table drives
both the cycle-level simulator and the analysis tools' static scheduler,
so the analysis has no model skew relative to the simulated hardware.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Any, Callable, Dict, Optional

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Issue pipes. E0/E1 are the integer pipes, FA/FM the floating pipes.
# Up to two instructions issue per cycle, and a pair may dual-issue only
# if it can be slotted onto two distinct pipes.
E0, E1, FA, FM = "E0", "E1", "FA", "FM"

#: Issue-class table: name -> (result latency, allowed pipes, busy unit,
#: unit busy cycles).  A non-None busy unit blocks subsequent users of the
#: same unit (IMUL interlock, non-pipelined FDIV).
IssueClass = namedtuple("IssueClass", "latency pipes unit busy")

ISSUE_CLASSES = {
    "IADD": IssueClass(1, (E0, E1), None, 0),
    "ILOG": IssueClass(1, (E0, E1), None, 0),
    "SHIFT": IssueClass(1, (E0,), None, 0),
    "ICMP": IssueClass(1, (E0, E1), None, 0),
    "CMOV": IssueClass(1, (E0, E1), None, 0),
    "IMUL": IssueClass(8, (E0,), "imul", 4),
    "LD": IssueClass(2, (E0, E1), None, 0),
    "ST": IssueClass(0, (E0,), None, 0),
    "BR": IssueClass(1, (E1,), None, 0),
    "JSR": IssueClass(1, (E1,), None, 0),
    "FADD": IssueClass(4, (FA,), None, 0),
    "FMUL": IssueClass(4, (FM,), None, 0),
    "FDIV": IssueClass(18, (FA,), "fdiv", 16),
    "FBR": IssueClass(1, (FA,), None, 0),
    "NOP": IssueClass(0, (E0, E1), None, 0),
}

OpInfo = namedtuple("OpInfo", "name kind cls sem cond")


def _s64(x: int) -> int:
    """Interpret the low 64 bits of *x* as a signed integer."""
    x &= MASK64
    return x - (1 << 64) if x >> 63 else x


def _s32(x: int) -> int:
    x &= MASK32
    return x - (1 << 32) if x >> 31 else x


#: Every name a semantics expression may use besides its operands (and
#: Python's builtins).  The derived callables are evaluated in it, and a
#: code generator that emits :func:`open_code` text executes it in it.
EXPR_GLOBALS: Dict[str, Any] = {"MASK64": MASK64, "_s64": _s64, "_s32": _s32}

_OPERAND = re.compile(r"\b[ab]\b")


def _derive(params: str, expr: str) -> Callable[..., Any]:
    """The callable for semantics expression *expr* over *params*.

    It carries its source as ``fn.expr``, so whoever holds the callable
    (a predecode record, an ``OpInfo`` row) also holds the text.
    """
    fn = eval("lambda %s: %s" % (params, expr), EXPR_GLOBALS)
    fn.expr = expr
    return fn


def open_code(fn: Any, a: str, b: Optional[str] = None) -> str:
    """The expression of semantics callable *fn* with the operand texts
    *a* and *b* substituted: what a code generator emits in place of a
    call to *fn*, to be executed under :data:`EXPR_GLOBALS`."""
    operands = {"a": a, "b": b}
    return _OPERAND.sub(lambda m: operands[m.group()], fn.expr)


OPCODES: Dict[str, "OpInfo"] = {}


def _declare(name: str, kind: str, cls: str,
             sem: Optional[Callable[..., Any]] = None,
             cond: Optional[Callable[..., Any]] = None) -> None:
    if name in OPCODES:
        raise ValueError("opcode %r declared twice" % name)
    OPCODES[name] = OpInfo(name, kind, cls, sem, cond)


# Operate semantics: f(a, b) -> result.  Integer operands and results
# are canonical 64-bit register values (0 <= x <= MASK64); floating
# ones are Python floats.
for _name, _kind, _cls, _expr in (
    ("addq", "op", "IADD", "(a + b) & MASK64"),
    ("subq", "op", "IADD", "(a - b) & MASK64"),
    ("addl", "op", "IADD", "_s32(a + b) & MASK64"),
    ("subl", "op", "IADD", "_s32(a - b) & MASK64"),
    ("s4addq", "op", "IADD", "(4 * a + b) & MASK64"),
    ("s8addq", "op", "IADD", "(8 * a + b) & MASK64"),
    ("mulq", "op", "IMUL", "(_s64(a) * _s64(b)) & MASK64"),
    ("and", "op", "ILOG", "a & b"),
    ("bis", "op", "ILOG", "a | b"),
    ("xor", "op", "ILOG", "a ^ b"),
    ("bic", "op", "ILOG", "a & ~b & MASK64"),
    ("sll", "op", "SHIFT", "(a << (b & 63)) & MASK64"),
    ("srl", "op", "SHIFT", "(a & MASK64) >> (b & 63)"),
    ("sra", "op", "SHIFT", "(_s64(a) >> (b & 63)) & MASK64"),
    ("cmpeq", "op", "ICMP", "1 if a == b else 0"),
    ("cmplt", "op", "ICMP", "1 if _s64(a) < _s64(b) else 0"),
    ("cmple", "op", "ICMP", "1 if _s64(a) <= _s64(b) else 0"),
    ("cmpult", "op", "ICMP", "1 if (a & MASK64) < (b & MASK64) else 0"),
    ("cmpule", "op", "ICMP", "1 if (a & MASK64) <= (b & MASK64) else 0"),
    ("addt", "fop", "FADD", "a + b"),
    ("subt", "fop", "FADD", "a - b"),
    ("mult", "fop", "FMUL", "a * b"),
    ("divt", "fop", "FDIV", "a / b if b != 0.0 else 0.0"),
    # copy sign of a onto b; with a == b this is a register move.
    ("cpys", "fop", "FADD", "-abs(b) if a < 0 else abs(b)"),
    # convert the integer bits in b to a float (fa field unused).
    ("cvtqt", "fop", "FADD", "float(_s64(int(b)))"),
    ("cvttq", "fop", "FADD", "float(int(b))"),
):
    _declare(_name, _kind, _cls, sem=_derive("a, b", _expr))

# Branch conditions: f(ra value) -> bool.  The integer sign tests read
# bit 63 directly, which is the sign only of a canonical register value
# (0 <= a <= MASK64): that is what ``iregs`` holds and what every
# ``sem`` above returns, and it is the only domain any caller has.
for _name, _kind, _cls, _expr in (
    ("beq", "cbranch", "BR", "a == 0"),
    ("bne", "cbranch", "BR", "a != 0"),
    ("blt", "cbranch", "BR", "(a >> 63) != 0"),
    ("ble", "cbranch", "BR", "(a >> 63) != 0 or a == 0"),
    ("bgt", "cbranch", "BR", "(a >> 63) == 0 and a != 0"),
    ("bge", "cbranch", "BR", "(a >> 63) == 0"),
    ("blbc", "cbranch", "BR", "(a & 1) == 0"),
    ("blbs", "cbranch", "BR", "(a & 1) == 1"),
    ("fbeq", "fbranch", "FBR", "a == 0.0"),
    ("fbne", "fbranch", "FBR", "a != 0.0"),
    ("fblt", "fbranch", "FBR", "a < 0.0"),
    ("fbge", "fbranch", "FBR", "a >= 0.0"),
):
    _declare(_name, _kind, _cls, cond=_derive("a", _expr))

# A conditional move tests ra with the like-named branch's condition.
_declare("cmovne", "op", "CMOV", cond=OPCODES["bne"].cond)
_declare("cmoveq", "op", "CMOV", cond=OPCODES["beq"].cond)

for _name, _kind, _cls in (
    # Memory.
    ("ldq", "load", "LD"),
    ("ldl", "load", "LD"),
    ("ldt", "fload", "LD"),
    ("stq", "store", "ST"),
    ("stl", "store", "ST"),
    ("stt", "fstore", "ST"),
    ("lda", "lda", "IADD"),
    ("ldah", "lda", "IADD"),
    # Control flow.
    ("br", "br", "BR"),
    ("bsr", "br", "JSR"),
    ("jmp", "jump", "JSR"),
    ("jsr", "jump", "JSR"),
    ("ret", "jump", "JSR"),
    ("call_pal", "pal", "NOP"),
    ("nop", "nop", "NOP"),
    ("unop", "nop", "NOP"),
):
    _declare(_name, _kind, _cls)

#: Conditional-branch inversion pairs.  ``BRANCH_INVERSES[op]`` is the
#: opcode whose condition is the exact architectural negation of
#: ``op``'s (the ``cond`` callables above are complementary on every
#: register value) -- the table the rewriter's branch inversion and the
#: translation validator's simulation rules both rely on.
BRANCH_INVERSES: Dict[str, str] = {
    "beq": "bne", "bne": "beq",
    "blt": "bge", "bge": "blt",
    "ble": "bgt", "bgt": "ble",
    "blbc": "blbs", "blbs": "blbc",
    "fbeq": "fbne", "fbne": "fbeq",
    "fblt": "fbge", "fbge": "fblt",
}

#: Kinds that change control flow (end a basic block).
CONTROL_KINDS = frozenset(["br", "cbranch", "fbranch", "jump"])
#: Kinds whose target is statically known.
DIRECT_BRANCH_KINDS = frozenset(["br", "cbranch", "fbranch"])
#: Kinds that read or write memory.
MEMORY_KINDS = frozenset(["load", "fload", "store", "fstore"])


def issue_class(opname: str) -> "IssueClass":
    """Return the :class:`IssueClass` row for opcode *opname*."""
    return ISSUE_CLASSES[OPCODES[opname].cls]
