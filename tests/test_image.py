"""Tests for images, linking, symbol tables and serialization."""

import pytest

from repro.alpha.assembler import assemble
from repro.alpha.serialize import (image_from_dict, image_to_dict,
                                   load_images, save_images)
from repro.cpu.config import MachineConfig
from repro.cpu.machine import Machine
from repro.tools.abcheck import fingerprint, run_session
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload, workload_names

TWO_PROCS = """
.image libx
.data table, 256
.proc alpha
    nop
    br alpha
.end
.proc beta
    addq t0, 1, t0
    ret
.end
"""


@pytest.fixture
def image():
    return assemble(TWO_PROCS, base=0x20000)


class TestLinking:
    def test_base_and_end(self, image):
        assert image.base == 0x20000
        assert image.end == 0x20000 + 4 * 4

    def test_instruction_addresses_sequential(self, image):
        addrs = [inst.addr for inst in image.instructions]
        assert addrs == [0x20000, 0x20004, 0x20008, 0x2000C]

    def test_procedure_ranges(self, image):
        alpha = image.procedure("alpha")
        beta = image.procedure("beta")
        assert (alpha.start, alpha.end) == (0x20000, 0x20008)
        assert (beta.start, beta.end) == (0x20008, 0x20010)

    def test_contains(self, image):
        assert 0x20008 in image
        assert 0x20010 not in image

    def test_branch_target_rebased(self, image):
        assert image.instructions[1].target == 0x20000

    def test_symbols_resolved(self, image):
        assert image.symbols.resolve("alpha") == 0x20000
        assert image.symbols.resolve("table") == image.data_base

    def test_duplicate_symbol_rejected(self):
        text = ".data x, 8\n.proc x\n    ret\n.end"
        with pytest.raises(ValueError, match="duplicate"):
            assemble(text)


class TestLookup:
    def test_instruction_at(self, image):
        assert image.slice(0x20004, 0x20008)[0].op == "br"

    def test_procedure_at(self, image):
        assert image.procedure_at(0x2000C).name == "beta"
        assert image.procedure_at(0x20000).name == "alpha"

    def test_procedure_at_outside_returns_none(self, image):
        assert image.procedure_at(0x90000) is None

    def test_entry_defaults_to_first_procedure(self, image):
        assert image.entry() == 0x20000
        assert image.entry("beta") == 0x20008

    def test_slice(self, image):
        insts = image.slice(0x20008, 0x20010)
        assert [i.op for i in insts] == ["addq", "ret"]

    def test_procedure_instructions(self, image):
        beta = image.procedure("beta")
        assert [i.op for i in beta.instructions()] == ["addq", "ret"]


class TestSerialization:
    def test_roundtrip_preserves_everything(self, image):
        clone = image_from_dict(image_to_dict(image))
        assert clone.name == image.name
        assert clone.base == image.base
        assert len(clone.instructions) == len(image.instructions)
        assert clone.instructions[1].target == 0x20000
        assert clone.procedure("beta").start == 0x20008
        assert clone.symbols.resolve("table") == image.data_base

    def test_unlinked_image_rejected(self):
        with pytest.raises(ValueError, match="unlinked"):
            image_to_dict(assemble(TWO_PROCS))

    def test_roundtrip_instruction_semantics_preserved(self, image):
        clone = image_from_dict(image_to_dict(image))
        addq = clone.instructions[2]
        assert addq.info.sem(5, 1) == 6


def linked_images(workload):
    machine = Machine(MachineConfig(num_cpus=workload.num_cpus), seed=1)
    workload.setup(machine)
    return machine.loader.images


def saved_fields(image):
    """Everything :func:`save_images` must carry across the disk."""
    return {
        "instructions": [(i.addr, i.op, i.ra, i.rb, i.rc, i.imm, i.target,
                          i.srcs, i.dst) for i in image.instructions],
        "procedures": [(p.name, p.start, p.end) for p in image.procedures],
        "symbols": dict(image.symbols.items()),
        "data": (image.data_base, image.data_offset, image.data_size),
    }


class Reloaded(Workload):
    """One process running a linked image as loaded from disk."""

    def __init__(self, image, name):
        self.image = image
        self.name = name

    def setup(self, machine):
        machine.spawn(self.image, name=self.name)


class TestSavedImages:
    """``save_images`` / ``load_images`` is the one on-disk image
    format: session bundles keep their images in it."""

    @pytest.mark.parametrize("name", workload_names())
    def test_load_of_save_reproduces_every_image(self, name, tmp_path):
        images = linked_images(get_workload(name))
        path = str(tmp_path / "images.json")
        save_images(images, path)
        assert ([saved_fields(image) for image in load_images(path)]
                == [saved_fields(image) for image in images])

    def test_reloaded_image_simulates_identically(self, tmp_path):
        workload = get_workload("mccalpin-assign")
        path = str(tmp_path / "images.json")
        save_images(linked_images(workload), path)
        (image,) = load_images(path)

        def observed(workload):
            result, _ = run_session(workload, True, 1, 50_000, "default")
            return fingerprint(result)
        assert observed(Reloaded(image, workload.name)) == observed(workload)
