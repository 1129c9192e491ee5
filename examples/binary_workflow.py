"""Working with executables on disk: the full unmodified-binary story.

DCPI's pitch is that it profiles *unmodified executables*.  This
example walks the whole lifecycle of a linked image:

1. assemble a program and write the linked image to disk with
   ``repro.alpha.serialize`` -- the format the offline tools
   (dcpiprof, dcpicalc, dcpistats) read from session bundles;
2. load the image back (no assembler involved) and profile it,
   unmodified, under the collection system;
3. estimate basic-block execution counts from the samples (dcpix);
4. cross-check against the pixie baseline, which *rewrites* the binary
   with counting instrumentation and measures its overhead -- the
   paper's Table 1 contrast in one script.

Run with:  python examples/binary_workflow.py
"""

import os
import tempfile

from repro import MachineConfig, ProfileSession, SessionConfig
from repro.alpha.serialize import load_images, save_images
from repro.baselines import PixieProfiler
from repro.tools import dcpix
from repro.workloads import mccalpin

#: CI smoke runs set DCPI_EXAMPLE_BUDGET to cap simulated instructions;
#: unset (0) means run the workload to completion.
BUDGET = int(os.environ.get("DCPI_EXAMPLE_BUDGET", "0")) or None


def main():
    workload = mccalpin.build("assign", n=4096, iterations=2)

    # Build and store the image (normally your compiler's job).
    from repro.cpu.machine import Machine

    scratch = Machine(MachineConfig(), seed=1)
    workload.setup(scratch)
    image = scratch.processes[0].images[0]
    with tempfile.TemporaryDirectory(prefix="dcpi-bin-") as directory:
        path = os.path.join(directory, "mccalpin.json")
        save_images([image], path)
        print("wrote %s (%d bytes, %d instructions)"
              % (path, os.path.getsize(path), len(image.instructions)))
        (binary,) = load_images(path)

    # Profile the unmodified image.

    def run_binary(machine):
        machine.load_image(binary)
        machine.spawn(binary, name="mccalpin-bin")

    session = ProfileSession(
        MachineConfig(),
        SessionConfig(mode="default", cycles_period=(60, 64)))
    result = session.run(run_binary, max_instructions=BUDGET)
    profile = result.profile_for("mccalpin")
    print("\n=== dcpix: estimated block counts from samples ===")
    print(dcpix(binary, profile))

    # The instrumentation alternative: pixie rewrites the binary.
    print("\n=== pixie baseline: rewritten binary, exact counts ===")
    pixie = PixieProfiler(MachineConfig()).profile(
        mccalpin.build("assign", n=4096, iterations=2),
        max_instructions=BUDGET)
    exact = pixie.data["block_counts"]
    print("exact hot-block count: %d   overhead: %.1f%%"
          % (max(exact.values()), pixie.overhead * 100))
    from repro.tools.dcpix import pixie_counts

    estimated = pixie_counts(binary, profile)
    est_hot = max(count for _, count in estimated.values())
    print("sampled estimate:      %d   overhead: ~1%% "
          "(the paper's contrast)" % est_hot)


if __name__ == "__main__":
    main()
