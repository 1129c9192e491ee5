"""Figure 8: distribution of errors in instruction frequencies.

Runs the generated-program suite under dense sampling, estimates
per-instruction execution counts from the profiles, and compares them
against the simulator's exact counts (the role dcpix played in the
paper), weighting each instruction by its CYCLES samples.

Paper shape: the bulk of the weight lands in the central buckets (73%
within 5%, 87% within 10%, 92% within 15% in the paper), and samples
that miss badly are predominantly low-confidence.  Also reruns the
paper's section 6.2 single-run vs many-run comparison: aggregating
profiles over more runs tightens the distribution.
"""

from conftest import profile_workload, run_once, write_result
from repro.core.analyze import analyze_image
from repro.core.validate import BUCKETS, bucketize, score, weight_within
from repro.cpu.events import EventType
from repro.workloads.generator import generate_suite

SUITE = 10
BUDGET = 400_000
PERIOD = (60, 64)
MULTI_RUNS = 3


def collect_points(runs=1):
    """Run the suite; aggregate profiles over *runs* seeds; compare."""
    points = []
    for workload in generate_suite(count=SUITE, base_seed=300, rounds=200):
        merged = None
        machine = None
        image = None
        for run in range(runs):
            result = profile_workload(workload, mode="cycles",
                                      seed=1 + run,
                                      max_instructions=BUDGET,
                                      period=PERIOD)
            profile = result.profile_for(workload.name)
            if profile is None:
                continue
            if merged is None:
                merged = profile
                machine = result.machine
                image = result.daemon.images[workload.name]
            else:
                # Generated programs are deterministic, so every run
                # executes identically; link addresses also repeat.
                # Merging the sample counts and dividing by the number
                # of runs therefore yields a denser profile of the
                # *same* execution, comparable against run 1's ground
                # truth.
                for offset, count in profile.counts[
                        EventType.CYCLES].items():
                    merged.add(EventType.CYCLES, offset, count)
        if merged is None:
            continue
        if runs > 1:
            scaled = {}
            for offset, count in merged.counts[EventType.CYCLES].items():
                scaled[offset] = count / runs
            merged.counts[EventType.CYCLES] = scaled
        # Averaged counts can total under one sample per procedure.
        analyses = analyze_image(image, merged, min_samples=0)
        points.extend(score(machine, analyses)[0])
    return points


def run_fig8():
    single = collect_points(runs=1)
    multi = collect_points(runs=MULTI_RUNS)
    return single, multi


def render(single, multi):
    lines = ["Figure 8: distribution of errors in instruction "
             "frequencies (weighted by CYCLES samples)"]
    for label, points in (("1 run", single),
                          ("%d runs" % MULTI_RUNS, multi)):
        histogram, total = bucketize(points)
        lines.append("")
        lines.append("[%s]  total weight %d samples" % (label, total))
        lines.append("%8s %8s   %s" % ("bucket", "weight%",
                                       "by confidence"))
        for bucket in list(BUCKETS) + [BUCKETS[-1] + 10]:
            row = histogram.get(bucket, {})
            share = sum(row.values()) * 100.0
            detail = " ".join("%s=%.1f%%" % (conf, val * 100.0)
                              for conf, val in sorted(row.items()))
            label_text = ("<=%d%%" % bucket if bucket <= BUCKETS[0]
                          else ">+%d%%" % BUCKETS[-1]
                          if bucket > BUCKETS[-1]
                          else "%+d%%" % bucket)
            lines.append("%8s %7.1f%%   %s" % (label_text, share, detail))
        for pct in (5, 10, 15):
            lines.append("within %2d%%: %.1f%%"
                         % (pct, weight_within(points, pct) * 100.0))
    return "\n".join(lines)


def test_fig8_frequency_errors(benchmark):
    single, multi = run_once(benchmark, run_fig8)
    write_result("fig8_freq_errors", render(single, multi))

    assert len(single) > 100  # enough instructions to be meaningful
    # Paper: 73% within 5%, 87% within 10%, 92% within 15%.  Our scaled
    # runs gather far fewer samples per instruction, so require the
    # same shape at relaxed levels.
    assert weight_within(single, 10) > 0.5
    assert weight_within(single, 15) > 0.6
    assert weight_within(single, 45) > 0.85
    # Section 6.2: aggregating runs tightens the estimates.
    assert (weight_within(multi, 10)
            >= weight_within(single, 10) - 0.02)
