"""dcpiprof: samples per procedure (the paper's Figure 1).

Reads a set of image profiles and prints procedures sorted by
decreasing CYCLES samples, with cumulative percentages and (when
collected) IMISS sample counts -- kernel and shared-library code
included, exactly like the paper's x11perf listing.
"""

from repro.cpu.events import EventType


def procedure_table(profiles, event=EventType.CYCLES,
                    secondary=EventType.IMISS):
    """Build the dcpiprof table rows.

    Args:
        profiles: iterable of :class:`ImageProfile`.
        event: primary event (columns 1-3).
        secondary: secondary event (columns 4-5), or None.

    Returns (rows, total_primary, total_secondary) where each row is a
    dict with keys: procedure, image, primary, secondary.
    """
    rows = []
    total_primary = 0
    total_secondary = 0
    for profile in profiles:
        if profile.image is None:
            continue
        primary_totals = profile.procedure_totals(event)
        secondary_totals = (profile.procedure_totals(secondary)
                            if secondary is not None else {})
        for proc in profile.image.procedures:
            primary = primary_totals.get(proc.name, 0)
            second = secondary_totals.get(proc.name, 0)
            if primary == 0 and second == 0:
                continue
            rows.append({
                "procedure": proc.name,
                "image": profile.image.name,
                "primary": primary,
                "secondary": second,
            })
            total_primary += primary
            total_secondary += second
    rows.sort(key=lambda r: -r["primary"])
    return rows, total_primary, total_secondary


def dcpiprof(profiles, event=EventType.CYCLES, secondary=EventType.IMISS,
             limit=None):
    """Render the Figure 1-style listing; returns the text."""
    rows, total_primary, total_secondary = procedure_table(
        profiles, event, secondary)
    lines = []
    header = ("Total samples for event type %s = %d"
              % (event, total_primary))
    if secondary is not None and total_secondary:
        header += ", %s = %d" % (secondary, total_secondary)
    lines.append(header)
    lines.append("The counts given below are the number of samples "
                 "for each listed event type.")
    lines.append("")
    lines.append("%10s %7s %7s %10s %7s  %-28s %s"
                 % (event, "%", "cum%", secondary or "", "%",
                    "procedure", "image"))
    cumulative = 0.0
    for row in rows[:limit]:
        share = (100.0 * row["primary"] / total_primary
                 if total_primary else 0.0)
        cumulative += share
        second_share = (100.0 * row["secondary"] / total_secondary
                        if total_secondary else 0.0)
        lines.append("%10d %6.2f%% %6.2f%% %10d %6.2f%%  %-28s %s"
                     % (row["primary"], share, cumulative,
                        row["secondary"], second_share,
                        row["procedure"], row["image"]))
    return "\n".join(lines)
