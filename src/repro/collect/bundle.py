"""Session bundles: everything the offline tools need, on disk.

A bundle directory holds the profile database (epoch files), the linked
images (JSON), and metadata (sampling periods, collection stats), so
``dcpiprof``/``dcpicalc``/``dcpistats`` can run long after the profiled
machine is gone -- the paper's "analysis is done offline" property.

Loading degrades gracefully: corrupt profile files are quarantined by
the database and reported through the meta dict's ``warnings`` list
instead of aborting, and the ``loss`` block carries the collection
run's accounted sample loss so the analysis tools can flag
low-confidence results.
"""

import json
import os

from repro.alpha.serialize import load_images, save_images
from repro.collect.database import (CorruptProfileError, ImageProfile,
                                    ProfileDatabase)
from repro.faults import audit
from repro.obs import derive


def save_bundle(result, path):
    """Persist a :class:`SessionResult` into directory *path*."""
    os.makedirs(path, exist_ok=True)
    images = [p.image for p in result.daemon.profiles.values()
              if p.image is not None]
    save_images(images, os.path.join(path, "images.json"))
    database = ProfileDatabase(os.path.join(path, "db"))
    result.daemon.merge_to_disk(database)
    stats = derive(result.metrics())
    meta = {
        "periods": {str(ev): period
                    for ev, period in result.daemon.periods.items()},
        "stats": stats,
        # Loss accounting for graceful analysis degradation.
        "loss": _loss(stats, database),
    }
    with open(os.path.join(path, "meta.json"), "w") as handle:
        json.dump(meta, handle, indent=2)
    return path


def _loss(stats, database):
    """The ``loss`` block: the run's dropped + lost samples and what
    *database* has quarantined, over the samples the driver took --
    the definition ``dcpichaos`` uses (:func:`audit.loss_rate`)."""
    quarantined = database.quarantined_samples()
    return {
        "samples_dropped": stats["collect.samples_dropped"],
        "loss_rate": audit.loss_rate({
            "driver_samples": stats.get("driver.samples", 0),
            "dropped": stats.get("driver.overflow.dropped", 0),
            "lost": stats.get("daemon.lost_samples", 0),
            "quarantined_samples": quarantined}),
        "recoveries": stats["collect.recoveries"],
        "quarantined_samples": quarantined,
    }


def load_bundle(path):
    """Load a bundle; returns ({image name: ImageProfile}, meta dict).

    Corrupt profiles are skipped (and quarantined by the database);
    the names of skipped files are returned in ``meta["warnings"]``,
    and ``meta["loss"]`` counts what this load set aside too.
    """
    from repro.cpu.events import EventType

    images = {img.name: img
              for img in load_images(os.path.join(path, "images.json"))}
    with open(os.path.join(path, "meta.json")) as handle:
        meta = json.load(handle)
    periods = {EventType(name): period
               for name, period in meta["periods"].items()}
    database = ProfileDatabase(os.path.join(path, "db"))
    profiles = {}
    warnings = list(meta.get("warnings", []))
    for image_name, event in list(database.profiles()):
        try:
            counts, _ = database.load(image_name, event)
        except (CorruptProfileError, FileNotFoundError) as exc:
            warnings.append("skipped %s@%s: %s"
                            % (image_name, event, exc))
            continue
        image = images.get(image_name)
        if image is None:
            warnings.append("no image metadata for %r; profile skipped"
                            % image_name)
            continue
        profile = profiles.setdefault(
            image.name, ImageProfile(image, periods=periods))
        for offset, count in counts.items():
            profile.add(event, offset, count)
    warnings.extend(database.warnings)
    meta["warnings"] = warnings
    meta["loss"] = _loss(meta["stats"], database)
    return profiles, meta
