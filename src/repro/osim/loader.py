"""The (modified) system loader.

The paper's daemon learns where images live from three sources: a
modified ``/sbin/loader`` for dynamic images, a kernel exec-path
recognizer for static images, and a scan of already-running processes.
Here a single :class:`Loader` plays all three roles: it assigns
non-overlapping link addresses, links images, and emits
:class:`LoadMapEvent` notifications to registered listeners (the
profiling daemon subscribes to these).

As on the paper's systems, a shared image is mapped at the same address
in every process that uses it.
"""

from bisect import bisect_right
from collections import namedtuple

#: Notification sent to listeners when an image is mapped into a process.
LoadMapEvent = namedtuple("LoadMapEvent", "pid image base source")


class Loader:
    """Links images at unique addresses and broadcasts load maps."""

    FIRST_BASE = 0x0001_0000
    ALIGN = 0x1_0000  # 64 KB between images

    def __init__(self):
        self._next_base = self.FIRST_BASE
        self._listeners = []
        self.images = []
        # images[i].base, ascending: link() hands out rising addresses.
        self._bases = []
        # (images[i].end, images[i]), fixed at link time: a lookup
        # reads the code's end without calling into the image.
        self._rows = []

    def add_listener(self, callback):
        """Register callback(LoadMapEvent); used by the profiling daemon."""
        self._listeners.append(callback)

    def remove_listener(self, callback):
        """Unregister *callback* (a dead daemon stops hearing events).

        Unregistering twice is legal and does nothing.
        """
        if callback in self._listeners:
            self._listeners.remove(callback)

    def link(self, image):
        """Link *image* at the next free address range (idempotent)."""
        if image.base is not None:
            return image
        image.link(self._next_base)
        end = max(image.end, (image.data_base or 0) + image.data_size)
        self._next_base = (end + self.ALIGN) & ~(self.ALIGN - 1)
        self.images.append(image)
        self._bases.append(image.base)
        self._rows.append((image.end, image))
        return image

    def notify_exec(self, pid, images, source="exec"):
        """Announce that *pid* mapped *images* (the loadmap path)."""
        for image in images:
            if image.base is None:
                raise ValueError("image %s not linked" % image.name)
            event = LoadMapEvent(pid, image, image.base, source)
            for listener in self._listeners:
                listener(event)

    def image_at(self, addr):
        """Return the image whose code contains *addr*, or None."""
        slot = bisect_right(self._bases, addr) - 1
        if slot >= 0:
            end, image = self._rows[slot]
            if addr < end:
                return image
        return None
