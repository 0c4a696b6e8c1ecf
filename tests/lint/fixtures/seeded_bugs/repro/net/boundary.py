"""Seeded pickle-boundary bug (PKL003) and the near misses of all three
PKL rules: a boundary class that strips what it must not ship, and a
picklable callable stored where a lambda would not survive pickling."""

import threading

PICKLE_BOUNDARY_TYPES = (
    "repro.net.boundary.LockedRunner",
    "repro.net.boundary.StrippedRunner",
)


class LockedRunner:
    def __init__(self):
        self._lock = threading.Lock()  # seeded: PKL003


class StrippedRunner:
    def __init__(self, telemetry=None):
        self.telemetry = telemetry  # near miss: PKL002
        self._lock = threading.Lock()  # near miss: PKL003

    def __getstate__(self):
        state = dict(self.__dict__)
        state["telemetry"] = None
        state.pop("_lock")
        return state


class _Responder:
    def __init__(self, page):
        self.page = page

    def __call__(self, request):
        return self.page


def serve(server, page):
    server.responder = _Responder(page)  # near miss: PKL001
