"""Calls the moved symbol from its real home; per-file clean itself."""

from shimpkg.modern import steady, tick


class Widget:
    def poll(self) -> float:
        return tick()

    def render_status(self) -> str:
        # Sink: reaches time.time() through self.poll, then modern.tick.
        return f"{self.poll()}"


def render_steady() -> str:
    return f"{steady()}"
