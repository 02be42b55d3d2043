"""State snapshot persistence with cross-process exclusion.

The whole world serializes to one JSON file (schema version field "v").
Writers take an exclusive flock on a sibling ``.lock`` file, write to the
sibling ``.tmp`` file, fsync it, rename it into place and fsync the
directory, so concurrent CLI invocations serialize cleanly, readers
never observe a torn snapshot, and a crash leaves either the old state
or the new one (a rename alone is not durable). Only the lock holder
writes the temp file, so one name suffices: one left by a writer killed
before its rename is overwritten and renamed by the next save.
"""

import fcntl
import json
import os
from contextlib import contextmanager, suppress

from .errors import StateIOError
from .world import World

DEFAULT_STATE_PATH = "./minimano-state.json"


def save_world(world: World, path: str):
    data = json.dumps(world.to_snapshot(), separators=(",", ":"))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except OSError as exc:
        with suppress(OSError):
            os.unlink(tmp)
        raise StateIOError(f"cannot write state file {path!r}: {exc}") from None


def load_world(path: str) -> World:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise StateIOError(
            f"state file {path!r} does not exist (run 'minimano init' first)"
        ) from None
    except (OSError, RecursionError, ValueError) as exc:
        raise StateIOError(f"cannot read state file {path!r}: {exc}") from None
    try:
        return World.from_snapshot(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise StateIOError(f"state file {path!r} is malformed: {detail}") from None


@contextmanager
def locked_state(path: str):
    """Exclusive lock scope around load/mutate/save of one state file."""
    lock_path = f"{path}.lock"
    try:
        lock = open(lock_path, "w")
    except OSError as exc:
        raise StateIOError(f"cannot open lock file {lock_path!r}: {exc}") from None
    try:
        fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
        lock.close()
