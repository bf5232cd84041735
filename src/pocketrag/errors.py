"""Exception hierarchy shared across the package, and the malformed-input guards.

``malformed`` is the single place that decides which exceptions mean that an
outside input (a config, catalog, index, memory, scenario, task, run-log or
manifest file, a planner script or reply, or a search response) has the wrong
shape. ``check_types`` is the single place that decides which type a loaded
field may have: each loader checks its fields against one {field: type} table,
and coerces none. That covers a scenario's header, ``initial``, screen
elements and search hits, and a task's ground truth, action patterns and
sub-goals; a scenario's graphs, transitions and flag values are checked by
the scenario's own validation, whose one walk over the graphs also checks
the elements.
"""

import math
from typing import Mapping


class PocketRagError(Exception):
    """Base class for all package-specific errors."""


class malformed:
    """Re-raise ``KeyError``, ``TypeError``, ``AttributeError`` or ``ValueError``
    (``JSONDecodeError`` and ``UnicodeDecodeError`` included) from the block as
    ``error_class(f"{where} is malformed: {exc!r}")``; all else passes through."""

    def __init__(self, error_class: type[PocketRagError], where: str) -> None:
        self.error_class = error_class
        self.where = where

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, traceback) -> None:
        if isinstance(exc, (KeyError, TypeError, AttributeError, ValueError)):
            raise self.error_class(f"{self.where} is malformed: {exc!r}") from exc


def check_types(data: Mapping, types: Mapping[str, type]) -> None:
    """Raise ValueError for a field of ``data`` that ``types`` names and whose
    value is not of the type it gives: null only where that type admits None
    (``str | None``), a bool never where an int is expected, an int wherever a
    float is, and a float only when it is finite. Fields not named pass."""
    for name, value in data.items():
        kind = types.get(name)
        if kind is None or isinstance(value, kind) and kind is not int and kind is not float:
            continue
        # what a number field takes; ``abs`` takes a huge int, where ``math.isfinite`` overflows
        numbers = (int, float) if kind is float else int if kind is int else ()
        if not isinstance(value, numbers) or value.__class__ is bool or not abs(value) < math.inf:
            what = "finite number" if kind is float else getattr(kind, "__name__", kind)
            raise ValueError(f"{name} {value!r} is not a {what}")


# --- embedding ---

class EmptyTextError(PocketRagError):
    """Input text is empty or carries no embeddable tokens."""


class DimensionMismatchError(PocketRagError):
    """Two vectors (or a vector and an index) disagree on dimension."""


class BackendFailureError(PocketRagError):
    """An embedding backend failed or returned a malformed vector."""


# --- app index ---

class EmptyQueryError(PocketRagError):
    """A retrieval query is empty after trimming."""


class DuplicatePackageIdError(PocketRagError):
    """Two catalog entries share a package id."""


class EmptyDescriptionError(PocketRagError):
    """A catalog entry has no description text."""


class MalformedEntryError(PocketRagError):
    """A catalog entry, a task file, or an index- or memory-file entry is
    missing a field or holds an invalid value."""


class ConflictingRecordError(PocketRagError):
    """Re-registration of a package id with a different description."""


class QuerySourceFailureError(PocketRagError):
    """The training-corpus query source raised."""


# --- web search ---

class BackendUnavailableError(PocketRagError):
    """The search backend could not be reached or authenticated."""


# --- task memory ---

class EmptyTraceError(PocketRagError):
    """Attempted to commit an empty action trace."""


class TraceWithoutStopError(PocketRagError):
    """Attempted to commit a trace whose final action is not Stop."""


# --- simulator ---

class ScenarioError(PocketRagError):
    """A scenario definition violates its structural invariants."""


class AppNotInstalledError(PocketRagError):
    """LaunchApp targeted a package that is not installed."""


class DeviceStoppedError(PocketRagError):
    """An action was executed after Stop froze the device."""


class NotInStoreError(PocketRagError):
    """Install requested for a package absent from the store catalog."""


# --- agent ---

class ScenarioMismatchError(PocketRagError):
    """The app index and the scenario disagree on installed apps."""


class PlannerFailureError(PocketRagError):
    """A live planner backend failed after retries, or a script entry is malformed."""


class NoAppAnywhereError(PocketRagError):
    """Neither the local index nor the store yielded a usable app."""


# --- benchmark harness ---

class ManifestError(PocketRagError):
    """A pack manifest is missing, malformed, or inconsistent."""


class DanglingScenarioRefError(PocketRagError):
    """A task references a scenario that is not in the pack."""


class InvalidGroundTruthError(PocketRagError):
    """A task's ground truth fails validation against its scenario."""


class MisalignmentError(PocketRagError):
    """Runs and ground truths could not be aligned by task id."""
