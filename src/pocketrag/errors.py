"""Exception hierarchy shared across the package."""


class PocketRagError(Exception):
    """Base class for all package-specific errors."""


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
    """A catalog entry, or an index- or memory-file entry, is missing a field
    or holds an invalid value."""


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
    """A live planner backend failed after retries."""


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
