"""Exception hierarchy shared across the package.

A PolicyError raised while the CLI loads a plan exits 3, as do structural
violations in the results `report` reads. Every other error exits 1,
including a MalformedDocument raised while `report` parses results or
`trace` reads labels (2 is reserved for blocking control failures).
"""

from __future__ import annotations


class OscalAssureError(Exception):
    """Base class for all errors raised by this package."""


# --- policy documents -------------------------------------------------------


class PolicyError(OscalAssureError):
    """A policy (assessment plan) document is unusable."""


class MalformedDocument(PolicyError):
    """The document is not well-formed JSON/YAML or has the wrong root shape."""


class MissingRequiredProperty(PolicyError):
    """A control lacks metric_key, operator, or threshold."""


class InvalidEnumValue(PolicyError):
    """A property value is outside its fixed vocabulary."""


class UnparsableThreshold(PolicyError):
    """The threshold property is not a finite decimal."""


class DuplicateControlId(PolicyError):
    """Two implemented-requirements share a control-id."""


class SerializationFailure(OscalAssureError):
    """A document failed structural validation at serialization time."""


# --- tabular data ------------------------------------------------------------


class DataError(OscalAssureError):
    """A dataset or role binding is unusable."""


class RaggedRows(DataError):
    """A CSV row has a different cell count than the header."""


class EmptyInput(DataError):
    """The data source contains no header row."""


class UndecodableBytes(DataError):
    """The data source is not valid UTF-8."""


class MissingColumn(DataError):
    """A bound or requested column does not exist in the table."""


class NonBinaryTarget(DataError):
    """A target/prediction column has more than two distinct values."""


class UnknownPositiveLabel(DataError):
    """A target/prediction column holds two values and neither is the
    designated positive label."""


class NegativeWeight(DataError):
    """The weight column contains a negative or non-finite value."""


class NonCategoricalColumn(DataError):
    """stratify() was asked to partition on a non-categorical column."""


# --- metrics -----------------------------------------------------------------


class MetricError(OscalAssureError):
    """A metric could not be resolved or computed."""


class DuplicateKey(MetricError):
    """A metric key is already registered."""


class UnknownMetricKey(MetricError):
    """No metric is registered under the requested key."""


class MissingRole(MetricError):
    """The metric needs a role (target/group/prediction) that is not bound."""


class NotComputable(MetricError):
    """The metric is undefined on this data (empty group, zero denominator)."""


# --- enforcement -------------------------------------------------------------


class PolicyDataMismatch(OscalAssureError):
    """Selected automated controls need roles the bindings do not provide."""


class BlockingControlFailure(OscalAssureError):
    """Raised by PhaseReport.raise_if_blocked() after a block-mode failure."""

    def __init__(self, control_ids: list[str]):
        self.control_ids = list(control_ids)
        super().__init__(
            "blocking control(s) failed: " + ", ".join(self.control_ids)
        )


# --- evidence vault ----------------------------------------------------------


class VaultError(OscalAssureError):
    """The run vault cannot be used as requested."""


class UnwritableVault(VaultError):
    """The vault root is not writable."""


class InvalidRunId(VaultError):
    """The caller-supplied run id is not filesystem-safe."""


class SessionClosed(VaultError):
    """The session was already finalized."""


class UnparsableManifest(OscalAssureError):
    """A dependency manifest line is not 'name==version' or 'name version'."""
