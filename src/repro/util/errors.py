"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Subsystem-specific errors
subclass it to keep ``except`` clauses precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An experiment or application was configured inconsistently."""


class CheckpointCorrupt(ReproError):
    """A checkpoint journal is damaged somewhere a torn save cannot explain.

    A crash mid-save can only tear the journal's *last* record, which is
    dropped and resumed past.  A record before the tail that fails its
    checksum or does not parse means the file was damaged at rest;
    resuming from what is left would silently lose part of the sweep.
    A re-scan state file is replaced whole, so one that is empty, cut
    short, garbled or missing a section was damaged at rest too.
    """


class TransportError(ReproError):
    """A network-level failure: refused connection, timeout, reset.

    Mirrors the failures a real scanner sees from sockets.  The scanning
    pipeline treats these as "host not responsive" rather than crashing.
    """


class ConnectionRefused(TransportError):
    """The target port is closed (TCP RST in the real world)."""


class ConnectionTimeout(TransportError):
    """The target did not answer within the deadline (filtered port)."""


class ConnectionReset(TransportError):
    """The peer tore the connection down mid-exchange (TCP RST)."""


class CircuitOpen(TransportError):
    """A circuit breaker refused the operation without touching the wire.

    Raised instead of probing a target whose per-host or per-/24 circuit
    is open; callers treat it like any transport failure (a miss), which
    is the point — stop hammering dead targets.
    """


class TlsError(TransportError):
    """The target port is open but does not speak TLS."""


class PoisonError(TransportError):
    """A non-transport failure while handling a target's response.

    Raised when a plugin, matcher, or parser blows up on a garbled body
    — a *poison target*, not a flaky network.  Subclasses
    :class:`TransportError` so every stage's failure handling treats it
    as a miss, but the retry executor never retries it: retrying a
    deterministic parse crash burns the budget for nothing.  Poison
    events feed the supervisor's quarantine ledger instead.
    """


class QuarantineSkip(TransportError):
    """An operation was refused because its target is quarantined.

    Like :class:`CircuitOpen`, raised without touching the wire; unlike
    a circuit, quarantine never half-opens — a poison target stays
    quarantined for the rest of the sweep.
    """


class ShardCrash(ReproError):
    """A shard worker died mid-execution (injected or real).

    Deliberately *not* a :class:`TransportError`: a crashed shard is a
    runtime failure the supervisor's restart ladder handles, never
    something a per-host retry loop should swallow.
    """


class CoverageError(ReproError):
    """A CoverageReport failed its invariant or report reconciliation."""


class VerificationError(ReproError):
    """An incremental result diverged from its from-scratch oracle."""


class PluginError(ReproError):
    """A Tsunami detection plugin failed in an unexpected way."""


class SnapshotError(ReproError):
    """A honeypot snapshot could not be taken or restored."""


class LogIntegrityError(ReproError):
    """The append-only central log detected tampering."""
