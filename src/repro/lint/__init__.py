"""reprolint: static analysis for the reproduction's own invariants.

The scan pipeline rests on hand-maintained artifact families and
runtime disciplines that nothing used to check mechanically:

* the 90-regex **signature corpus** in :mod:`repro.core.prefilter`
  (stage II lives or dies on its precision and recall);
* the **determinism invariant** — byte-identical replay and resume —
  which a single stray ``time.time()`` or unordered ``set`` walk would
  silently break.

Two analyzers turn those into machine-checked properties, each emitting
structured :class:`~repro.lint.findings.Finding` records:

* :class:`~repro.lint.signatures.SignatureAuditor` (``SIG*`` rules)
* :class:`~repro.lint.determinism.DeterminismAuditor` (the per-module
  ``DET*`` and ``OBS001`` rules)

The worker boundary — pool workers write no shared state, and what
crosses into process workers pickles without main-process handles — is
checked at runtime on the objects a real sweep builds
(``tests/core/test_worker_boundary.py``), not guessed from the AST.

``python -m repro.lint`` runs both over the whole tree, parsing each
module once (:func:`~repro.lint.modules.parse_modules`); a committed
baseline file lets CI fail only on *new* findings.
"""

from repro.lint.baseline import Baseline
from repro.lint.determinism import DeterminismAuditor
from repro.lint.findings import RULES, Finding, Severity
from repro.lint.signatures import SignatureAuditor

__all__ = [
    "Baseline",
    "DeterminismAuditor",
    "Finding",
    "RULES",
    "Severity",
    "SignatureAuditor",
]
