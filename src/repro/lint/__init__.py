"""reprolint: static analysis for the reproduction's own invariants.

The scan pipeline rests on hand-maintained artifact families and
runtime disciplines that nothing used to check mechanically:

* the 90-regex **signature corpus** in :mod:`repro.core.prefilter`
  (stage II lives or dies on its precision and recall);
* the **determinism invariant** — byte-identical replay and resume —
  which a single stray ``time.time()`` or unordered ``set`` walk would
  silently break;
* the **worker boundary** — code reachable inside pool workers may not
  write shared state, and objects pickled into process workers must
  actually survive pickling (the three bugs the process pool found at
  runtime in PR 7, now caught statically).

Three analyzers turn those into machine-checked properties, each
emitting structured :class:`~repro.lint.findings.Finding` records:

* :class:`~repro.lint.signatures.SignatureAuditor` (``SIG*`` rules)
* :class:`~repro.lint.determinism.DeterminismAuditor` (the per-module
  ``DET*`` and ``OBS001`` rules)
* :class:`~repro.lint.concurrency.ConcurrencyAuditor` (``RACE*`` /
  ``PKL*`` rules, on the whole-program
  :class:`~repro.lint.callgraph.CallGraph`)

``python -m repro.lint`` runs them all over the whole tree, parsing each
module once (the call graph's trees are what every analyzer reads); a
committed baseline file lets CI fail only on *new* findings.
"""

from repro.lint.baseline import Baseline
from repro.lint.callgraph import CallGraph
from repro.lint.concurrency import ConcurrencyAuditor
from repro.lint.determinism import DeterminismAuditor
from repro.lint.findings import RULES, Finding, Severity
from repro.lint.signatures import SignatureAuditor

__all__ = [
    "Baseline",
    "CallGraph",
    "ConcurrencyAuditor",
    "DeterminismAuditor",
    "Finding",
    "RULES",
    "Severity",
    "SignatureAuditor",
]
