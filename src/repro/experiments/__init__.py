"""End-to-end experiment drivers for the paper's four studies.

* :mod:`repro.experiments.scan` — §3's Internet-wide scan (Tables 2-4,
  Figure 1 inputs).
* :mod:`repro.experiments.longevity` — RQ3's re-scan campaign; Figure 2 is
  :mod:`repro.experiments.observe`'s run of it over the vulnerable hosts.
* :mod:`repro.experiments.honeypots` — §4's honeypot study (Tables 5-8,
  Figures 3-4).
* :mod:`repro.experiments.defenders` — §5's commercial-scanner test.
* :mod:`repro.experiments.full_study` — everything, rendered as one
  report.
"""

from repro.experiments.config import StudyConfig
from repro.experiments.scan import ScanStudy, run_scan_study
from repro.experiments.observe import ObserverStudy, run_observer_study
from repro.experiments.honeypots import HoneypotStudy, run_honeypot_study
from repro.experiments.defenders import DefenderStudy, run_defender_study
from repro.experiments.full_study import FullStudy, run_full_study

__all__ = [
    "StudyConfig",
    "ScanStudy",
    "run_scan_study",
    "ObserverStudy",
    "run_observer_study",
    "HoneypotStudy",
    "run_honeypot_study",
    "DefenderStudy",
    "run_defender_study",
    "FullStudy",
    "run_full_study",
]
