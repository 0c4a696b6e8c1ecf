"""Host churn during the four-week observation window (RQ3).

After the initial scan the paper re-scanned all 4,221 vulnerable hosts
every three hours for four weeks and watched them drift into three end
states: still *vulnerable*, *fixed* (reachable but no longer vulnerable),
or *offline* (shut down or firewalled).  This module assigns each
vulnerable host a fate, calibrated to the published curves:

* ~10% of hosts stop being vulnerable within the first six hours, mostly
  by going offline (insecure-by-default instances lead this early wave);
* afterwards the population decays by roughly 5-10% per week, leaving a
  bit over half still vulnerable after four weeks;
* fixes are rare (139 hosts, 3.2%) and front-loaded in the CMS category,
  where completing the installation is what "fixes" the MAV;
* explicitly misconfigured instances are somewhat more likely to be fixed
  (rather than taken offline) than insecure-by-default ones;
* ~2.4% of hosts update the application version while staying observed.

Jenkins and WordPress exit fastest; Joomla and Drupal linger longest;
notebooks stay vulnerable much longer than CI systems.
"""

from __future__ import annotations

import enum
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

from repro.apps.catalog import app_by_slug
from repro.apps.versions import RELEASE_DB
from repro.net.host import Host
from repro.util.clock import DAY, HOUR, WEEK


class FateKind(enum.Enum):
    VULNERABLE = "vulnerable"  # survives the whole window
    FIXED = "fixed"
    OFFLINE = "offline"


@dataclass(frozen=True)
class Fate:
    """What happens to one vulnerable host during the observation."""

    kind: FateKind
    #: when the host stops being vulnerable (None if it never does)
    exit_time: float | None
    #: when (if ever) the owner updates the software version
    update_time: float | None

    def state_at(self, t: float) -> FateKind:
        if self.exit_time is None or t < self.exit_time:
            return FateKind.VULNERABLE
        return self.kind


class Churn(enum.Flag):
    """What one lifecycle step changed on a host."""

    NONE = 0
    UPDATED = enum.auto()  # the application version was bumped
    SECURED = enum.auto()  # authentication was switched on
    OFFLINE = enum.auto()  # port churn: a port scan sees it unaided
    #: invisible to a port scan, so a re-scan must be told
    CONTENT = UPDATED | SECURED


@dataclass
class Deployment:
    """One watched vulnerable deployment: the host, the app, its fate."""

    host: Host
    slug: str
    fate: Fate
    update_applied: bool = False

    def advance(self, now: float) -> Churn:
        """Play the fate out on the host up to ``now``; say what changed."""
        host, fate = self.host, self.fate
        changed = Churn.NONE
        if not host.online:
            return changed  # whatever falls due on a host that is gone is lost
        if (
            fate.update_time is not None
            and now >= fate.update_time
            and not self.update_applied
        ):
            self.update_applied = True
            app = host.app_instance(self.slug)
            if app is not None:
                release = RELEASE_DB.next_release_after(
                    self.slug, RELEASE_DB.release_date(self.slug, app.version)
                )
                if release is not None:
                    app.version = release.version
                    changed |= Churn.UPDATED
        if fate.exit_time is not None and now >= fate.exit_time:
            if fate.kind is FateKind.OFFLINE:
                host.take_offline()
                changed |= Churn.OFFLINE
            elif fate.kind is FateKind.FIXED:
                app = host.app_instance(self.slug)
                if app is not None and app.is_vulnerable():
                    try:
                        app.secure()
                        changed |= Churn.SECURED
                    except NotImplementedError:
                        host.take_offline()  # e.g. Polynote: no auth to enable
                        changed |= Churn.OFFLINE
        return changed


#: Per-application hazard multipliers on the weekly exit rate.  >1 exits
#: faster (Jenkins, WordPress), <1 lingers (Joomla, Drupal, notebooks).
APP_HAZARD: dict[str, float] = {
    "jenkins": 1.6,
    "gocd": 1.3,
    "wordpress": 1.6,
    "grav": 1.0,
    "joomla": 0.45,
    "drupal": 0.5,
    "kubernetes": 1.0,
    "docker": 1.1,
    "consul": 1.0,
    "hadoop": 1.0,
    "nomad": 0.95,
    "jupyterlab": 0.6,
    "jupyter-notebook": 0.6,
    "zeppelin": 0.65,
    "polynote": 0.7,
    "ajenti": 1.0,
    "phpmyadmin": 1.0,
    "adminer": 1.0,
}


@dataclass
class LifecycleModel:
    """Fate sampler with the calibration constants exposed as fields."""

    window: float = 4 * WEEK
    #: probability of exiting within the first six hours
    quick_exit_base: float = 0.055
    quick_exit_insecure_default: float = 0.115
    #: share of quick exits that are fixes rather than shutdowns
    quick_fix_share: float = 0.10
    #: baseline weekly exit hazard after the quick phase
    weekly_hazard: float = 0.13
    #: share of slow exits that are fixes, by category
    fix_share_cms: float = 0.33
    fix_share_other: float = 0.045
    #: boost of the fix share for explicitly misconfigured instances
    modified_fix_boost: float = 1.6
    #: probability that a host updates its version during the window
    update_probability: float = 0.024
    #: mean of the (front-loaded) CMS fix time
    cms_fix_mean: float = 3 * DAY

    def fate_for(self, rng: random.Random, slug: str, version: str) -> Fate:
        """Sample the fate of one vulnerable deployment."""
        spec = app_by_slug(slug)
        by_default = spec.default_mav_in(version)

        update_time: float | None = None
        if rng.random() < self.update_probability:
            update_time = rng.uniform(0.0, self.window)

        quick_p = (
            self.quick_exit_insecure_default if by_default else self.quick_exit_base
        )
        if rng.random() < quick_p:
            exit_time = rng.uniform(0.0, 6 * HOUR)
            fixed = rng.random() < self.quick_fix_share
            kind = FateKind.FIXED if fixed else FateKind.OFFLINE
            return Fate(kind, exit_time, update_time)

        hazard = self.weekly_hazard * APP_HAZARD.get(slug, 1.0) / WEEK
        exit_time = rng.expovariate(hazard) if hazard > 0 else math.inf
        if exit_time >= self.window:
            return Fate(FateKind.VULNERABLE, None, update_time)

        if spec.category.short == "CMS":
            fix_share = self.fix_share_cms
        else:
            fix_share = self.fix_share_other
        if not by_default:
            fix_share = min(1.0, fix_share * self.modified_fix_boost)

        if rng.random() < fix_share:
            if spec.category.short == "CMS":
                # Installation completions cluster in the first days.
                exit_time = min(rng.expovariate(1.0 / self.cms_fix_mean), self.window * 0.999)
            return Fate(FateKind.FIXED, exit_time, update_time)
        return Fate(FateKind.OFFLINE, exit_time, update_time)

    def plan(
        self, rng: random.Random, watched: Iterable[tuple[Host, str]]
    ) -> list[Deployment]:
        """One fate per ``(host, slug)``, drawn in the order given."""
        return [
            Deployment(
                host, slug,
                self.fate_for(rng, slug, host.app_instance(slug).version),
            )
            for host, slug in watched
        ]
