"""Census-calibrated generation of the simulated Internet.

The paper measured the real IPv4 space; we generate a population whose
*observable statistics* match its published measurements (Tables 2-4),
then let the scanning pipeline re-measure them.  Because simulating tens
of millions of background web servers is pointless, the generator uses
**stratified sampling**: each stratum (background noise, middleboxes,
secure AWE deployments, vulnerable AWE deployments) is generated at its
own sampling rate, and every host carries a Horvitz-Thompson weight
``1/rate`` so the analysis layer can report unbiased Internet-scale
estimates.  Vulnerable hosts default to rate 1.0 — all 4,221 of them are
individually simulated, since the longevity and geography analyses need
them one by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.base import AppInstance, WebApplication
from repro.apps.catalog import AppSpec, app_by_slug
from repro.apps.versions import RELEASE_DB, SCAN_DATE, Release
from repro.net.geo import (
    BACKGROUND_HOST_PROFILE,
    VULNERABLE_HOST_PROFILE,
    GeoDatabase,
)
from repro.net.host import Host, HostKind, Service
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet, allocate_addresses
from repro.net.tls import issue_certificate
from repro.util.errors import ConfigError
from repro.util.rand import SeededStreams

__all__ = [
    "AppPrevalence",
    "PAPER_PREVALENCE",
    "PopulationModel",
    "Census",
    "generate_internet",
]


@dataclass(frozen=True)
class AppPrevalence:
    """One row of the paper's Table 3: exposure and vulnerability counts."""

    slug: str
    exposed_hosts: int
    mavs: int

    @property
    def secure_hosts(self) -> int:
        return self.exposed_hosts - self.mavs


#: Table 3 of the paper, verbatim.
PAPER_PREVALENCE: tuple[AppPrevalence, ...] = (
    AppPrevalence("jenkins", 2_440, 80),
    AppPrevalence("gocd", 587, 36),
    AppPrevalence("wordpress", 1_462_625, 345),
    AppPrevalence("grav", 2_617, 4),
    AppPrevalence("joomla", 50_274, 16),
    AppPrevalence("drupal", 65_414, 258),
    AppPrevalence("kubernetes", 706_235, 495),
    AppPrevalence("docker", 893, 657),
    AppPrevalence("consul", 9_447, 190),
    AppPrevalence("hadoop", 923, 556),
    AppPrevalence("nomad", 1_231, 729),
    AppPrevalence("jupyterlab", 1_369, 53),
    AppPrevalence("jupyter-notebook", 9_549, 313),
    AppPrevalence("zeppelin", 1_033, 82),
    AppPrevalence("polynote", 8, 8),
    AppPrevalence("ajenti", 1_292, 0),
    AppPrevalence("phpmyadmin", 184_968, 396),
    AppPrevalence("adminer", 6_621, 3),
)

#: Background open ports from Table 2: port -> (open, http, https), in
#: real-Internet counts.  AWE hosts are generated separately, so these act
#: as the non-AWE bulk (AWE counts are negligible against the millions).
PAPER_PORT_BACKGROUND: dict[int, tuple[int, int, int]] = {
    80: (56_800_000, 51_300_000, 0),
    443: (50_100_000, 0, 35_900_000),
    2375: (120_000, 11_000, 2_000),
    4646: (180_000, 24_000, 4_000),
    6443: (553_000, 304_000, 322_000),
    8000: (5_500_000, 1_600_000, 293_000),
    8080: (9_000_000, 7_600_000, 667_000),
    8088: (2_600_000, 857_000, 943_000),
    8153: (291_000, 171_000, 3_000),
    8192: (331_000, 175_000, 7_000),
    8500: (384_000, 62_000, 107_000),
    8888: (2_400_000, 1_800_000, 192_000),
}

#: "we found 3.0M hosts that appeared to always have all ports open"
PAPER_MIDDLEBOX_COUNT = 3_000_000

#: Out-of-scope products still exist on the Internet and exercise the
#: prefilter's rejection path (counts are plausible, not from the paper).
OUT_OF_SCOPE_EXPOSURE: dict[str, int] = {
    "gitlab": 80_000,
    "drone": 4_000,
    "travis": 500,
    "ghost": 120_000,
    "spark-notebook": 300,
    "vestacp": 30_000,
    "omnidb": 800,
}

#: Deployment freshness per category (how closely installs track releases),
#: tuned so RQ2's category medians land where the paper reports them:
#: CMS ~May 2021, CI/CM ~Jan 2021, NB ~Jan 2020, CP ~Sep 2019.
CATEGORY_FRESHNESS: dict[str, float] = {
    "CMS": 0.70,
    "CI": 0.25,
    "CM": 0.25,
    "NB": 0.04,
    "CP": 0.01,
}


@dataclass
class PopulationModel:
    """Knobs of the generator.  Defaults give a laptop-scale Internet."""

    seed: int = 20210603  # the scan date, for flavour
    #: sampling rate for secure AWE deployments
    awe_rate: float = 0.01
    #: sampling rate for vulnerable deployments (1.0 = all 4,221)
    vuln_rate: float = 1.0
    #: sampling rate for background servers and middleboxes
    background_rate: float = 2e-6
    include_background: bool = True
    include_middleboxes: bool = True
    include_out_of_scope: bool = True
    #: chance that an 80/443 application host serves both ports
    dual_port_chance: float = 0.05

    def __post_init__(self) -> None:
        for name in ("awe_rate", "vuln_rate", "background_rate"):
            rate = getattr(self, name)
            if not 0.0 < rate <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {rate}")


@dataclass
class Census:
    """Generation-side bookkeeping: strata weights and ground truth.

    ``weight_of`` feeds the Horvitz-Thompson estimators in the analysis
    layer; the per-app counters are the ground truth that the pipeline's
    measurements are validated against.
    """

    model: PopulationModel
    weights: dict[int, float] = field(default_factory=dict)
    generated_secure: dict[str, int] = field(default_factory=dict)
    generated_vulnerable: dict[str, int] = field(default_factory=dict)

    def weight_of(self, ip: IPv4Address) -> float:
        return self.weights.get(ip.value, 0.0)

    def note_host(self, ip: IPv4Address, rate: float) -> None:
        self.weights[ip.value] = 1.0 / rate


def _sample_count(rng: random.Random, expected: float) -> int:
    """Integer draw with mean ``expected`` (probabilistic rounding)."""
    base = int(expected)
    return base + (1 if rng.random() < expected - base else 0)


def _generic_page(flavour: str) -> str:
    pages = {
        "nginx": "<html><head><title>Welcome to nginx!</title></head>"
                 "<body><h1>Welcome to nginx!</h1></body></html>",
        "apache": "<html><head><title>Apache2 Default Page</title></head>"
                  "<body>It works!</body></html>",
        "iis": "<html><head><title>IIS Windows Server</title></head>"
               "<body><img src=iisstart.png></body></html>",
        "router": "<html><head><title>Router Login</title></head>"
                  "<body><form>admin login</form></body></html>",
        "api": '{"status":"ok","service":"internal-api","endpoints":[]}',
    }
    return pages[flavour]


_GENERIC_FLAVOURS = ("nginx", "apache", "iis", "router", "api")


class _BackgroundResponder:
    """One static background page as a picklable callable.

    A closure would serve the page just as well, but generated internets
    now cross the process-pool boundary whole (the parallel engine ships
    its transport — internet included — to worker processes), and local
    functions cannot be pickled.
    """

    __slots__ = ("flavour", "body")

    def __init__(self, flavour: str) -> None:
        self.flavour = flavour
        self.body = _generic_page(flavour)

    def __call__(self, request) -> HttpResponse:
        if self.flavour == "api":
            return HttpResponse.json(self.body)
        return HttpResponse.html(self.body)


def _make_background_responder(flavour: str) -> _BackgroundResponder:
    return _BackgroundResponder(flavour)


class _Generator:
    """Single-use generator driven by :func:`generate_internet`."""

    def __init__(self, model: PopulationModel) -> None:
        self.model = model
        self.streams = SeededStreams(model.seed)
        self.internet = SimulatedInternet()
        self.geo = GeoDatabase()
        self.census = Census(model)
        self._taken: set[int] = set()

    # -- version sampling ------------------------------------------------

    def _freshness(self, spec: AppSpec) -> float:
        return CATEGORY_FRESHNESS[spec.category.short]

    def _sample_secure_release(self, rng: random.Random, spec: AppSpec) -> Release:
        return RELEASE_DB.sample(rng, spec.slug, self._freshness(spec))

    def _sample_vulnerable_release(self, rng: random.Random, spec: AppSpec) -> Release:
        """Version of a vulnerable deployment.

        Figure 1's key observations: vulnerable hosts skew older; for
        changed-default software (Jupyter Notebook) ~80% of MAVs run
        pre-change releases; for never-changed software (Hadoop) MAVs
        spread roughly evenly over all releases.
        """
        releases = [r for r in RELEASE_DB.releases(spec.slug) if r.date <= SCAN_DATE]
        if spec.posture.value == "changed" and spec.secured_since is not None:
            cutoff = RELEASE_DB.release_date(spec.slug, spec.secured_since)
            old = [r for r in releases if r.date < cutoff]
            new = [r for r in releases if r.date >= cutoff]
            if old and rng.random() < 0.8:
                return rng.choice(old)
            if new:
                return rng.choice(new)
            return rng.choice(releases)
        if spec.posture.value == "insecure":
            if spec.vuln_kind.value == "Install":
                # Pre-installation state: people install *current* releases.
                return RELEASE_DB.sample(rng, spec.slug, self._freshness(spec))
            return rng.choice(releases)  # evenly spread, like Hadoop
        # Secure-by-default software made vulnerable by explicit
        # misconfiguration: mild age bias versus the secure population.
        return RELEASE_DB.sample(rng, spec.slug, self._freshness(spec) * 0.5)

    # -- instance builders ----------------------------------------------------

    def _build_instance(
        self, rng: random.Random, spec: AppSpec, vulnerable: bool
    ) -> WebApplication:
        if vulnerable:
            overrides = dict(spec.insecure_overrides or {})
            for _ in range(64):
                release = self._sample_vulnerable_release(rng, spec)
                instance = spec.emulator(release.version, dict(overrides))
                if instance.is_vulnerable():
                    return instance
            raise ConfigError(f"could not build a vulnerable {spec.slug}")
        release = self._sample_secure_release(rng, spec)
        instance = spec.emulator(release.version, {})
        if instance.is_vulnerable():
            # Old default was insecure; this owner secured it explicitly.
            instance.secure()
        return instance

    def _attach_app(self, rng: random.Random, host: Host, app: WebApplication) -> None:
        ports = app.default_ports
        if ports == (80, 443):
            use_https = rng.random() < 0.35
            primary = 443 if use_https else 80
            scheme = Scheme.HTTPS if use_https else Scheme.HTTP
            instance = AppInstance(app, primary, tls=use_https)
            certificate = issue_certificate(rng) if use_https else None
            host.add_service(
                Service(primary, frozenset({scheme}), app=instance,
                        certificate=certificate)
            )
            if rng.random() < self.model.dual_port_chance:
                other = 80 if use_https else 443
                other_scheme = Scheme.HTTP if use_https else Scheme.HTTPS
                host.add_service(
                    Service(other, frozenset({other_scheme}),
                            app=AppInstance(app, other, tls=not use_https),
                            certificate=None if use_https else issue_certificate(rng))
                )
        else:
            port = ports[0]
            # A minority of API/UI ports are TLS-wrapped (Table 2 shows
            # HTTPS on every scanned port).  API-port certificates are
            # far more often self-signed than web-site ones.
            use_https = rng.random() < 0.15
            scheme = Scheme.HTTPS if use_https else Scheme.HTTP
            certificate = (
                issue_certificate(rng, self_signed_chance=0.7) if use_https else None
            )
            host.add_service(
                Service(port, frozenset({scheme}),
                        app=AppInstance(app, port, tls=use_https),
                        certificate=certificate)
            )

    # -- strata -----------------------------------------------------------------

    def generate_awe_hosts(self) -> None:
        rng = self.streams.stream("awe-hosts")
        for prevalence in PAPER_PREVALENCE:
            spec = app_by_slug(prevalence.slug)
            n_vuln = _sample_count(rng, prevalence.mavs * self.model.vuln_rate)
            n_secure = _sample_count(rng, prevalence.secure_hosts * self.model.awe_rate)
            self.census.generated_vulnerable[spec.slug] = n_vuln
            self.census.generated_secure[spec.slug] = n_secure
            for index in range(n_vuln + n_secure):
                vulnerable = index < n_vuln
                app = self._build_instance(rng, spec, vulnerable)
                ip = allocate_addresses(rng, 1, self._taken)[0]
                host = Host(ip, HostKind.AWE)
                self._attach_app(rng, host, app)
                self.internet.add_host(host)
                rate = self.model.vuln_rate if vulnerable else self.model.awe_rate
                self.census.note_host(ip, rate)
                profile = VULNERABLE_HOST_PROFILE if vulnerable else BACKGROUND_HOST_PROFILE
                self.geo.assign(ip, rng, profile)

    def generate_out_of_scope_hosts(self) -> None:
        if not self.model.include_out_of_scope:
            return
        rng = self.streams.stream("oos-hosts")
        for slug, exposure in OUT_OF_SCOPE_EXPOSURE.items():
            spec = app_by_slug(slug)
            count = _sample_count(rng, exposure * self.model.awe_rate)
            for _ in range(count):
                release = self._sample_secure_release(rng, spec)
                app = spec.emulator(release.version, {})
                ip = allocate_addresses(rng, 1, self._taken)[0]
                host = Host(ip, HostKind.AWE)
                self._attach_app(rng, host, app)
                self.internet.add_host(host)
                self.census.note_host(ip, self.model.awe_rate)
                self.geo.assign(ip, rng, BACKGROUND_HOST_PROFILE)

    def generate_background(self) -> None:
        if not self.model.include_background:
            return
        rng = self.streams.stream("background")
        for port, (open_count, http_count, https_count) in PAPER_PORT_BACKGROUND.items():
            count = _sample_count(rng, open_count * self.model.background_rate)
            p_http = http_count / open_count
            p_https = https_count / open_count
            for _ in range(count):
                ip = allocate_addresses(rng, 1, self._taken)[0]
                host = Host(ip, HostKind.BACKGROUND)
                draw = rng.random()
                if draw < p_http:
                    schemes = frozenset({Scheme.HTTP})
                    non_http = False
                elif draw < p_http + p_https:
                    schemes = frozenset({Scheme.HTTPS})
                    non_http = False
                else:
                    schemes = frozenset()
                    non_http = True  # open port, not HTTP(S): SSH, MQTT, ...
                flavour = rng.choice(_GENERIC_FLAVOURS)
                host.add_service(
                    Service(port, schemes, responder=_make_background_responder(flavour),
                            non_http=non_http)
                )
                self.internet.add_host(host)
                self.census.note_host(ip, self.model.background_rate)
                self.geo.assign(ip, rng, BACKGROUND_HOST_PROFILE)

    def generate_middleboxes(self) -> None:
        if not self.model.include_middleboxes:
            return
        rng = self.streams.stream("middleboxes")
        count = _sample_count(rng, PAPER_MIDDLEBOX_COUNT * self.model.background_rate)
        for _ in range(count):
            ip = allocate_addresses(rng, 1, self._taken)[0]
            self.internet.add_host(Host(ip, HostKind.MIDDLEBOX))
            self.census.note_host(ip, self.model.background_rate)
            self.geo.assign(ip, rng, BACKGROUND_HOST_PROFILE)


def generate_internet(
    model: PopulationModel | None = None,
) -> tuple[SimulatedInternet, GeoDatabase, Census]:
    """Generate a simulated Internet according to ``model``.

    Returns the network, the IP metadata service, and the census used by
    the analysis layer for Internet-scale estimates.
    """
    generator = _Generator(model or PopulationModel())
    generator.generate_awe_hosts()
    generator.generate_out_of_scope_hosts()
    generator.generate_background()
    generator.generate_middleboxes()
    return generator.internet, generator.geo, generator.census
