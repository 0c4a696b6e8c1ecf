"""Stage II: HTTP(S) probing and signature prefiltering.

For every open port found by stage I, this stage

1. determines which protocols the port speaks — HTTP only on port 80,
   HTTPS only on 443, both attempted elsewhere (the paper's rule);
2. follows redirects until a response body arrives;
3. matches the body against the signature corpus below; hosts matching no
   signature are discarded, the rest move on to stage III with their
   candidate application list.

The corpus holds 90 hand-written signatures, five per in-scope
application, mirroring the paper's "90 such signatures, an average of 5
per application".  Signatures are deliberately loose — their job is cheap
*candidate selection*, not vulnerability detection; several may fire on
one body (both Jupyter products share markup, for instance) and stage III
disambiguates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Sequence

from repro.core.masscan import PortScanResult
from repro.core.retry import RetryExecutor
from repro.net.http import HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry
from repro.util.errors import TransportError

#: signature corpus: slug -> five regular expressions.
SIGNATURES: dict[str, tuple[str, ...]] = {
    "jenkins": (
        r"Dashboard \[Jenkins\]",
        r"hudson-behavior\.js",
        r"Sign in \[Jenkins\]",
        r"j_spring_security_check",
        r"Welcome to Jenkins",
    ),
    "gocd": (
        r"Create a pipeline - Go",
        r"/go/assets/",
        r"pipelines-page",
        r"Login - Go</title>",
        r"/go/admin/pipelines",
    ),
    "wordpress": (
        r"wp-json",
        r"wp-includes/",
        r"wp-admin/install\.php",
        r'content="WordPress',
        r"WordPress &rsaquo;",
    ),
    "grav": (
        r"The Admin plugin has been installed",
        r"/user/plugins/admin/",
        r"grav-site",
        r"No user accounts found",
        r"<title>Grav",
    ),
    "joomla": (
        r"Joomla! Web Installer",
        r'content="Joomla!',
        r"/media/jui/js/",
        r"/media/system/js/core\.js",
        r"joomla-site",
    ),
    "drupal": (
        r'content="Drupal',
        r"/core/misc/drupal\.js",
        r"data-drupal-selector",
        r"\| Drupal</title>",
        r"Set up\s*database",
    ),
    "kubernetes": (
        r"certificates\.k8s\.io",
        r"healthz/ping",
        r'"kind":\s*"Status"',
        r'"apiVersion":\s*"v1"',
        r'"gitVersion":\s*"v1\.',
    ),
    "docker": (
        r'\{"message":"page not found"\}',
        r'"MinAPIVersion"',
        r'"KernelVersion"',
        r"client certificate required",
        r'"ApiVersion"',
    ),
    "consul": (
        r"Consul by HashiCorp",
        r"CONSUL_VERSION",
        r"consul-ui",
        r'"Datacenter"',
        r"EnableLocalScriptChecks|EnableRemoteScriptChecks",
    ),
    "hadoop": (
        r"/static/yarn\.css",
        r"Apache Hadoop",
        r"ResourceManager",
        r"[Ll]ogged in as: dr\.who",
        r"hadoop-st\.png",
    ),
    "nomad": (
        r"<title>Nomad</title>",
        r"Nomad by HashiCorp",
        r"nomad-ui\.js",
        r'"JobSummary"',
        r"#nomad-ui|id=\"nomad-ui\"",
    ),
    "jupyterlab": (
        r"<title>JupyterLab</title>",
        r'data-product="JupyterLab"',
        r"JupyterLab Login",
        r'"product": "JupyterLab"',
        r"jupyter-main-app.*JupyterLab",
    ),
    "jupyter-notebook": (
        r"<title>Jupyter Notebook</title>",
        r'data-product="Jupyter Notebook"',
        r"Jupyter Notebook Login",
        r'"product": "Jupyter Notebook"',
        r"jupyter-main-app.*Jupyter Notebook",
    ),
    "zeppelin": (
        r"<title>Zeppelin</title>",
        r"zeppelinWebApp",
        r"zeppelin-home",
        r"Welcome to Zeppelin!",
        r'\{"status":"OK",',
    ),
    "polynote": (
        r"<title>Polynote</title>",
        r'class="polynote"',
        r"/static/dist/main\.js",
        r'id="Main"',
        r"polynote\.css",
    ),
    "ajenti": (
        r"<title>Ajenti</title>",
        r"<title>Login - Ajenti</title>",
        r'ng-app="ajenti\.core"',
        r"ajentiPlatformUnmapped",
        r"Ajenti server admin panel",
    ),
    "phpmyadmin": (
        r"phpMyAdmin",
        r"pma_username",
        r"pmahomme",
        r"Server connection collation",
        r"phpMyAdmin documentation",
    ),
    "adminer": (
        r"<title>Login - Adminer</title>",
        r"Adminer <span",
        r"adminer\.css",
        r"Logged as:",
        r"through PHP extension",
    ),
}


def signature_count() -> int:
    """Total signatures in the corpus (the paper reports 90)."""
    return sum(len(patterns) for patterns in SIGNATURES.values())


# -- prescan matching -----------------------------------------------------------
#
# Testing every body against up to 90 regexes one at a time made stage II
# the prefilter's hot path.  The matcher guards the corpus with a cheap
# guaranteed-literal prescan instead:
#
# 1. *prescan* — for every signature, a literal substring that appears in
#    every possible match is extracted from the parsed pattern (for
#    top-level alternations, one literal per branch).  ``literal in
#    body`` is a C-level substring search, so a body that cannot match
#    anything is rejected without running a single regex;
# 2. *exact literals* — most signatures are nothing but an escaped
#    literal, so a prescan hit already *is* the match;
# 3. *confirmation* — the few signatures the prescan cannot decide (8 of
#    the 90 shipped ones) are verified by their own compiled regex.
#
# The result is bit-identical to the one-regex-at-a-time reference
# (``match_signatures_naive`` in ``tests/core/reference_matcher.py``),
# which the regression tests pin over the full canned-page corpus.

_parser = re._parser  # the stdlib sre parser (``sre_parse``'s new home)

#: literal runs shorter than this are useless as prescan anchors
_MIN_LITERAL = 3


def _literal_runs(ops) -> tuple[list[str], bool]:
    """Maximal literal runs of a parsed op sequence, plus purity.

    The second element is True when the sequence is literals only, i.e.
    the (sub)pattern matches exactly one string.
    """
    runs: list[str] = []
    current: list[str] = []
    pure = True
    for op, arg in ops:
        if op is _parser.LITERAL:
            current.append(chr(arg))
        else:
            pure = False
            if current:
                runs.append("".join(current))
                current = []
    if current:
        runs.append("".join(current))
    return runs, pure


def _guaranteed_literals(pattern: str) -> tuple[tuple[str, ...], bool]:
    """``(prescan alternatives, exact)`` for one signature pattern.

    A body can only match the pattern if at least one alternative occurs
    in it as a substring.  ``exact`` means the reverse implication holds
    too (the pattern is an alternation of plain literals), so a prescan
    hit needs no regex confirmation.  ``((), False)`` means no literal
    guarantee could be extracted and the signature must always be
    verified by regex.
    """
    try:
        ops = list(_parser.parse(pattern))
    except re.error:  # pragma: no cover - corpus patterns always compile
        return (), False
    if len(ops) == 1 and ops[0][0] is _parser.BRANCH:
        alternatives: list[str] = []
        exact = True
        for branch in ops[0][1][1]:
            runs, pure = _literal_runs(list(branch))
            longest = max(runs, key=len, default="")
            if len(longest) < _MIN_LITERAL:
                return (), False  # one unguarded branch voids the guarantee
            alternatives.append(longest)
            exact = exact and pure
        return tuple(alternatives), exact
    runs, pure = _literal_runs(ops)
    longest = max(runs, key=len, default="")
    if len(longest) < _MIN_LITERAL:
        return (), False
    return (longest,), pure


@dataclass(frozen=True)
class _Signature:
    """One corpus pattern, prepared for prescan matching."""

    slug: str
    compiled: re.Pattern[str]
    prescan: tuple[str, ...]    # literal alternatives; () = always verify
    exact: bool                 # prescan hit == match, no regex needed


class SignatureMatcher:
    """Prescan-guarded candidate selection over a signature corpus.

    Decides most signatures with one substring search each and runs a
    regex only for the prescan hits that are not exact literals.
    """

    def __init__(self, signatures: dict[str, tuple[str, ...]]) -> None:
        self.signatures = signatures
        entries = tuple(
            _Signature(slug, re.compile(pattern), *_guaranteed_literals(pattern))
            for slug, patterns in signatures.items()
            for pattern in patterns
        )
        self._unguarded = tuple(e for e in entries if not e.prescan)
        # literal -> what a hit proves: slugs matched outright, and
        # entries that still need their own regex to confirm.
        self._literals = tuple(dict.fromkeys(
            literal for entry in entries for literal in entry.prescan
        ))
        exact_by_literal: dict[str, list[str]] = {}
        confirm_by_literal: dict[str, list[_Signature]] = {}
        for entry in entries:
            for literal in entry.prescan:
                if entry.exact:
                    exact_by_literal.setdefault(literal, []).append(entry.slug)
                else:
                    confirm_by_literal.setdefault(literal, []).append(entry)
        self._exact_by_literal = {
            literal: tuple(slugs) for literal, slugs in exact_by_literal.items()
        }
        self._confirm_by_literal = {
            literal: tuple(sigs) for literal, sigs in confirm_by_literal.items()
        }

    def match(self, body: str) -> tuple[str, ...]:
        """Candidate slugs, in corpus order — same contract as the naive
        reference implementation."""
        matched: set[str] = set()
        confirm: list[_Signature] = []
        exact_by_literal = self._exact_by_literal
        confirm_by_literal = self._confirm_by_literal
        for literal in self._literals:
            if literal in body:
                slugs = exact_by_literal.get(literal)
                if slugs is not None:
                    matched.update(slugs)
                entries = confirm_by_literal.get(literal)
                if entries is not None:
                    confirm.extend(entries)
        if self._unguarded:
            confirm.extend(self._unguarded)
        for entry in confirm:
            if entry.slug not in matched and entry.compiled.search(body):
                matched.add(entry.slug)
        if not matched:
            return ()
        return tuple(slug for slug in self.signatures if slug in matched)


_MATCHER = SignatureMatcher(SIGNATURES)

#: distinct bodies whose candidate list is kept.  Landing pages saturate
#: near 105 distinct bodies (74 at bench scale 1, 105 at scale 16), so 256
#: never evicts in a sweep and holds under 0.2 MB (DESIGN.md s8).
MATCH_CACHE_SIZE = 256


@lru_cache(maxsize=MATCH_CACHE_SIZE)
def match_signatures(body: str) -> tuple[str, ...]:
    """Candidate application slugs whose signatures fire on ``body``.

    A pure function of the body text, computed once per distinct body per
    process: emulated (and real) deployments of one application version
    serve the same landing page on every host.
    """
    return _MATCHER.match(body)


class PrefilterFinding:
    """An open port whose body matched at least one signature, with the
    landing page as stage II received it: stage III reads it from here."""

    __slots__ = ("ip", "port", "scheme", "candidates", "landing")

    def __init__(
        self, ip: IPv4Address, port: int, scheme: Scheme,
        candidates: tuple[str, ...], landing: HttpResponse,
    ) -> None:
        self.ip = ip
        self.port = port
        self.scheme = scheme
        self.candidates = candidates
        self.landing = landing

    @property
    def body(self) -> str:
        return self.landing.body


@dataclass
class PrefilterStats:
    """Stage-II accounting, reproduced in Table 2's response columns.  In
    a pipeline sweep the two tallies are the sweep report's own dicts."""

    http_responses: dict[int, int] = field(default_factory=dict)
    https_responses: dict[int, int] = field(default_factory=dict)
    #: when a list, each note also lands here as ``(port, scheme value)``:
    #: a re-scan's record of what a fresh host answered
    noted: list[tuple[int, str]] | None = None

    def note(self, port: int, scheme: Scheme) -> None:
        counts = self.http_responses if scheme is Scheme.HTTP else self.https_responses
        counts[port] = counts.get(port, 0) + 1
        if self.noted is not None:
            self.noted.append((port, scheme.value))


#: per scheme, the (fetches, failures, responses) series of a landing GET
_FETCH_SERIES = {
    scheme: (
        series_key("prefilter_fetches_total", scheme=scheme.value),
        series_key("prefilter_fetch_failures_total", scheme=scheme.value),
        series_key("prefilter_responses_total", scheme=scheme.value),
    )
    for scheme in Scheme
}
_MATCHED = series_key("prefilter_signature_matches_total")
_NO_MATCH = series_key("prefilter_no_match_total")


class Prefilter:
    """Stage-II prober.  With ``unfiltered`` set (the prefilter ablation)
    no signature is matched: every port that answers on a scheme is a
    finding with those candidates."""

    def __init__(
        self,
        transport: Transport,
        max_redirects: int = 5,
        retry: RetryExecutor | None = None,
        telemetry: Telemetry | None = None,
        unfiltered: tuple[str, ...] | None = None,
    ) -> None:
        self.transport = transport
        self.max_redirects = max_redirects
        self.retry = retry
        self.telemetry = telemetry
        self.unfiltered = unfiltered
        self.stats = PrefilterStats()

    def schemes_for_port(self, port: int) -> tuple[Scheme, ...]:
        if port == 80:
            return (Scheme.HTTP,)
        if port == 443:
            return (Scheme.HTTPS,)
        return (Scheme.HTTP, Scheme.HTTPS)

    def probe(self, ip: IPv4Address, port: int) -> list[PrefilterFinding]:
        """Probe one open port on every applicable scheme."""
        findings = []
        for scheme in self.schemes_for_port(port):
            try:
                response = self.fetch_landing(ip, port, scheme)
            except TransportError:
                continue
            self.stats.note(port, scheme)
            finding = self.evaluate(ip, port, scheme, response)
            if finding is not None:
                findings.append(finding)
        return findings

    def fetch_landing(self, ip: IPv4Address, port: int, scheme: Scheme) -> HttpResponse:
        """The stage-II landing-page GET, retried when a policy is set."""
        # Counter adds are pending ones: the registry folds them in when read.
        pending = (
            self.telemetry.metrics.pending if self.telemetry is not None else None
        )
        if pending is not None:
            fetches, failures, responses = _FETCH_SERIES[scheme]
            pending[fetches] = pending.get(fetches, 0) + 1
        try:
            if self.retry is None:
                response = self.transport.get(
                    ip, port, "/", scheme, follow_redirects=self.max_redirects
                )
            else:
                response = self.retry.call(ip, partial(
                    self.transport.get, ip, port, "/", scheme,
                    follow_redirects=self.max_redirects,
                ))
        except TransportError:
            if pending is not None:
                pending[failures] = pending.get(failures, 0) + 1
            raise
        if pending is not None:
            pending[responses] = pending.get(responses, 0) + 1
        return response

    def evaluate(
        self, ip: IPv4Address, port: int, scheme: Scheme, response: HttpResponse
    ) -> PrefilterFinding | None:
        if self.unfiltered is not None:
            return PrefilterFinding(ip, port, scheme, self.unfiltered, response)
        candidates = match_signatures(response.body)
        if self.telemetry is not None:
            pending = self.telemetry.metrics.pending
            if candidates:
                pending[_MATCHED] = pending.get(_MATCHED, 0) + 1
                events = self.telemetry.events
                if events.wants("debug"):
                    events.debug(
                        "prefilter", "signature-match", host=ip,
                        port=port, candidates=list(candidates),
                    )
            else:
                pending[_NO_MATCH] = pending.get(_NO_MATCH, 0) + 1
        if not candidates:
            return None
        return PrefilterFinding(ip, port, scheme, candidates, response)

    def probe_host(
        self, ip: IPv4Address, ports: Sequence[int]
    ) -> list[PrefilterFinding]:
        """Probe every open port of one host (the pipeline's per-host step)."""
        findings = []
        for port in ports:
            findings.extend(self.probe(ip, port))
        return findings

    def run(self, port_scan: PortScanResult) -> list[PrefilterFinding]:
        """Probe every (host, open port) pair from stage I."""
        findings = []
        for ip in port_scan.hosts_with_open_ports():
            findings.extend(self.probe_host(ip, port_scan.ports_of(ip)))
        return findings
