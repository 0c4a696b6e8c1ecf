"""The 18 MAV detection checks (paper Appendix A, Table 10), one row each.

:data:`ALL_PLUGINS` is the table and the registry the engine selects
from based on stage-II candidates.  Where a row goes beyond the
published steps, a comment says why.
"""

from __future__ import annotations

from repro.core.tsunami.plugin import Detection, Get, Json

_ADMINER = ("through PHP extension", "Logged as")
_PHPMYADMIN = ("Server connection collation", "phpMyAdmin documentation")

ALL_PLUGINS: tuple[Detection, ...] = (
    # An anonymous visitor can create a job: build steps run commands.
    Detection(
        "jenkins", "Jenkins allows unauthenticated job creation",
        ((Get("/view/all/newJob", all_of=("Jenkins",),
              elements=(("form", "createItem"),)),),),
        "form#createItem reachable without login",
    ),
    # Marker pairs of an open dashboard across GoCD releases.
    Detection(
        "gocd", "GoCD dashboard exposed without authentication",
        ((Get("/go/home", any_pair=(
            ("Create a pipeline - Go", "pipelines-page"),
            ("Add Pipeline", "admin_pipelines"),
            ("Dashboard - Go", "/go/admin/pipelines/"),
            ("Pipelines - Go", "/go/admin/pipelines"),
        )),),),
        "markers {pair[0]!r} + {pair[1]!r}",
    ),
    # The wizard page where the first visitor picks the admin password.
    Detection(
        "wordpress", "WordPress installation can be hijacked",
        ((Get("/wp-admin/install.php?step=1", all_of=("WordPress",),
              elements=(("form", "setup"), ("form", "setup", "input", "pass1"))),),),
        "installation wizard serves the admin-password form",
    ),
    Detection(
        "grav", "Grav admin account can be created by anyone",
        ((Get("/", all_of=("The Admin plugin has been installed", "Create User")),),
         (Get("/admin", all_of=("No user accounts found", "create one")),)),
        ("front page invites account creation", "/admin invites account creation"),
    ),
    Detection(
        "joomla", "Joomla web installer is publicly reachable",
        ((Get("/installation/index.php", any_of=(
            "Joomla! Web Installer", "Enter the name of your Joomla! site",
        )),),),
        "installer page served",
    ),
    Detection(
        "drupal", "Drupal installer is publicly reachable",
        ((Get("/core/install.php?langcode=en&profile=standard&continue=1",
              all_of=('<liclass="is-active">Setupdatabase',), squeeze=True),),),
        "database-setup step served",
    ),
    # The discovery document, then a non-empty anonymous pod list.
    Detection(
        "kubernetes", "Kubernetes API allows anonymous access",
        ((Get("/", all_of=("certificates.k8s.io", "healthz/ping")),
          Get("/api/v1/pods", all_of=('"phase":"Running"',), squeeze=True),
          Json("/api/v1/pods", key=("items",), shape=list, non_empty=True)),),
        "anonymous pod list returned {count} pods",
    ),
    Detection(
        "docker", "Docker Engine API exposed without authentication",
        ((Get("/", all_of=('{"message":"page not found"}',), any_status=True),
          Get("/version", all_of=("minapiversion", "kernelversion"), lower=True)),),
        "Engine /version answered unauthenticated",
    ),
    # Exposure alone is not the MAV (Table 3's low Consul rate): a script
    # check option must be on.  Key spellings vary across releases.
    Detection(
        "consul", "Consul agent executes unauthenticated script checks",
        ((Json("/v1/agent/self", key=("DebugConfig", "debugConfig"), shape=dict,
               any_true=("EnableScriptChecks", "EnableLocalScriptChecks",
                         "EnableRemoteScriptChecks", "enableScriptChecks",
                         "enableRemoteChecks")),),),
        "script checks enabled via {enabled}",
    ),
    # dr.who is the anonymous default user; anyone can allocate an app.
    Detection(
        "hadoop", "Hadoop YARN accepts unauthenticated applications",
        ((Get("/cluster/cluster", lower=True,
              all_of=("hadoop", "resourcemanager", "logged in as: dr.who")),
          Json("/ws/v1/cluster/apps/new-application", key=("application-id",))),),
        "new-application returned {value}",
    ),
    # The paper's two markers live on different endpoints (the JSON API
    # and the bundled UI), so each is verified where it lives.
    Detection(
        "nomad", "Nomad API reachable without ACL token",
        ((Json("/v1/jobs", shape=list),
          Get("/", all_of=("<title>Nomad</title>",), any_status=True)),),
        "job list readable ({count} jobs)",
    ),
    # With authentication on, the terminal API answers 403.  Beyond the
    # published steps, it must also parse as JSON: an HTML page that only
    # names the product must not count.
    Detection(
        "jupyterlab", "JupyterLab terminals exposed without authentication",
        ((Get("/api/terminals", all_of=("JupyterLab",)), Json("/api/terminals")),),
        "terminal API readable without a token",
    ),
    Detection(
        "jupyter-notebook", "Jupyter Notebook terminals exposed without authentication",
        ((Get("/api/terminals", all_of=("Jupyter Notebook",)), Json("/api/terminals")),),
        "terminal API readable without a token",
    ),
    # Beyond the published steps, the envelope must parse, so
    # marker-stuffed HTML cannot spoof it.
    Detection(
        "zeppelin", "Zeppelin notebook API open to anonymous users",
        ((Get("/api/notebook", all_of=('{"status":"OK",',)),
          Json("/api/notebook", shape=dict, equals=("status", "OK"))),),
        "notebook list readable anonymously",
    ),
    # Polynote has no authentication: reachable means vulnerable.
    Detection(
        "polynote", "Polynote exposed (no authentication support)",
        ((Get("/", all_of=("<title>Polynote</title>",)),),),
        "Polynote UI reachable",
    ),
    # The dashboard shell is served before login only under --autologin.
    Detection(
        "ajenti", "Ajenti panel auto-logs-in anonymous visitors",
        ((Get("/view/", all_of=("customization.plugins.core.title || 'Ajenti'",
                                "ajentiPlatformUnmapped")),),),
        "dashboard served without login",
    ),
    # The post-login server page, served to an anonymous GET: no login
    # form is ever submitted.
    Detection(
        "phpmyadmin", "phpMyAdmin grants SQL access without a password",
        ((Get("/", all_of=_PHPMYADMIN),), (Get("/phpmyadmin", all_of=_PHPMYADMIN),)),
        "server page served at {path}",
    ),
    # A GET naming only the user lands in a session when root's password
    # is empty (before 4.6.3).
    Detection(
        "adminer", "Adminer logs in with an empty password",
        ((Get("/adminer.php?username=root", all_of=_ADMINER),),
         (Get("/adminer/adminer.php?username=root", all_of=_ADMINER),)),
        "anonymous root session at {path}",
    ),
)

_BY_SLUG = {row.slug: row for row in ALL_PLUGINS}


def plugin_for(slug: str) -> Detection | None:
    """The detection row for an application, if one exists."""
    return _BY_SLUG.get(slug)
