"""Voluntary version disclosure extraction.

"We first try to extract the exact version number from the 13
applications where this information is usually voluntarily revealed,
e.g., Kubernetes has the /version API endpoint while Consul includes a
HTML comment."  One extractor per disclosing application; each issues at
most two GETs and parses the version out of a header, a JSON field, or a
page marker.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from repro.core.tsunami.plugin import PluginContext

_Extractor = Callable[[PluginContext], str | None]

_GOCD_RE = re.compile(r'data-version="([\d.]+)"')
_WORDPRESS_RE = re.compile(r'content="WordPress ([\d.]+)"')
_CONSUL_RE = re.compile(r"CONSUL_VERSION: ([\d.]+)")
_HADOOP_RE = re.compile(r"Hadoop version</td><td>([\d.]+)")
_PHPMYADMIN_RE = re.compile(r"phpMyAdmin ([\d.]+)")
_ADMINER_RE = re.compile(r'<span class="version">([\d.]+)</span>')


def _jenkins(context: PluginContext) -> str | None:
    response = context.fetch("/")
    if response is None:
        return None
    return response.headers.get("x-jenkins")


def _gocd(context: PluginContext) -> str | None:
    response = context.fetch("/go/home")
    if response is None:
        return None
    match = _GOCD_RE.search(response.body)
    return match.group(1) if match else None


def _wordpress(context: PluginContext) -> str | None:
    response = context.fetch("/")
    if response is None:
        return None
    match = _WORDPRESS_RE.search(response.body)
    return match.group(1) if match else None


def _kubernetes(context: PluginContext) -> str | None:
    payload = context.fetch_json("/version")
    if isinstance(payload, dict):
        git_version = payload.get("gitVersion", "")
        if isinstance(git_version, str) and git_version.startswith("v"):
            return git_version[1:]
    return None


def _docker(context: PluginContext) -> str | None:
    payload = context.fetch_json("/version")
    if isinstance(payload, dict) and isinstance(payload.get("Version"), str):
        return payload["Version"]
    return None


def _consul(context: PluginContext) -> str | None:
    payload = context.fetch_json("/v1/agent/self")
    if isinstance(payload, dict):
        version = payload.get("Config", {}).get("Version")
        if isinstance(version, str):
            return version
    # Fall back to the HTML comment in the UI.
    response = context.fetch("/ui/")
    if response is not None:
        match = _CONSUL_RE.search(response.body)
        if match:
            return match.group(1)
    return None


def _hadoop(context: PluginContext) -> str | None:
    payload = context.fetch_json("/ws/v1/cluster/info")
    if isinstance(payload, dict):
        version = payload.get("clusterInfo", {}).get("hadoopVersion")
        if isinstance(version, str):
            return version
    response = context.fetch("/cluster/cluster")
    if response is not None:
        match = _HADOOP_RE.search(response.body)
        if match:
            return match.group(1)
    return None


def _nomad(context: PluginContext) -> str | None:
    payload = context.fetch_json("/v1/agent/self")
    if isinstance(payload, dict):
        version = payload.get("config", {}).get("Version", {}).get("Version")
        if isinstance(version, str):
            return version
    return None


def _jupyter(context: PluginContext) -> str | None:
    payload = context.fetch_json("/api")
    if isinstance(payload, dict) and isinstance(payload.get("version"), str):
        return payload["version"]
    return None


def _zeppelin(context: PluginContext) -> str | None:
    payload = context.fetch_json("/api/version")
    if isinstance(payload, dict):
        version = payload.get("body", {}).get("version")
        if isinstance(version, str):
            return version
    return None


def _phpmyadmin(context: PluginContext) -> str | None:
    for path in ("/", "/phpmyadmin"):
        response = context.fetch(path)
        if response is None:
            continue
        match = _PHPMYADMIN_RE.search(response.body)
        if match:
            return match.group(1)
    return None


def _adminer(context: PluginContext) -> str | None:
    response = context.fetch("/")
    if response is None:
        return None
    match = _ADMINER_RE.search(response.body)
    return match.group(1) if match else None


#: the 13 voluntarily-disclosing applications
DISCLOSURE_EXTRACTORS: dict[str, _Extractor] = {
    "jenkins": _jenkins,
    "gocd": _gocd,
    "wordpress": _wordpress,
    "kubernetes": _kubernetes,
    "docker": _docker,
    "consul": _consul,
    "hadoop": _hadoop,
    "nomad": _nomad,
    "jupyterlab": _jupyter,
    "jupyter-notebook": _jupyter,
    "zeppelin": _zeppelin,
    "phpmyadmin": _phpmyadmin,
    "adminer": _adminer,
}


def extract_disclosed_version(context: PluginContext, slug: str) -> str | None:
    """Try the voluntary-disclosure channel for ``slug``; None if absent."""
    extractor = DISCLOSURE_EXTRACTORS.get(slug)
    if extractor is None:
        return None
    try:
        return extractor(context)
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError):
        return None
