"""Jenkins MAV detection (Table 10).

1. Visit ``/view/all/newJob``.
2. Check that the body contains 'Jenkins' and is valid HTML.
3. Parse the HTML and verify that element ``form#createItem`` exists —
   i.e. an anonymous visitor can create a job, which means anonymous
   build-step (system command) execution.
"""

from __future__ import annotations

from repro.core.tsunami.htmlcheck import outline
from repro.core.tsunami.plugin import DetectionReport, MavDetectionPlugin, PluginContext


class JenkinsPlugin(MavDetectionPlugin):
    slug = "jenkins"
    title = "Jenkins allows unauthenticated job creation"

    def detect(self, context: PluginContext) -> DetectionReport | None:
        response = context.fetch("/view/all/newJob")
        if response is None or response.status != 200:
            return None
        if "Jenkins" not in response.body:
            return None
        page = outline(response.body)
        if not page.valid:
            return None
        if not page.has_element("form", "createItem"):
            return None
        return self.report(context, "form#createItem reachable without login")
