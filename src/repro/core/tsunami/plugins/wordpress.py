"""WordPress installation-hijack detection (Table 10).

1. Visit ``/wp-admin/install.php?step=1``.
2. Check that the body contains 'WordPress' and is valid HTML.
3. Parse the HTML and verify that ``form#setup`` and
   ``form#setup input#pass1`` exist — the page where the first visitor
   chooses the admin password.
"""

from __future__ import annotations

from repro.core.tsunami.htmlcheck import outline
from repro.core.tsunami.plugin import DetectionReport, MavDetectionPlugin, PluginContext


class WordPressPlugin(MavDetectionPlugin):
    slug = "wordpress"
    title = "WordPress installation can be hijacked"

    def detect(self, context: PluginContext) -> DetectionReport | None:
        response = context.fetch("/wp-admin/install.php?step=1")
        if response is None or response.status != 200:
            return None
        if "WordPress" not in response.body:
            return None
        page = outline(response.body)
        if not page.valid:
            return None
        if not page.has_element("form", "setup"):
            return None
        if not page.has_element_within("form", "setup", "input", "pass1"):
            return None
        return self.report(context, "installation wizard serves the admin-password form")
