"""SingleFile-equivalent resource inliner.

The paper compresses each test webpage — initial HTML document plus all of
its images, scripts and stylesheets — into one self-contained HTML file
("borrowing the power of SingleFile") so the browser extension can download a
version as a single unit and replay it without touching the network.

:class:`Inliner` performs the same transformation over our DOM:

* ``<link rel="stylesheet" href>`` becomes an inline ``<style>`` block, with
  ``url(...)`` references inside the CSS converted to ``data:`` URIs;
* ``<script src>`` becomes an inline script;
* ``<img src>`` (and ``<source src>``, favicons) become ``data:`` URIs;
* ``url(...)`` in inline ``style`` attributes become ``data:`` URIs.

Fetching goes through an injected fetcher (anything with
``fetch(url) -> object with .body_bytes and .content_type``), so the inliner
works identically against the simulated network or a pre-seeded resource map.
Failures are recorded, not raised: a missing image must not abort snapshot
generation, exactly as SingleFile degrades gracefully.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass, field
from typing import List

from repro.html.dom import Document, Element, Text
from repro.html.urlutil import is_absolute, is_data_url, resolve_url

_CSS_URL_RE = re.compile(r"""url\(\s*(?P<quote>["']?)(?P<ref>[^)"']+)(?P=quote)\s*\)""")


@dataclass
class InlineReport:
    """What one inlining pass did."""

    page_url: str = ""
    inlined_stylesheets: int = 0
    inlined_scripts: int = 0
    inlined_images: int = 0
    inlined_css_urls: int = 0
    failures: List[str] = field(default_factory=list)
    bytes_inlined: int = 0


def to_data_url(content_type: str, body: bytes) -> str:
    """Encode bytes as a base64 ``data:`` URL."""
    encoded = base64.b64encode(body).decode("ascii")
    return f"data:{content_type};base64,{encoded}"


def decode_data_url(url: str) -> bytes:
    """Decode the payload of a base64 ``data:`` URL."""
    if not is_data_url(url):
        raise ValueError(f"not a data URL: {url[:40]!r}")
    header, _, payload = url.partition(",")
    if ";base64" in header:
        return base64.b64decode(payload)
    return payload.encode("utf-8")


class Inliner:
    """Inlines all external resources of a document into the document."""

    def __init__(self, fetcher):
        self._fetcher = fetcher

    def _fetch(self, url: str, report: InlineReport):
        try:
            return self._fetcher.fetch(url)
        except Exception as exc:  # record, don't abort — SingleFile semantics
            report.failures.append(f"{url}: {exc}")
            return None

    def inline(self, document: Document, page_url: str) -> InlineReport:
        """Inline every external resource of ``document`` in place.

        ``page_url`` is the absolute URL the document was fetched from; all
        relative references resolve against it.
        """
        report = InlineReport(page_url=page_url)
        for element in list(document.iter_elements()):
            if element.tag == "link" and self._is_stylesheet_link(element):
                self._inline_stylesheet(element, page_url, report)
            elif element.tag == "script" and element.get("src"):
                self._inline_script(element, page_url, report)
            elif element.tag in ("img", "source") and element.get("src"):
                self._inline_image_attr(element, "src", page_url, report)
            elif element.tag == "link" and self._is_icon_link(element):
                self._inline_image_attr(element, "href", page_url, report)
            if element.get("style") and "url(" in element.get("style", ""):
                self._inline_style_attribute(element, page_url, report)
        # Rewrite url(...) references inside existing <style> blocks too.
        for style_element in document.root.get_elements_by_tag("style"):
            self._rewrite_style_block(style_element, page_url, report)
        return report

    # -- individual resource kinds ---------------------------------------

    @staticmethod
    def _is_stylesheet_link(element: Element) -> bool:
        rel = (element.get("rel") or "").lower()
        return "stylesheet" in rel.split() and bool(element.get("href"))

    @staticmethod
    def _is_icon_link(element: Element) -> bool:
        rel = (element.get("rel") or "").lower()
        return "icon" in rel.split() and bool(element.get("href"))

    def _inline_stylesheet(self, link: Element, page_url: str, report: InlineReport) -> None:
        href = link.get("href", "")
        if is_data_url(href):
            return
        url = resolve_url(page_url, href)
        resource = self._fetch(url, report)
        if resource is None:
            return
        css_text = resource.body_bytes.decode("utf-8", errors="replace")
        css_text = self._inline_css_urls(css_text, url, report)
        style = Element("style", {"data-inlined-from": url})
        style.append(Text(css_text))
        parent = link.parent
        if parent is not None:
            parent.replace_child(link, style)
        report.inlined_stylesheets += 1
        report.bytes_inlined += len(resource.body_bytes)

    def _inline_script(self, script: Element, page_url: str, report: InlineReport) -> None:
        src = script.get("src", "")
        if is_data_url(src):
            return
        url = resolve_url(page_url, src)
        resource = self._fetch(url, report)
        if resource is None:
            return
        script.remove_attribute("src")
        script.set("data-inlined-from", url)
        script.clear()
        script.append(Text(resource.body_bytes.decode("utf-8", errors="replace")))
        report.inlined_scripts += 1
        report.bytes_inlined += len(resource.body_bytes)

    def _inline_image_attr(
        self, element: Element, attr: str, page_url: str, report: InlineReport
    ) -> None:
        reference = element.get(attr, "")
        if is_data_url(reference) or not reference:
            return
        url = resolve_url(page_url, reference)
        resource = self._fetch(url, report)
        if resource is None:
            return
        element.set(attr, to_data_url(resource.content_type, resource.body_bytes))
        element.set("data-inlined-from", url)
        report.inlined_images += 1
        report.bytes_inlined += len(resource.body_bytes)

    def _inline_style_attribute(
        self, element: Element, page_url: str, report: InlineReport
    ) -> None:
        style = element.get("style", "")
        element.set("style", self._inline_css_urls(style, page_url, report))

    def _rewrite_style_block(
        self, style_element: Element, page_url: str, report: InlineReport
    ) -> None:
        base_url = style_element.get("data-inlined-from") or page_url
        original = "".join(
            child.data for child in style_element.children if isinstance(child, Text)
        )
        if "url(" not in original:
            return
        rewritten = self._inline_css_urls(original, base_url, report)
        if rewritten != original:
            style_element.clear()
            style_element.append(Text(rewritten))

    def _inline_css_urls(self, css_text: str, base_url: str, report: InlineReport) -> str:
        def replace(match: re.Match) -> str:
            reference = match.group("ref").strip()
            if is_data_url(reference):
                return match.group(0)
            url = resolve_url(base_url, reference) if not is_absolute(reference) else reference
            resource = self._fetch(url, report)
            if resource is None:
                return match.group(0)
            report.inlined_css_urls += 1
            report.bytes_inlined += len(resource.body_bytes)
            return f'url("{to_data_url(resource.content_type, resource.body_bytes)}")'

        return _CSS_URL_RE.sub(replace, css_text)


def is_self_contained(document: Document) -> bool:
    """True when the document references no external resources.

    This is the property the aggregator checks before accepting a compressed
    test webpage: every src/href it will need at replay time is local.
    """
    for element in document.iter_elements():
        if element.tag == "link":
            rel = (element.get("rel") or "").lower()
            if "stylesheet" in rel.split() or "icon" in rel.split():
                href = element.get("href", "")
                if href and not is_data_url(href):
                    return False
        elif element.tag == "script":
            if element.get("src"):
                return False
        elif element.tag in ("img", "source"):
            src = element.get("src", "")
            if src and not is_data_url(src):
                return False
        style = element.get("style", "")
        if "url(" in style:
            for match in _CSS_URL_RE.finditer(style):
                if not is_data_url(match.group("ref").strip()):
                    return False
    return True
