"""Tests for HTML serialization."""

from repro.html.dom import Document, Element, Text
from repro.html.parser import parse_html
from repro.html.serializer import serialize


class TestSerialize:
    def test_simple_round_trip(self):
        markup = "<!DOCTYPE html><html><head></head><body><p>hello</p></body></html>"
        assert serialize(parse_html(markup)) == markup

    def test_attributes_double_quoted(self):
        document = parse_html('<a href="/x" title="hi">t</a>')
        assert '<a href="/x" title="hi">' in serialize(document)

    def test_boolean_attribute_bare(self):
        document = parse_html("<input disabled>")
        assert "<input disabled>" in serialize(document)

    def test_text_escaped(self):
        document = Document()
        p = Element("p")
        p.append(Text("a < b & c"))
        document.ensure_body().append(p)
        assert "<p>a &lt; b &amp; c</p>" in serialize(document)

    def test_attribute_value_escaped(self):
        document = Document()
        document.ensure_body().append(Element("a", {"title": 'x "y" & z'}))
        assert '<a title="x &quot;y&quot; &amp; z"></a>' in serialize(document)

    def test_script_not_escaped(self):
        document = parse_html("<script>if (a < b) alert('&amp;');</script><p>x</p>")
        assert "if (a < b) alert('&amp;');" in serialize(document)

    def test_void_elements_no_end_tag(self):
        document = parse_html("<div><br><img src='x.png'></div>")
        output = serialize(document)
        assert "</br>" not in output
        assert "</img>" not in output

    def test_comment_preserved(self):
        document = parse_html("<div><!-- note --></div>")
        assert "<!-- note -->" in serialize(document)

    def test_reparse_equivalence(self):
        markup = (
            '<!DOCTYPE html><html><head><style>p > a { x: url("q.png") }</style>'
            '</head><body><div id="a" class="b c"><p style="font-size: 14pt">'
            "text &amp; more</p><img src=\"i.png\" width=\"5\"></div></body></html>"
        )
        once = serialize(parse_html(markup))
        twice = serialize(parse_html(once))
        assert once == twice  # serialization is a fixed point
