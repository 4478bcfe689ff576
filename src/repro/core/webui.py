"""The test-parameter builder web interface.

§III-B: "We also develop a tool (Web interface) to help users to generate
such format test parameters. Users can input parameter one by one according
to the hint." The paper omits details for space; this module supplies a
faithful stand-in:

* :func:`render_builder_form` — an HTML form (built on our own DOM) with one
  hinted input per Table-I key, plus repeatable question/webpage blocks.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.html.dom import Document, Element, Text
from repro.html.serializer import serialize

FIELD_HINTS = {
    "test_id": "The test identification (unique string)",
    "test_description": "The description of a test",
    "participant_num": "The number of participants involved in the test",
    "question_N_id": "Identifier of comparison question N",
    "question_N_text": "Text of comparison question N (answered Left/Right/Same)",
    "webpage_N_web_path": "The relative folder path of test webpage N",
    "webpage_N_web_page_load": (
        "The page load simulating value: milliseconds, or a JSON array of "
        '{"selector": time_ms} objects'
    ),
    "webpage_N_web_main_file": "The initial html file name (default index.html)",
    "webpage_N_web_description": "The description of test webpage N",
}


def _labelled_input(form: Element, name: str, hint: str, value: str = "") -> None:
    row = Element("div", {"class": "field"})
    label = Element("label", {"for": name})
    label.append(Text(name))
    hint_el = Element("small", {"class": "hint"})
    hint_el.append(Text(hint))
    input_el = Element("input", {"type": "text", "name": name, "id": name})
    if value:
        input_el.set("value", value)
    row.append(label)
    row.append(input_el)
    row.append(hint_el)
    form.append(row)


def render_builder_form(questions: int = 1, webpages: int = 2) -> str:
    """The builder page HTML with ``questions``/``webpages`` blocks."""
    if questions < 1 or webpages < 2:
        raise ValidationError("need at least 1 question and 2 webpages")
    document = Document()
    head = document.ensure_head()
    title = Element("title")
    title.append(Text("Kaleidoscope test builder"))
    head.append(title)
    style = Element("style")
    style.append(
        Text(
            ".field { margin: 8px 0 } label { display: inline-block; width: 260px }"
            " .hint { color: #666; display: block; margin-left: 260px }"
        )
    )
    head.append(style)
    body = document.ensure_body()
    heading = Element("h1")
    heading.append(Text("Create a Kaleidoscope test"))
    body.append(heading)
    form = Element(
        "form", {"method": "post", "action": "/builder", "id": "builder-form"}
    )
    for key in ("test_id", "test_description", "participant_num"):
        _labelled_input(form, key, FIELD_HINTS[key])
    for index in range(1, questions + 1):
        _labelled_input(
            form, f"question_{index}_id", FIELD_HINTS["question_N_id"], f"q{index}"
        )
        _labelled_input(form, f"question_{index}_text", FIELD_HINTS["question_N_text"])
    for index in range(1, webpages + 1):
        for suffix in ("web_path", "web_page_load", "web_main_file", "web_description"):
            _labelled_input(
                form,
                f"webpage_{index}_{suffix}",
                FIELD_HINTS[f"webpage_N_{suffix}"],
                "index.html" if suffix == "web_main_file" else "",
            )
    submit = Element("button", {"type": "submit"})
    submit.append(Text("Generate test parameters"))
    form.append(submit)
    body.append(form)
    return serialize(document)

