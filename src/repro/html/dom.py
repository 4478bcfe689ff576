"""Document Object Model for the HTML substrate.

A deliberately small but real DOM: element/text/comment nodes with parent
links, ordered children, attribute maps, and the traversal / mutation methods
the aggregator and the layout engine need. Class and inline-style handling
get first-class helpers because Kaleidoscope's style variants are expressed
through them.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

RAW_TEXT_ELEMENTS = frozenset({"script", "style"})


class Node:
    """Base class for all DOM nodes."""

    def __init__(self):
        self.parent: Optional["Element"] = None

    @property
    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent upwards."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when parentless)."""
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self


class Text(Node):
    """A text node."""

    def __init__(self, data: str = ""):
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An HTML comment node."""

    def __init__(self, data: str = ""):
        super().__init__()
        self.data = data

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class Element(Node):
    """An element node with attributes and ordered children."""

    def __init__(self, tag: str, attributes: Optional[dict] = None):
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict = dict(attributes or {})
        self.children: List[Node] = []

    def __repr__(self) -> str:
        ident = f"#{self.get('id')}" if self.get("id") else ""
        return f"Element(<{self.tag}{ident}> children={len(self.children)})"

    # -- attributes ---------------------------------------------------------

    def get(self, name: str, default=None):
        """Attribute value by (case-insensitive) name."""
        return self.attributes.get(name.lower(), default)

    def set(self, name: str, value: str) -> None:
        """Set an attribute."""
        self.attributes[name.lower()] = value

    def remove_attribute(self, name: str) -> None:
        """Remove an attribute if present."""
        self.attributes.pop(name.lower(), None)

    @property
    def id(self) -> str:
        """The ``id`` attribute ('' when absent)."""
        return self.get("id", "")

    @property
    def classes(self) -> List[str]:
        """The class list, split on whitespace."""
        return self.get("class", "").split()

    def has_class(self, name: str) -> bool:
        """True when ``name`` is in the class list."""
        return name in self.classes

    # -- inline style ---------------------------------------------------------

    def style_declarations(self) -> dict:
        """Parse the inline ``style`` attribute into {property: value}."""
        style = self.get("style", "")
        declarations = {}
        for part in style.split(";"):
            if ":" not in part:
                continue
            prop, _, value = part.partition(":")
            prop = prop.strip().lower()
            value = value.strip()
            if prop:
                declarations[prop] = value
        return declarations

    def set_style(self, prop: str, value: str) -> None:
        """Set one inline-style property, preserving the others."""
        declarations = self.style_declarations()
        declarations[prop.lower()] = value
        self.set(
            "style", "; ".join(f"{p}: {v}" for p, v in declarations.items())
        )

    # -- tree mutation --------------------------------------------------------

    def append(self, node: Node) -> Node:
        """Append a child (detaching it from any previous parent)."""
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def insert(self, index: int, node: Node) -> Node:
        """Insert a child at ``index``."""
        node.detach()
        node.parent = self
        self.children.insert(index, node)
        return node

    def replace_child(self, old: Node, new: Node) -> Node:
        """Replace ``old`` with ``new`` in place."""
        index = self.children.index(old)
        old.parent = None
        new.detach()
        new.parent = self
        self.children[index] = new
        return new

    def clear(self) -> None:
        """Remove all children."""
        for child in self.children:
            child.parent = None
        self.children.clear()

    # -- traversal --------------------------------------------------------

    def iter_descendants(self) -> Iterator[Node]:
        """Depth-first pre-order iteration over all descendant nodes."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def iter_elements(self) -> Iterator["Element"]:
        """Depth-first iteration over descendant elements only."""
        for node in self.iter_descendants():
            if isinstance(node, Element):
                yield node

    @property
    def element_children(self) -> List["Element"]:
        """Direct children that are elements."""
        return [c for c in self.children if isinstance(c, Element)]

    def find_all(self, predicate: Callable[["Element"], bool]) -> List["Element"]:
        """All descendant elements satisfying ``predicate``."""
        return [e for e in self.iter_elements() if predicate(e)]

    def find_first(
        self, predicate: Callable[["Element"], bool]
    ) -> Optional["Element"]:
        """First descendant element satisfying ``predicate`` (document order)."""
        for element in self.iter_elements():
            if predicate(element):
                return element
        return None

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        """Descendant element with a given id."""
        return self.find_first(lambda e: e.id == element_id)

    def get_elements_by_tag(self, tag: str) -> List["Element"]:
        """Descendant elements with a given tag name."""
        tag = tag.lower()
        return self.find_all(lambda e: e.tag == tag)

    # -- text extraction ----------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenated descendant text (excluding script/style)."""
        parts = []
        for node in self.iter_descendants():
            if isinstance(node, Text):
                ancestor_tags = {a.tag for a in node.ancestors}
                if ancestor_tags & RAW_TEXT_ELEMENTS:
                    continue
                parts.append(node.data)
        return "".join(parts)

    def clone(self) -> "Element":
        """Deep-copy this element and its subtree (parent link not copied)."""
        copy = Element(self.tag, dict(self.attributes))
        for child in self.children:
            if isinstance(child, Element):
                copy.append(child.clone())
            elif isinstance(child, Text):
                copy.append(Text(child.data))
            elif isinstance(child, Comment):
                copy.append(Comment(child.data))
        return copy


class Document:
    """A parsed HTML document: the root element plus document-level info."""

    def __init__(self, root: Optional[Element] = None, doctype: str = "html"):
        self.root = root if root is not None else Element("html")
        self.doctype = doctype

    def __repr__(self) -> str:
        return f"Document(doctype={self.doctype!r})"

    @property
    def head(self) -> Optional[Element]:
        """The <head> element, if present."""
        for child in self.root.element_children:
            if child.tag == "head":
                return child
        return None

    @property
    def body(self) -> Optional[Element]:
        """The <body> element, if present."""
        for child in self.root.element_children:
            if child.tag == "body":
                return child
        return None

    def ensure_head(self) -> Element:
        """Return the <head>, creating one as the first child when missing."""
        head = self.head
        if head is None:
            head = Element("head")
            self.root.insert(0, head)
        return head

    def ensure_body(self) -> Element:
        """Return the <body>, creating one when missing."""
        body = self.body
        if body is None:
            body = Element("body")
            self.root.append(body)
        return body

    @property
    def title(self) -> str:
        """The document title ('' when missing)."""
        head = self.head
        if head is None:
            return ""
        for element in head.get_elements_by_tag("title"):
            return element.text_content.strip()
        return ""

    def iter_elements(self) -> Iterator[Element]:
        """All elements in document order, root included."""
        yield self.root
        yield from self.root.iter_elements()

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """Element with a given id, anywhere in the document."""
        return self.root.get_element_by_id(element_id)

    def clone(self) -> "Document":
        """Deep-copy the whole document."""
        return Document(self.root.clone(), self.doctype)
