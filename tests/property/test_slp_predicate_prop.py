"""SLP predicates compiled once match exactly as the tree-walking evaluator did.

``evaluate_predicate`` parses each distinct predicate text once into a flat
conjunction of terms and matches attributes against that. This module keeps
a copy of the evaluator that parsed the text on every call and walked the
expression tree, and checks the two against each other over random
predicates: well formed ones (terms, trailing-``*`` wildcards, nested
``&``, whitespace) and malformed ones (cut short, with unbalanced
parentheses, stray characters or empty text), each against several
attribute sets, so a compiled form is reused.
"""

from hypothesis import given, settings, strategies as st

from repro.slp import evaluate_predicate

# -- the reference: parse on every call, walk the tree ---------------------------------


def reference_evaluate(predicate: str, attributes: dict[str, str]) -> bool:
    predicate = predicate.strip()
    if not predicate:
        return True
    expr, remaining = _reference_parse(predicate)
    if expr is None or remaining.strip():
        return False
    return _reference_walk(expr, attributes)


def _reference_parse(text: str):
    text = text.lstrip()
    if not text.startswith("("):
        return None, text
    if text.startswith("(&"):
        inner = text[2:]
        children = []
        while inner.lstrip().startswith("("):
            child, inner = _reference_parse(inner)
            if child is None:
                return None, inner
            children.append(child)
        inner = inner.lstrip()
        if not inner.startswith(")"):
            return None, inner
        return ("and", children), inner[1:]
    end = text.find(")")
    if end == -1:
        return None, text
    term = text[1:end]
    if "=" not in term:
        return None, text[end + 1 :]
    key, value = term.split("=", 1)
    return ("eq", key.strip(), value), text[end + 1 :]


def _reference_walk(expr, attributes: dict[str, str]) -> bool:
    kind = expr[0]
    if kind == "and":
        return all(_reference_walk(child, attributes) for child in expr[1])
    _, key, value = expr
    actual = attributes.get(key)
    if actual is None:
        return False
    if value.endswith("*"):
        return actual.startswith(value[:-1])
    return actual == value


# -- strategies ------------------------------------------------------------------------

KEYS = ("user", "transport", "host", "")
VALUES = ("sip:bob@voicehoc.ch", "sip:bob@x", "udp", "tcp", "", "a=b", "*")
spaces = st.sampled_from(("", " ", "  ", "\t", "\n"))
keys = st.sampled_from(KEYS) | st.text(alphabet="ab =&*", max_size=3)
values = st.sampled_from(VALUES) | st.text(alphabet="sipbo:@*=( ", max_size=6)


@st.composite
def terms(draw) -> str:
    value = draw(values)
    if draw(st.booleans()):
        value += "*"
    return f"({draw(spaces)}{draw(keys)}{draw(spaces)}={value})"


def conjunctions(children: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.builds(
        lambda parts, pad: "(&" + "".join(pad + part for part in parts) + pad + ")",
        st.lists(children, max_size=4),
        spaces,
    )


well_formed = st.builds(
    lambda pad, body, tail: pad + body + tail,
    spaces,
    st.recursive(terms(), conjunctions, max_leaves=8),
    spaces,
)


@st.composite
def malformed(draw) -> str:
    """A well-formed predicate cut short, or with one character added or removed."""
    text = draw(well_formed)
    cut = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(("truncate", "insert", "delete")))
    if how == "truncate":
        return text[:cut]
    if how == "insert":
        return text[:cut] + draw(st.sampled_from("()&=* x")) + text[cut:]
    return text[:cut] + text[cut + 1 :]


predicates = well_formed | malformed() | st.sampled_from(("", "   ", "(", ")", "(&", "()", "(&)"))
attribute_sets = st.lists(
    st.dictionaries(st.sampled_from(KEYS + ("ab",)), st.sampled_from(VALUES + ("sip:bob@voicehoc.ch;x",))),
    min_size=1,
    max_size=4,
)


class TestCompiledPredicates:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(predicates, attribute_sets)
    def test_compiled_matches_reference(self, predicate, attribute_list):
        for attributes in attribute_list:
            assert evaluate_predicate(predicate, attributes) == reference_evaluate(
                predicate, attributes
            )
