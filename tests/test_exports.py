import importlib
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import isomech

MODULES = sorted(f"isomech.{info.name}" for info in pkgutil.iter_modules(isomech.__path__))


def test_every_module_is_listed():
    assert {"isomech.isotonic", "isomech.experiments", "isomech.order"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


# a string token after one of these, alone on its line, is a docstring
_LINE_START = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)


def _prose_and_code(path: Path) -> tuple[str, set[str]]:
    """The docstrings and comments of ``path``, and the words of its code:
    its NAME tokens and the words inside its other string literals."""
    prose, words, last = [], set(), tokenize.NEWLINE
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            docstring = (tok.type == tokenize.STRING and last in _LINE_START
                         and tok.line.strip() == tok.string)
            if tok.type == tokenize.NAME:
                words.add(tok.string)
            elif tok.type == tokenize.COMMENT or docstring:
                prose.append(tok.string)
            elif tok.type in (tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", -1)):
                words.update(re.findall(r"[A-Za-z_]\w*", tok.string))
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                last = tok.type
    return "\n".join(prose), words


def test_docstrings_name_only_what_the_code_names():
    # ``name``, ``module.name`` and ``name(args)`` in prose must still name
    # something in src; a formula such as ``sum_i U(x_i)`` is not a name
    files = sorted(Path(isomech.__file__).parent.glob("*.py"))
    parsed = [_prose_and_code(path) for path in files]
    known = set().union(*(words for _, words in parsed)) | {path.stem for path in files}
    refs = [(path.name, ref) for path, (prose, _) in zip(files, parsed)
            for ref in re.findall(r"``([A-Za-z_][\w.]*)(?:``|\()", prose)]
    stale = [(name, ref) for name, ref in refs if not set(ref.strip(".").split(".")) <= known]
    assert len(refs) > 200 and not stale, stale
