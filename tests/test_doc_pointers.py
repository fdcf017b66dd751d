"""Every `module.name` pointer in the README and in the package's docstrings
and comments names an attribute that exists, so a fold or a rename cannot
leave a stale pointer behind."""
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mirabolic"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
# a module name not itself part of a dotted or longer name, then one attribute
POINTER = re.compile(r"(?<![\w.])(?:mirabolic\.)?(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))


def _prose():
    """(where, text) for the README and every string and comment token of
    the package's source."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type in (tokenize.STRING, tokenize.COMMENT):
                yield "%s:%d" % (path.name, tok.start[0]), tok.string


def _pointers():
    return [(where, module, name) for where, text in _prose()
            for module, name in POINTER.findall(text)
            if name != "py"]  # a file name such as classify.py


def test_the_package_prose_has_pointers():
    # the scan finds what it is meant to find, so an empty scan cannot pass
    assert ("README.md", "rep_theory", "sign_shape") in _pointers()
    assert len(_pointers()) >= 10


def test_every_pointer_names_an_existing_attribute():
    stale = [(where, "%s.%s" % (module, name)) for where, module, name in _pointers()
             if not hasattr(importlib.import_module("mirabolic." + module), name)]
    assert stale == []
