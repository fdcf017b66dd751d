import hashlib
import json

import pytest

from mirabolic.corpus import complex_corpus, real_corpus


# sha256 of json.dumps([o.to_json() for o in corpus]): the corpora feed every
# corpus check and the golden verify cases, so their order is pinned
@pytest.mark.parametrize("corpus, count, digest", [
    (lambda: complex_corpus(6), 989,
     "6fffe6bc3998160a62b7931f6373a7af50e4bc8704cb558bb39a4a9253a53985"),
    (lambda: real_corpus(6, require_pair=False), 680,
     "122c2f7ba0e8433177fc8b28071e7cdfd26e7872689c396a46ea6ee49cbc56df"),
    (lambda: real_corpus(5), 189,
     "a6908b911478ff9019064559cc5a828a7696a09213f01038efcf8d3b81e3cb3b"),
], ids=["complex_6", "real_6_any", "real_5_pair"])
def test_corpus_order_is_pinned(corpus, count, digest):
    orbits = [o.to_json() for o in corpus()]
    assert len(orbits) == count
    assert hashlib.sha256(json.dumps(orbits).encode()).hexdigest() == digest
