"""The README's Python blocks run as written and show what their comments state."""

import re
from itertools import islice, product as iproduct
from pathlib import Path

from ans import minimize, sequence, take
from conftest import GOLDEN_50

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # the second block reads the first one's names
        exec(block, ns)
    system, u = ns["system"], ns["u"]

    assert system.rep(4) == ("a", "b")
    assert system.val(("a", "b")) == 4
    assert system.count_words(7) == 8
    assert len(ns["states"]) == 12 and len(set(ns["machine"].output.values())) == 4
    assert "".join(u.prefix(50)) == GOLDEN_50
    assert f"# '{GOLDEN_50}'" in blocks[0]
    zero = ns["fiber"](u, "0")
    assert minimize(zero) == zero
    assert [zero.accepts(w) for w in islice(system.enumerate(), 500)] == [x == "0" for x in u.prefix(500)]
    assert len(ns["kernel"](u)) == 9
    assert ns["subsequences"](u, ns["kernel"](u), 4)[1] == list("1233")
    assert "# ['1', '2', '3', '3']" in blocks[0]

    assert take(ns["t"].generate(), 50) == u.prefix(50)
    phi, system2, machine2 = ns["phi"], ns["system2"], ns["machine2"]
    assert system2.alphabet.symbols == ("a", "b")
    for k in range(8):
        for w in iproduct("ab", repeat=k):
            assert system2.language.accepts(w) == (w.count("b") <= 2)
    iterates, w = [], (0,)
    for _ in range(6):
        iterates += w
        w = phi(w)
    assert take(sequence(system2, machine2), len(iterates)) == tuple(iterates)
