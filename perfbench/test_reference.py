"""Hand-worked checks of the benchmark's own evaluators.

    python3 -m pytest perfbench/test_reference.py
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as R  # noqa: E402

p, q, r = R.var("p"), R.var("q"), R.var("r")
PEIRCE = ("imp", ("imp", ("imp", p, q), p), p)


def chain(n: int) -> R.Poset:
    return R.Poset(n, [frozenset(range(i, n)) for i in range(n)])


FORK = R.Poset(3, [frozenset({0, 1, 2}), frozenset({1}), frozenset({2})])


def test_parse_follows_the_documented_precedence():
    assert R.parse("p -> q -> r") == ("imp", p, ("imp", q, r))
    assert R.parse("~p & q | r -> p") == ("imp", ("or", ("and", R.neg(p), q), r), p)
    assert R.parse("~~(p | ~p)") == R.neg(R.neg(("or", p, R.neg(p))))
    assert R.parse("bot -> p") == ("imp", R.BOT, p)


def test_render_reads_back():
    rng = random.Random(3)
    for _ in range(300):
        f = R.random_formula(rng, ("p", "q", "r"), 4)
        assert R.parse(R.render(f)) == f


def test_truth_tables():
    assert R.tautology(PEIRCE)
    assert R.tautology(R.parse("p | ~p"))
    assert R.tautology(R.parse("~~p -> p"))
    assert not R.tautology(R.parse("p -> q"))
    assert not R.tautology(R.BOT)
    assert R.classical_value(R.parse("p -> q"), {"p": True, "q": False}) is False


def test_peirce_has_a_two_world_countermodel():
    # 0 sees 1 and p holds at 1 only.  p -> q fails at 1, so at 0 and 1;
    # then (p -> q) -> p holds at both, while p fails at 0.
    model = R.parse_model("mode int\nworlds 2\nrel 0 1\nval p 1\n")
    assert not R.forces(model, 1, ("imp", p, q))
    assert R.forces(model, 0, ("imp", ("imp", p, q), p))
    assert not R.forces(model, 0, PEIRCE)
    assert R.forces(model, 1, PEIRCE)
    assert R.refutes(model, PEIRCE)


def test_model_files_are_closed_upward():
    model = R.parse_model("mode int\nworlds 3\nrel 0 1\nrel 1 2\nval p 1\n")
    assert model.up[0] == {0, 1, 2}
    assert model.val["p"] == {1, 2}
    assert not R.refutes(model, R.parse("p -> p"))
    assert R.refutes(model, R.parse("p | ~p"))       # fails at the root


def test_rooted_poset_counts():
    # rooted posets of n worlds are the posets of n - 1 worlds: 1, 1, 2, 5, 16
    sizes = [poset.n for poset in R.rooted_posets(5)]
    assert [sizes.count(n) for n in range(1, 6)] == [1, 1, 2, 5, 16]


def test_p_morphic_images():
    two, three = chain(2), chain(3)
    assert R.p_morphic_image(three, two)           # collapse the top two worlds
    assert not R.p_morphic_image(two, three)       # too few worlds
    assert R.p_morphic_image(FORK, two)            # both leaves to the top
    assert not R.p_morphic_image(three, FORK)      # a chain has no branching image
    assert R.p_morphic_image(FORK, R.Poset(1, [frozenset({0})]))
    assert all(R.p_morphic_image(poset, poset) for poset in R.rooted_posets(4))


def test_stratified_formulas_keep_the_mix_and_the_seed():
    quotas = {(True, 3): 4, (False, 2): 5}
    first = R.stratified_formulas(random.Random("x"), ("p", "q"), quotas)
    again = R.stratified_formulas(random.Random("x"), ("p", "q"), quotas)
    assert first == again and len(set(first)) == 9
    assert sum(1 for f in first if R.tautology(f) and R.connectives(f) == 3) == 4
    assert R.quotas({"a": 1.0, "b": 2.0}, 10) == {"a": 3, "b": 7}


def test_renamed_keeps_formulas_distinct_and_their_kind():
    pool = [("imp", p, q), ("imp", q, p), ("or", p, R.neg(p)), ("and", r, p)]
    out = R.renamed(pool, ("p", "q"), random.Random(3), taken=[("imp", p, p)])
    assert len(set(out)) == len(pool)
    assert {out[0], out[1]} == {("imp", p, q), ("imp", q, p)}
    assert out[2] in (("or", p, R.neg(p)), ("or", q, R.neg(q)))
    assert R.variables(out[3]) in ({"r", "p"}, {"r", "q"})
    assert [R.tautology(f) for f in out] == [R.tautology(f) for f in pool]
    assert out == R.renamed(pool, ("p", "q"), random.Random(3), taken=[("imp", p, p)])


def test_last_statement_of_a_script():
    script = "mode int\n1 + p -> q -> p ; ax\n2 - q & p ; antiax\n"
    assert R.last_statement(script) == ("-", ("and", q, p))
