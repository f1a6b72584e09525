import copy
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lukas
from conftest import formula_strategy
from lukas.formulas import (
    BOT,
    And,
    Bottom,
    Box,
    Implies,
    Mode,
    Or,
    ParseError,
    Var,
    apply_substitution,
    has_box,
    match_instance,
    neg,
    parse_formula,
    render,
    subformulas,
    variables,
)


def test_parse_implication_right_associative():
    assert parse_formula("p -> (q -> p)") == Implies(Var("p"), Implies(Var("q"), Var("p")))
    assert parse_formula("p -> q -> p") == parse_formula("p -> (q -> p)")


def test_negation_desugars():
    assert parse_formula("~p") == Implies(Var("p"), BOT)


def test_box_rejected_in_int_mode():
    with pytest.raises(ParseError):
        parse_formula("[](p -> p)", Mode.INT)
    assert parse_formula("[](p -> p)", Mode.K4) == Box(Implies(Var("p"), Var("p")))


def test_precedence():
    assert parse_formula("~p & q | r -> s") == Implies(
        Or(And(neg(Var("p")), Var("q")), Var("r")), Var("s"))
    assert parse_formula("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
    assert parse_formula("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))


def test_unicode_aliases():
    assert parse_formula("¬p ∧ q ∨ r → ⊥") == parse_formula("~p & q | r -> bot")
    assert parse_formula("□p → p", Mode.K4) == parse_formula("[]p -> p", Mode.K4)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> )")
    assert err.value.position == 5


def test_render_resugars_negation():
    assert render(Implies(Var("p"), BOT)) == "~p"
    assert render(neg(neg(Var("p")))) == "~~p"
    assert render(neg(Implies(Var("p"), Var("q")))) == "~(p -> q)"


def test_substitution_examples():
    f = parse_formula("p -> p")
    inst = apply_substitution({"p": parse_formula("q & r")}, f)
    assert inst == parse_formula("q & r -> (q & r)")
    assert apply_substitution({}, f) == f


def test_substitution_is_simultaneous():
    f = parse_formula("p -> q")
    swapped = apply_substitution({"p": Var("q"), "q": Var("p")}, f)
    assert swapped == parse_formula("q -> p")


def test_match_examples():
    pattern = parse_formula("p -> (q -> p)")
    target = parse_formula("(a & b) -> (c -> (a & b))")
    assert match_instance(pattern, target) == {
        "p": parse_formula("a & b"), "q": Var("c")}
    assert match_instance(parse_formula("p -> p"), parse_formula("p -> q")) is None
    any_formula = parse_formula("(a | b) -> bot")
    assert match_instance(Var("p"), any_formula) == {"p": any_formula}


@given(formula_strategy())
def test_render_parse_round_trip(f):
    assert parse_formula(render(f), Mode.INT) == f


@given(formula_strategy(max_depth=3))
def test_k4_round_trip_with_boxes(f):
    boxed = Box(And(f, Box(f)))
    assert parse_formula(render(boxed), Mode.K4) == boxed


@given(formula_strategy(), formula_strategy(max_depth=2))
def test_matching_soundness(pattern, target):
    binding = match_instance(pattern, target)
    if binding is not None:
        assert apply_substitution(binding, pattern) == target


@given(formula_strategy(max_depth=3), st.data())
def test_matching_completeness_on_instances(pattern, data):
    small = formula_strategy(names=("a", "b"), max_depth=2)
    subst = {name: data.draw(small) for name in variables(pattern)}
    instance = apply_substitution(subst, pattern)
    binding = match_instance(pattern, instance)
    assert binding is not None
    for name in variables(pattern):
        assert binding[name] == subst[name]


# --- interning ---------------------------------------------------------------


def test_constructors_intern():
    assert Var("p") is Var("p")
    assert Bottom() is BOT
    assert And(Var("p"), BOT) is And(Var("p"), BOT)
    assert Or(Var("p"), BOT) is not And(Var("p"), BOT)
    assert Box(Var("p")) is parse_formula("[]p", Mode.K4)
    assert hash(Implies(Var("p"), Var("q"))) != hash(Implies(Var("q"), Var("p")))


def test_formulas_are_immutable():
    f = And(Var("p"), Var("q"))
    with pytest.raises(AttributeError):
        f.left = Var("r")
    with pytest.raises(AttributeError):
        del f.right
    assert f is And(Var("p"), Var("q"))


@given(formula_strategy(modal=True))
def test_parse_of_render_is_the_same_object(f):
    assert parse_formula(render(f), Mode.K4) is f


@given(formula_strategy(modal=True))
def test_empty_substitution_is_the_same_object(f):
    assert apply_substitution({}, f) is f
    assert apply_substitution({"p": Var("p")}, f) is f


@given(formula_strategy(modal=True))
def test_copy_and_pickle_return_the_same_object(f):
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


@given(formula_strategy(modal=True))
def test_has_box_agrees_with_a_walk(f):
    assert has_box(f) == any(isinstance(g, Box) for g in subformulas(f))


def test_threads_building_one_formula_get_one_object():
    """Four threads parse the same fresh formulas at once, with the switch
    interval cut so they interleave inside the constructors; each formula
    must still come out as one object."""
    workers, rounds = 4, 40
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            texts = [f"(a{r}_{k} -> b{r}) & (b{r} | ~c{k})" for k in range(20)]
            results: list = [None] * workers
            barrier = threading.Barrier(workers)

            def work(w: int) -> None:
                barrier.wait(timeout=30)
                results[w] = [parse_formula(t) for t in texts]

            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for w in range(1, workers):
                assert all(x is y for x, y in zip(results[0], results[w], strict=True))
    finally:
        sys.setswitchinterval(old)


def _run_python(code: str, **env: str) -> str:
    """Run `code` in a fresh interpreter that imports this `lukas`."""
    src = str(Path(lukas.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_formula_hashes_do_not_depend_on_the_hash_seed():
    code = ("from lukas.formulas import parse_formula, Mode\n"
            "print([hash(parse_formula(t, Mode.K4)) for t in "
            "('p', 'bot', 'p & q -> q | ~p', '[]p -> [][]q')])")
    assert _run_python(code, PYTHONHASHSEED="0") == _run_python(code, PYTHONHASHSEED="1")


def test_reimport_frees_the_previous_import():
    """A fresh `import lukas` must not keep the previous one's modules
    alive, as module-level `typing` aliases did through typing's cache."""
    code = """
import gc, importlib, sys, weakref

def fresh():
    for name in [m for m in sys.modules if m == "lukas" or m.startswith("lukas.")]:
        del sys.modules[name]
    return importlib.import_module("lukas")

first = weakref.ref(fresh().formulas.Formula)
fresh()
gc.collect()
print(first() is None)
"""
    assert _run_python(code).strip() == "True"
