import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lukas
from conftest import formula_strategy
from generators import random_formula
from lukas.formulas import (
    _TEXT_LIMIT,
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
    conj,
    disj,
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


# --- cached rendering ----------------------------------------------------------


def reference_render(a):
    """The renderer without a cache: one recursive walk of the whole tree.
    `render` must give the same text whatever it has cached."""

    def go(f, min_prec):
        if isinstance(f, Var):
            return f.name
        if isinstance(f, Bottom):
            return "bot"
        if isinstance(f, Implies):
            if isinstance(f.right, Bottom):
                return "~" + go(f.left, 5)
            body = go(f.left, 2) + " -> " + go(f.right, 1)
            return "(" + body + ")" if min_prec > 1 else body
        if isinstance(f, Or):
            body = go(f.left, 2) + " | " + go(f.right, 3)
            return "(" + body + ")" if min_prec > 2 else body
        if isinstance(f, And):
            body = go(f.left, 3) + " & " + go(f.right, 4)
            return "(" + body + ")" if min_prec > 3 else body
        if isinstance(f, Box):
            return "[]" + go(f.inner, 5)
        raise TypeError(f"not a formula: {f!r}")

    return go(a, 0)


_renames = itertools.count()


def _unrendered(f):
    """`f` with its variables renamed apart from every formula built so far,
    so that none of its compound nodes has a cached rendering yet."""
    n = next(_renames)
    return apply_substitution({v: Var(f"{v}_{n}") for v in variables(f)}, f)


def _render_in_random_order(rng, f):
    """Render a random share of the subformulas of `f`, in random order."""
    parts = list(subformulas(f))
    rng.shuffle(parts)
    for g in parts[:rng.randrange(len(parts) + 1)]:
        render(g)


@given(formula_strategy(modal=True), st.randoms(use_true_random=False))
def test_render_does_not_depend_on_what_was_rendered_first(f, rng):
    f = _unrendered(f)
    _render_in_random_order(rng, f)
    assert render(f) == reference_render(f)
    assert all(render(g) == reference_render(g) for g in subformulas(f))


def test_render_matches_the_reference_on_seeded_formulas():
    rng = random.Random(11)
    for mode in (Mode.INT, Mode.K4):
        for _ in range(300):
            f = _unrendered(random_formula(rng, ("p", "q", "r"), depth=6, mode=mode))
            _render_in_random_order(rng, f)
            assert render(f) == reference_render(f)
            assert parse_formula(render(f), mode) is f


def test_threads_rendering_shared_formulas_get_one_text():
    """Four threads render the same fresh formulas, and their subformulas,
    at once and in different orders; every thread must get the reference
    text."""
    workers, rounds = 4, 40
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            formulas = [_unrendered(random_formula(random.Random(r * 100 + k),
                                                   ("p", "q", "r"), depth=6, mode=Mode.K4))
                        for k in range(20)]
            results: list = [None] * workers
            barrier = threading.Barrier(workers)

            def work(w: int) -> None:
                parts = [g for f in formulas for g in subformulas(f)]
                random.Random(w).shuffle(parts)
                barrier.wait(timeout=30)
                results[w] = [render(g) for g in parts + formulas][-len(formulas):]

            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            expected = [reference_render(f) for f in formulas]
            assert all(texts == expected for texts in results)
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("shape", ["or-chain", "negation-tower"])
def test_deep_formulas_render_one_frame_per_level(shape):
    """A 900-deep formula renders within the default recursion limit, so
    the cache costs no extra stack frame per level of nesting."""
    assert sys.getrecursionlimit() <= 1000
    if shape == "or-chain":
        names = [f"d{i}" for i in range(901)]
        f, expected = disj([Var(n) for n in names]), " | ".join(names)
    else:
        f, expected = Var("t"), "~" * 900 + "t"
        for _ in range(900):
            f = neg(f)
    assert render(f) == expected
    assert render(f) == expected


def _balanced_and(parts):
    while len(parts) > 1:
        parts = [And(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


@pytest.mark.parametrize("shape", ["negation-tower", "comb"])
def test_cached_renderings_stay_within_a_multiple_of_the_text(shape):
    """Each node keeps at most `_TEXT_LIMIT` characters of rendering, so
    what `render` leaves behind grows with the text, not with text times
    depth.  Without the limit the tower keeps over 100 times its text and
    the comb over 20 times; with it, both keep under 8 times."""
    if shape == "negation-tower":      # 100 negations of a wide conjunction
        f = _balanced_and([Var(f"x{i}") for i in range(2000)])
        for _ in range(100):
            f = neg(f)
    else:                              # 500 disjoint 20-deep chains under one conjunction
        f = _balanced_and([disj([Var(f"c{k}_{i}") for i in range(21)]) for k in range(500)])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = len(render(f))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 12 * size, (kept, size)
    assert all(g._text is None or len(g._text) <= _TEXT_LIMIT
               for g in subformulas(f) if not isinstance(g, Var))
    assert render(f) == reference_render(f)


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
