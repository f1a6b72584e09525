import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from lukas.formulas import BOT, And, Box, Implies, Or, Var
from lukas.kernel import Sign
from lukas.semantics import frame_valid


def formula_strategy(names=("p", "q", "r"), max_depth=4, modal=False):
    """Random formulas over `names`; with `modal`, boxes may occur too."""
    leaves = st.one_of(
        st.sampled_from([Var(n) for n in names]),
        st.just(BOT),
    )

    def extend(children):
        connectives = [
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
        ]
        if modal:
            connectives.append(st.builds(Box, children))
        return st.one_of(*connectives)

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


def frame_validates(frame, statement):
    """Statement validity with the frame standing for its whole model class:
    assertions must be frame-valid, rejections must not be."""
    valid = frame_valid(frame, statement.formula)
    return valid if statement.sign is Sign.ASSERT else not valid


@pytest.fixture(scope="session")
def cpc():
    from lukas.complete_sets import cpc_context
    return cpc_context()
