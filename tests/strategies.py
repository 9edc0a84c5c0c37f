"""Hypothesis strategies for constraint systems.

Unlike the seed-based ``random_system`` helper, these build systems
*compositionally*, so hypothesis can shrink failing examples down to the
minimal constraint set that still breaks an invariant.
"""

from hypothesis import strategies as st

from repro.constraints.builder import ConstraintBuilder
from repro.constraints.model import ConstraintSystem
from repro.contexts import K_LEVELS
from repro.points_to.interface import FAMILY_KINDS
from repro.preprocess.hvn import OPT_STAGES

#: Draw one of the registered points-to representations, so differential
#: tests cover bitmap, BDD and interned bignum (int) sets uniformly.
pts_families = st.sampled_from(FAMILY_KINDS)

#: Draw one of the offline optimization stages (--opt), so differential
#: tests cover the none/ovs/hvn/hu pipeline uniformly.
opt_stages = st.sampled_from(OPT_STAGES)

#: Draw a k-CFA context-sensitivity level (--k-cs), so differential
#: tests cover insensitive, 1-CFA and 2-CFA expansions uniformly.
k_levels = st.sampled_from(K_LEVELS)


@st.composite
def constraint_systems(
    draw,
    max_plain_vars: int = 12,
    max_constraints: int = 25,
    with_functions: bool = True,
    with_blocks: bool = True,
) -> ConstraintSystem:
    """Draw a well-formed constraint system."""
    builder = ConstraintBuilder()
    n_vars = draw(st.integers(2, max_plain_vars))
    variables = [builder.var(f"v{i}") for i in range(n_vars)]

    functions = []
    if with_functions and draw(st.booleans()):
        for i in range(draw(st.integers(1, 2))):
            arity = draw(st.integers(0, 2))
            functions.append(
                builder.function(f"fn{i}", params=[f"p{j}" for j in range(arity)])
            )

    blocks = []
    if with_blocks and draw(st.booleans()):
        for i in range(draw(st.integers(1, 2))):
            size = draw(st.integers(1, 3))
            blocks.append(
                builder.object_block(f"blk{i}", [f"f{j}" for j in range(size)])
            )

    var_index = st.integers(0, n_vars - 1)
    n_constraints = draw(st.integers(0, max_constraints))
    for _ in range(n_constraints):
        choice = draw(st.integers(0, 7))
        a = variables[draw(var_index)]
        b = variables[draw(var_index)]
        if choice == 0:
            builder.address_of(a, b)
        elif choice == 1:
            builder.assign(a, b)
        elif choice == 2:
            builder.load(a, b)
        elif choice == 3:
            builder.store(a, b)
        elif choice == 4 and functions:
            fn = functions[draw(st.integers(0, len(functions) - 1))]
            if draw(st.booleans()):
                builder.address_of(a, fn.node)
            builder.call_indirect(a, [b], ret=variables[draw(var_index)])
        elif choice == 5 and blocks:
            blk = blocks[draw(st.integers(0, len(blocks) - 1))]
            builder.address_of(a, blk.node)
        elif choice == 6 and blocks:
            blk = blocks[draw(st.integers(0, len(blocks) - 1))]
            builder.offset_assign(a, b, draw(st.integers(1, len(blk.fields))))
        elif choice == 7 and functions:
            fn = functions[draw(st.integers(0, len(functions) - 1))]
            builder.call_direct(fn, [b][: len(fn.params)], ret=a)
        else:
            builder.assign(a, b)
    return builder.build()
