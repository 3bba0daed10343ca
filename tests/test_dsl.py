import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swizzlesim.dsl import (
    VOCABULARY,
    BinOp,
    DivisionByZeroError,
    ExprSyntaxError,
    Ident,
    Lit,
    MinMax,
    NegativeValueError,
    UnboundIdentifierError,
    UnknownIdentifierError,
    EvalError,
    ValueOverflowError,
    eval_expr,
    eval_expr_vec,
    format_expr,
    parse_expr,
)

from conftest import random_env, random_expr

# ceiling-division blocks-per-XCD inlined, as proposals carry it
GEMM_EXPR = (
    "(pid % num_xcds) * ((num_blocks + num_xcds - 1) // num_xcds) + pid // num_xcds"
)


def test_parse_identity():
    assert parse_expr("pid") == Ident("pid")


def test_parse_gemm_expression_structure():
    tree = parse_expr(GEMM_EXPR)
    assert isinstance(tree, BinOp) and tree.op == "+"


def test_parse_syntax_error_with_position():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse_expr("pid %")
    assert "position" in str(excinfo.value)


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("pid + bogus")


def test_parse_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("pid pid")


def test_parse_hex_literal():
    assert parse_expr("0x55555555") == Lit(0x55555555)


def test_precedence_mul_over_add():
    tree = parse_expr("pid + num_blocks * num_xcds")
    rng = np.random.default_rng(7)
    for _ in range(50):
        env = random_env(rng)
        want = env["pid"] + env["num_blocks"] * env["num_xcds"]
        assert eval_expr(tree, env) == want


def test_left_associativity():
    # 7 - 3 - 2 must parse as (7 - 3) - 2
    assert eval_expr(parse_expr("7 - 3 - 2"), {}) == 2
    assert eval_expr(parse_expr("64 // 4 // 2"), {}) == 8


def test_shift_binds_looser_than_add():
    # python/C convention: 1 + 1 << 2 == (1 + 1) << 2
    assert eval_expr(parse_expr("1 + 1 << 2"), {}) == 8


def test_eval_identity():
    assert eval_expr(parse_expr("pid"), {"pid": 7}) == 7


def test_eval_gemm_expression_hand_checked():
    tree = parse_expr(GEMM_EXPR)
    env = {"pid": 1, "num_blocks": 16, "num_xcds": 4}
    assert eval_expr(tree, env) == 4  # (1%4)*4 + 1//4
    env["pid"] = 5
    assert eval_expr(tree, env) == 5  # (5%4)*4 + 5//4


def test_eval_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        eval_expr(parse_expr("pid // num_xcds"), {"pid": 1, "num_xcds": 0})
    with pytest.raises(DivisionByZeroError):
        eval_expr(parse_expr("pid % num_xcds"), {"pid": 1, "num_xcds": 0})


def test_eval_unbound_identifier():
    with pytest.raises(UnboundIdentifierError):
        eval_expr(parse_expr("pid + num_blocks"), {"pid": 1})


def test_eval_negative_intermediate_rejected():
    with pytest.raises(NegativeValueError):
        eval_expr(parse_expr("pid - num_blocks"), {"pid": 1, "num_blocks": 5})


def test_format_examples():
    assert format_expr(parse_expr("pid")) == "pid"
    tree = MinMax("min", Ident("pid"), BinOp("-", Ident("num_blocks"), Lit(1)))
    assert format_expr(tree) == "min(pid, (num_blocks - 1))"


def test_round_trip_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(300):
        tree = random_expr(rng)
        assert parse_expr(format_expr(tree)) == tree


def test_eval_determinism():
    tree = parse_expr(GEMM_EXPR)
    env = {"pid": 13, "num_blocks": 40, "num_xcds": 8}
    assert eval_expr(tree, env) == eval_expr(tree, env)


def test_vector_evaluator_matches_scalar():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(400):
        tree = random_expr(rng, depth=3)
        env = random_env(rng)
        try:
            want = eval_expr(tree, env)
        except EvalError as exc:
            with pytest.raises(type(exc)):
                eval_expr_vec(tree, {k: np.asarray([v]) for k, v in env.items()})
            continue
        got = eval_expr_vec(tree, {k: np.asarray([v]) for k, v in env.items()})
        assert got[0] == want
        checked += 1
    assert checked > 100  # most random trees must evaluate cleanly


_NAMES = sorted(VOCABULARY)
# small values, so that shifts, divisions and wrap-free results are common,
# and values from the whole domain, so that every overflow path is reached
_LEAVES = st.one_of(
    st.integers(0, 70).map(Lit),
    st.integers(0, 1 << 64).map(Lit),
    st.sampled_from(_NAMES).map(Ident),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "//", "%", "<<", ">>", "&", "|"]),
                  sub, sub),
        st.builds(MinMax, st.sampled_from(["min", "max"]), sub, sub),
    ),
    max_leaves=10,
)
_ENVS = st.fixed_dictionaries(
    {name: st.one_of(st.integers(0, 70), st.integers(0, 1 << 62),
                     st.sampled_from([(1 << 62) - 1, 1 << 62]))
     for name in _NAMES})


def _outcome(evaluate):
    """The value, or the type of the EvalError raised; any other exception propagates."""
    try:
        return int(np.asarray(evaluate()).reshape(-1)[0])
    except EvalError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(tree=_TREES, env=_ENVS)
def test_evaluators_agree_over_the_full_domain(tree, env):
    # literals up to 2**64, bound values up to 2**62 and shift amounts past 63
    scalar = _outcome(lambda: eval_expr(tree, env))
    vector = _outcome(lambda: eval_expr_vec(tree, env))
    assert scalar == vector, format_expr(tree)


@pytest.mark.parametrize("text, pid", [
    ("4611686018427387904", 0),  # 2**62
    ("pid + 0 * 99999999999999999999", 0),
    ("pid + pid", 1 << 62),  # 2**63 wraps to a negative int64
])
def test_values_at_the_limit_overflow_in_both_evaluators(text, pid):
    tree = parse_expr(text)
    env = {name: 1 for name in _NAMES} | {"pid": pid}
    with pytest.raises(ValueOverflowError):
        eval_expr(tree, env)
    with pytest.raises(ValueOverflowError):
        eval_expr_vec(tree, {name: np.asarray([value]) for name, value in env.items()})


def test_vector_evaluator_broadcasts_scalars():
    tree = parse_expr("pid * num_xcds + 1")
    got = eval_expr_vec(tree, {"pid": np.arange(5), "num_xcds": 3})
    assert np.array_equal(got, np.arange(5) * 3 + 1)
