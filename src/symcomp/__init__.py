"""symcomp: a symbolic identity checker for symmetric composition algebras.

Canonicalizes expressions over a non-associative product, a quadratic
form q and its polar form b; rewrites them with deterministic rule sets;
extracts multivariate coefficients; and cross-validates every claim in
an exact para-quaternion model.
"""
from .core import (
    Env,
    Expr,
    ScalarExpr,
    SymbolTable,
    VectorExpr,
    Word,
    b_of,
    canonicalize,
    dot,
    equal,
    q_of,
)
from .errors import (
    ArityError,
    ChainedDotError,
    EngineError,
    ExprTypeError,
    MissingSymbol,
    NonTermination,
    ParseError,
    RuleSetUnknown,
    SourceSpan,
    SymcompError,
    UndefinedName,
    UnknownSymbol,
)
from .oracle import (
    Assignment,
    IdentityReport,
    ParaQuaternion,
    check_identity,
    eval_expr,
)
from .parser import Session, parse_expr, parse_rule_source, parse_script
from .polyops import CoeffMatrix, coeff, coeff_matrix, subst, subst_raw
from .printer import print_expr
from .rules import (
    RewriteRule,
    RuleSet,
    apply_fixpoint,
    apply_once,
    builtin_ruleset,
    compile_rule,
)
from .sessions import (
    CheckpointResult,
    SessionReport,
    load_builtin_session,
    run_builtin_session,
    run_session,
)

__version__ = "0.1.0"
