"""Decision procedures for modal logic K with defeasible modalities."""

from .syntax import (
    Atom, And, Bottom, Box, DefBox, DefDia, Dia, Formula, Iff, Implies,
    Not, Or, Top, Conditional, Plain, parse_formula, parse_statement,
    render_formula, desugar, subformulas, modal_depth,
)
from .semantics import (
    ModelSignature, PreferentialModel, brute_force_satisfiable,
    enumerate_models, extension, globally_true, holds_at, holds_conditional,
    load_model, min_preferred, satisfies_kb_globally, validate_model,
)
from .tableau import Closed, Open, decide, extract_model, verify_branch_model
from .engine import (
    Entailed, KnowledgeBase, NotEntailed, countermodel,
    global_entails, is_valid, kb_to_conditionals, load_kb,
)

__version__ = "0.1.0"
