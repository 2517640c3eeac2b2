"""Quantum error-correcting codes from logic functions over prime fields
and weighted graphs, verified exactly by a state-vector oracle over
cyclotomic integers."""
import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it, imported on first use (PEP 562)
_EXPORTS = {
    "CapacityError": "errors",
    "InputError": "errors",
    "PremiseError": "errors",
    "label_blocks": "_tables",
    "CycloInt": "fp_algebra",
    "FpMatrix": "fp_algebra",
    "LinearSolution": "fp_algebra",
    "PauliLabel": "fp_algebra",
    "rank": "fp_algebra",
    "solve_linear": "fp_algebra",
    "symplectic_product": "fp_algebra",
    "ApcResult": "logic_fn",
    "LogicFunction": "logic_fn",
    "add_affine": "logic_fn",
    "anf_text": "logic_fn",
    "apc_distance": "logic_fn",
    "autocorrelation": "logic_fn",
    "is_bent": "logic_fn",
    "parse_anf": "logic_fn",
    "quadratic_form": "logic_fn",
    "solve_coboundary": "logic_fn",
    "weight_support": "logic_fn",
    "zset": "logic_fn",
    "KLFailure": "state_oracle",
    "StateVector": "state_oracle",
    "VerifyReport": "state_oracle",
    "apply_error": "state_oracle",
    "inner_product": "state_oracle",
    "kl_verify": "state_oracle",
    "min_distance": "state_oracle",
    "state_from_function": "state_oracle",
    "CodeSpec": "codespec",
    "check_claim": "codespec",
    "MatrixCheckResult": "graph_codes",
    "WeightedGraph": "graph_codes",
    "build_graph_code": "graph_codes",
    "graph_to_stabilizer_rows": "graph_codes",
    "matrix_code_check": "graph_codes",
    "matrix_kernel_check": "graph_codes",
    "parse_graph_file": "graph_codes",
    "uncoverable_family": "graph_codes",
    "build_coset_code": "code_builder",
    "build_matrix_code": "code_builder",
    "build_mds_family": "code_builder",
    "claimed_coset_distance": "code_builder",
    "mds_function": "code_builder",
    "mds_matrix": "code_builder",
    "OperatorMatrix": "projector_codes",
    "PremiseReport": "projector_codes",
    "bent_exclusion": "projector_codes",
    "check_projector_premises": "projector_codes",
    "extract_boolean_basis": "projector_codes",
    "projector_rank": "projector_codes",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list:
    return list(__all__)
