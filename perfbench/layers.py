"""Which lfqec functions the traced run wraps, and the per-layer metrics
built from their spans. Layers are the package's modules; `_tables` is
private and `errors` does no work, so their time lands in their callers.
"""

LAYERS = (
    "cli",
    "codespec",
    "code_builder",
    "graph_codes",
    "logic_fn",
    "projector_codes",
    "state_oracle",
    "fp_algebra",
)

# Methods traced besides every public module-level function.
METHODS = (
    "codespec.CodeSpec.states",
    "projector_codes.OperatorMatrix.mul",
    "projector_codes.OperatorMatrix.rank",
)

# Argument validators called once per label and per cyclotomic value; a
# span each would cost more than the work they do.
SKIP = ("fp_algebra.validate_prime", "fp_algebra.table_size")

# metric -> spans whose outermost inclusive time it sums
TIME_METRICS = {
    "cli.main_s": ("cli.main",),
    "cli.parse_s": ("cli.parse_matrix_file", "cli.parse_classes_file", "cli.parse_system_file"),
    "codespec.states_s": ("codespec.CodeSpec.states",),
    "codespec.check_claim_s": ("codespec.check_claim",),
    "code_builder.claimed_coset_distance_s": ("code_builder.claimed_coset_distance",),
    "graph_codes.build_graph_code_s": ("graph_codes.build_graph_code",),
    "graph_codes.matrix_check_s": ("graph_codes.matrix_code_check", "graph_codes.matrix_kernel_check"),
    "logic_fn.zset_s": ("logic_fn.zset",),
    "logic_fn.spectrum_s": ("logic_fn.autocorrelation_spectrum", "logic_fn.is_bent"),
    "logic_fn.apc_distance_s": ("logic_fn.apc_distance",),
    "logic_fn.solve_coboundary_s": ("logic_fn.solve_coboundary",),
    "logic_fn.parse_s": ("logic_fn.parse_function_file", "logic_fn.parse_anf"),
    "projector_codes.premises_s": ("projector_codes.check_projector_premises",),
    "projector_codes.build_projector_s": ("projector_codes.build_projector",),
    "projector_codes.extract_basis_s": ("projector_codes.extract_boolean_basis",),
    "projector_codes.operator_mul_s": ("projector_codes.OperatorMatrix.mul",),
    "projector_codes.rank_s": ("projector_codes.OperatorMatrix.rank",),
    "state_oracle.gram_matrix_s": ("state_oracle.gram_matrix",),
    "state_oracle.inner_product_s": ("state_oracle.inner_product",),
    "state_oracle.apply_error_s": ("state_oracle.apply_error",),
    "fp_algebra.rank_s": ("fp_algebra.rank",),
    "fp_algebra.solve_linear_s": ("fp_algebra.solve_linear",),
}

# metric -> spans whose calls it counts
CALL_METRICS = {
    "state_oracle.labels": ("state_oracle.gram_matrix",),
    "state_oracle.inner_products": ("state_oracle.inner_product",),
    "logic_fn.apc_sums": ("logic_fn.apc_sum",),
    "projector_codes.operator_muls": ("projector_codes.OperatorMatrix.mul",),
    "fp_algebra.linear_calls": ("fp_algebra.rank", "fp_algebra.solve_linear"),
}

# span -> (metric, result -> count)
RESULT_METRICS = {
    "state_oracle.kl_verify": ("state_oracle.failures", lambda report: len(report.failures)),
}
