"""The wiring and export tests again, on the Python paths that run where no C compiler works.

Where no build of the kernel loads, wiring runs the Python fill loop
``_pair`` and the export writes each block with one bytes ``%`` format.
Each test below is imported from its own module, so pytest collects it here
too, under this module's autouse fixture: it makes the kernel loader report
no build, as it does where none loads.  The tests in their own modules run
on the compiled kernel wherever it loads.
"""

import pytest

from temponet import assembler

from test_assembler import (  # noqa: F401
    test_assemble_deterministic_given_seed,
    test_assembled_specs_wire_exactly,
    test_batched_intra_wiring_matches_one_reference_phase_per_community,
    test_batched_intra_wiring_stops_at_an_odd_community,
    test_column_wiring_matches_the_tuple_form_it_replaced,
    test_exhausted_repair_budget_leaves_the_generator_like_the_reference,
    test_gate_accepted_memberships_always_wire,
    test_intra_and_inter_wiring_agree_on_singleton_communities,
    test_negative_stub_counts_are_refused_before_any_draw,
    test_star_forcing_spec_always_stars,
    test_tree_sampler_wires_like_the_cumsum_reference,
    test_tree_sampler_wires_like_the_cumsum_reference_at_tree_sizes,
    test_uniform_pairing_approximates_cm_baseline,
    test_wire_inter_reads_community_labels_only_as_groups,
    test_wire_inter_single_bridge,
    test_wire_intra_exactness_on_random_graphable_communities,
    test_wire_intra_forced_k4,
    test_wiring_error_on_ungraphable_injection,
    test_wiring_gives_up_after_50_repairs_per_node,
    test_wiring_refuses_bad_node_columns_before_any_draw,
    test_worked_example_snapshot_counts_and_exactness,
)
from test_golden import test_golden_sampler_mode, test_golden_sequence_file_mode  # noqa: F401
from test_metrics_output import (  # noqa: F401
    test_edge_order_matches_lexsort_on_ids_past_32_bits,
    test_export_matches_the_per_field_reference,
    test_export_matches_the_reference_at_block_edges,
    test_export_matches_the_reference_on_wide_ids_and_long_runs,
)


@pytest.fixture(autouse=True)
def python_fill_loop(monkeypatch):
    monkeypatch.setattr(assembler, "_kernel", lambda: None)
