"""Committed mutants: each row is one deliberate fault in one source
file and the tests that must fail once it is applied.

A row names the mutant, the file (relative to the repository root), the
old text, which must occur in that file exactly once, the new text that
replaces it, and the pytest ids expected to kill it.  mutants/run.py
applies one row at a time to a copy of the tree and runs its tests;
tests/test_mutants.py checks, in the tier-1 suite, that every row's old
text still matches once and every named test still exists.  A change
that claims a kill adds its row here.
"""

MUTANTS = [
    # the chunk bound without the mass inside a chunk is no bound; killed
    # by a behavioural test
    {"name": "chunk-peaks-without-strip-mass",
     "file": "src/orthofield/generators.py",
     "old": "    peaks += np.add.reduce(a.reshape(count, -1, chunks), axis=1).max(axis=1)\n",
     "new": "",
     "kills": ["tests/test_screen.py::test_chunk_bound_counts_the_mass_inside_a_chunk"]},
    # the partial sign count without the cells past its slab; killed by a
    # behavioural test
    {"name": "sign-bound-without-the-rest-of-the-lattice",
     "file": "src/orthofield/generators.py",
     "old": "    return 0.5 * (m + np.abs(_rng.sign_total(h))) + (cells - m)\n",
     "new": "    return 0.5 * (m + np.abs(_rng.sign_total(h)))\n",
     "kills": ["tests/test_screen.py::test_partial_sign_count_bounds_the_maximum"]},
    # a KS gate ten times looser passes a product field as Gaussian;
    # killed by behavioural tests (and by fdd's payload pins)
    {"name": "ks-allowance-tenfold",
     "file": "src/orthofield/harness.py",
     "old": "_KS_ALLOWANCE = 0.015\n",
     "new": "_KS_ALLOWANCE = 0.15\n",
     "kills": ["tests/test_harness.py::test_fdd_flags_product_field",
               "tests/test_acceptance.py::test_criterion_08_fdd_and_sheet"]},
    # the JSON reader letting nesting past the recursion limit escape as a
    # RecursionError; killed by behavioural tests
    {"name": "json-reader-without-recursion-error",
     "file": "src/orthofield/errors.py",
     "old": "    except (ValueError, RecursionError) as exc:\n",
     "new": "    except ValueError as exc:\n",
     "kills": ["tests/test_cli.py::test_raw_config_bytes_are_one_line_exit_1[deep-nesting]",
               "tests/test_generators.py::"
               "test_spec_from_json_refuses_texts_past_the_decoders_limits[deep-array]"]},
]
