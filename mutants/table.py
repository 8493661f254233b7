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
    # the block driver handing its drain to w helpers besides the caller,
    # so w + 1 blocks run at once and the pool outgrows _MAX_THREADS - 1;
    # killed by a behavioural test
    {"name": "block-driver-one-helper-too-many",
     "file": "src/orthofield/lattice.py",
     "old": "    helpers = _hand_to_helpers(drain, workers - 1)\n",
     "new": "    helpers = _hand_to_helpers(drain, workers)\n",
     "kills": ["tests/test_lattice.py::test_map_blocks_bounds_the_blocks_running_at_once"]},
    # the hash mixing the first slice of a large result only, leaving the
    # rest half mixed; killed by the payload pins and the reference test
    {"name": "mix-first-slice-only",
     "file": "src/orthofield/_rng.py",
     "old": "    for part in _slices(x):\n",
     "new": "    for part in _slices(x)[:1]:\n",
     "kills": ["tests/test_harness.py::test_payload_and_verdict_are_pinned",
               "tests/test_rng.py::test_mix_equals_the_one_scratch_reference"]},
    # uniform01 converting the whole block with one astype again, which
    # holds a second block array; killed by the tightened block test
    {"name": "uniform01-one-astype",
     "file": "src/orthofield/_rng.py",
     "old": "    for part in _slices(h):\n"
            "        u = part.view(np.float64)\n"
            "        u[...] = np.right_shift(part, 11).view(np.int64)\n"
            "        u += 0.5\n"
            "        u *= _INV53\n"
            "        np.minimum(u, _BELOW_ONE, out=u)\n"
            "    return h.view(np.float64)\n",
     "new": "    h >>= 11\n"
            "    u = h.view(np.int64).astype(np.float64)\n"
            "    u += 0.5\n"
            "    u *= _INV53\n"
            "    return np.minimum(u, _BELOW_ONE, out=u)\n",
     "kills": ["tests/test_generation_bits.py::"
               "test_a_block_holds_at_most_three_block_arrays[iid_gaussian-64x64]"]},
    # the Weibull map writing its first slice only, leaving the rest as
    # uniforms; killed by the sliced-map bit test
    {"name": "weibull-first-slice-only",
     "file": "src/orthofield/generators.py",
     "old": "    for part in lattice._slices(u):\n",
     "new": "    for part in lattice._slices(u)[:1]:\n",
     "kills": ["tests/test_rng.py::test_sliced_value_maps_equal_the_one_shot_formulas[flat]"]},
    # holder-norm's block sized for one of the two arrays it holds at once;
    # killed by the holder-norm block cases
    {"name": "holder-norm-block-for-one-array",
     "file": "src/orthofield/harness.py",
     "old": "        cells = (volume(n + 1 for n in shape), holder.full_grid_count(levels, len(shape)))\n",
     "new": "        cells = max(volume(n + 1 for n in shape), holder.full_grid_count(levels, len(shape)))\n",
     "kills": ["tests/test_harness.py::"
               "test_every_experiment_block_holds_at_most_three_block_arrays[holder-norm-8x8]",
               "tests/test_harness.py::"
               "test_every_experiment_block_holds_at_most_three_block_arrays[holder-norm-32x32]"]},
    # one Halley step instead of three leaves the level-set roots short of
    # rounding; killed by every pinned-root case
    {"name": "halley-one-step",
     "file": "src/orthofield/bounds.py",
     "old": "_HALLEY_STEPS = 3\n",
     "new": "_HALLEY_STEPS = 1\n",
     "kills": ["tests/test_bounds.py::test_level_v_matches_pinned_roots"]},
    # bracket half-widths of 0 let the screen bound fall below the values
    # of a bucket; killed by the table test (and by the floor and payload
    # pins)
    {"name": "brackets-without-half-widths",
     "file": "src/orthofield/generators.py",
     "old": "        table.imag = half\n",
     "new": "        table.imag = 0.0\n",
     "kills": ["tests/test_screen.py::test_bracket_table_holds_the_words_around_each_switch"]},
    # the bracket bound without its rounding term; killed by the
    # hand-built rounding case
    {"name": "bracket-bound-without-eps",
     "file": "src/orthofield/generators.py",
     "old": "    peaks += eps\n",
     "new": "",
     "kills": ["tests/test_screen.py::"
               "test_bracket_bound_covers_the_rounding_of_both_prefix_sums"]},
    # a verdict that passes when any row is ok; killed by the lemma-checks
    # pins
    {"name": "verdict-any-row",
     "file": "src/orthofield/harness.py",
     "old": '"PASS" if all(decided)',
     "new": '"PASS" if any(decided)',
     "kills": ["tests/test_harness.py::test_payload_and_verdict_are_pinned",
               "tests/test_harness.py::test_lemma_checks_pass_and_fail"]},
]

# each check a spec type runs when it is built, taken out, as (name,
# module, old, new); killed by the hand-built spec cases
_SPEC_CHECKS = [
    ("generator-spec-without-variant-check", "generators",
     "        if self.variant not in _VARIANTS:\n", "        if False:\n"),
    ("generator-spec-without-d-check", "generators",
     'check_number("field dimension d", self.d, lo=1, integer=True)', "self.d"),
    ("generator-spec-without-pairs-check", "generators",
     "        except (TypeError, ValueError):\n", "        except ():\n"),
    ("generator-spec-without-dist-check", "generators",
     "            if dist not in _DISTS:\n", "            if False:\n"),
    ("generator-spec-without-sigma-check", "generators",
     '"sigma", 1.0), lo=0,', '"sigma", 1.0), lo=-1,'),
    ("generator-spec-without-gamma-check", "generators",
     '"gamma", None), lo=0,', '"gamma", None), lo=-2,'),
    ("generator-spec-without-axis-check", "generators",
     '"axis", 1), lo=1, hi=d,', '"axis", 1), lo=1, hi=d + 1,'),
    ("generator-spec-without-unread-param-check", "generators",
     '        check_object("generator %r params" % variant, params, optional=())\n', ""),
    ("tail-model-without-kind-check", "bounds",
     " or self.kind not in _TAIL_VALUES:\n", ":\n"),
    ("tail-model-without-k-check", "bounds",
     '"bounded": ("K", {"lo": 0, "above": True})', '"bounded": ("K", {})'),
    ("tail-model-without-gamma-check", "bounds",
     '"weibull": ("gamma", {"lo": 0, "above": True})', '"weibull": ("gamma", {})'),
    ("tail-model-without-integer-m-check", "bounds",
     '_MAX_FACTORS, "integer": True}', "_MAX_FACTORS}"),
    ("slowly-varying-without-kind-check", "holder",
     '        elif self.kind != "iter_log":\n', "        elif False:\n"),
    ("slowly-varying-without-beta-check", "holder",
     '"log_power beta", self.beta, lo=0)', '"log_power beta", self.beta, lo=-2)'),
    ("slowly-varying-without-c0-check", "holder",
     '"const factor c0", self.c0, lo=0,', '"const factor c0", self.c0, lo=-1,'),
    ("modulus-without-c-check", "holder",
     '"modulus c", self.c, lo=1,', '"modulus c", self.c, lo=0,'),
    ("modulus-without-d-check", "holder",
     '        d = check_number("modulus dimension d", self.d, lo=1, integer=True)\n',
     "        d = self.d\n"),
    ("modulus-without-l-check", "holder",
     "        if not isinstance(self.L, SlowlyVarying):\n", "        if False:\n"),
    ("modulus-without-increasing-check", "holder",
     "all(a < b < np.inf for", "all(b < np.inf for"),
]
MUTANTS += [{"name": name, "file": "src/orthofield/%s.py" % module, "old": old, "new": new,
             "kills": ["tests/test_input_checks.py::test_hand_built_specs_check_themselves"]}
            for name, module, old, new in _SPEC_CHECKS]
