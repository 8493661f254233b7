"""Committed mutants: each row is one deliberate fault in one source
file and the tests that must fail once it is applied.

A row names the mutant, the file (relative to the repository root), the
old text, which must occur in that file exactly once, the new text that
replaces it, and the pytest ids expected to kill it, each on its own.
mutants/run.py applies one row at a time to a copy of the tree and runs
each of its tests alone;
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
     "        if not isinstance(self.variant, str) or self.variant not in _VARIANT_TABLE:\n",
     "        if False:\n"),
    ("generator-spec-without-d-check", "generators",
     'check_number("field dimension d", self.d, lo=1, integer=True)', "self.d"),
    ("generator-spec-without-pairs-check", "generators",
     "        except (TypeError, ValueError):\n", "        except ():\n"),
    ("generator-spec-without-dist-check", "generators",
     "            if not isinstance(dist, str) or dist not in _LAW_TABLE:\n",
     "            if False:\n"),
    ("generator-spec-without-axis-check", "generators",
     '"axis", 1), lo=1, hi=d,', '"axis", 1), lo=1, hi=d + 1,'),
    ("generator-spec-without-unread-param-check", "generators",
     '        check_object("generator %r params" % variant, params, optional=())\n', ""),
    ("tail-model-without-kind-check", "bounds",
     " or self.kind not in _TAIL_TABLE:\n", ":\n"),
    ("tail-model-without-k-check", "bounds",
     '"bounded": _Row(keys=("K",), limits={"lo": 0, "above": True}',
     '"bounded": _Row(keys=("K",), limits={}'),
    ("tail-model-without-gamma-check", "bounds",
     '"weibull": _Row(keys=("gamma",), limits={"lo": 0, "above": True}',
     '"weibull": _Row(keys=("gamma",), limits={}'),
    ("tail-model-without-integer-m-check", "bounds",
     '_MAX_FACTORS, "integer": True}', "_MAX_FACTORS}"),
    ("slowly-varying-without-kind-check", "holder",
     " or self.kind not in _FACTOR_TABLE:\n", ":\n"),
    ("slowly-varying-without-beta-check", "holder",
     'name="log_power beta", limits={"lo": 0}', 'name="log_power beta", limits={"lo": -2}'),
    ("slowly-varying-without-c0-check", "holder",
     'name="const factor c0", limits={"lo": 0,', 'name="const factor c0", limits={"lo": -1,'),
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

# the law parameter's check, one statement for sigma and gamma alike:
# each of the two hand-built cases fails on its own
MUTANTS.append(
    {"name": "generator-spec-without-law-parameter-check",
     "file": "src/orthofield/generators.py",
     "old": "read[law.param] = float(check_number(name, value, lo=0, above=True))",
     "new": "read[law.param] = float(check_number(name, value, lo=-2, above=True))",
     "kills": ["tests/test_input_checks.py::"
               "test_hand_built_specs_check_themselves[generator %s]" % name
               for name in ("sigma", "gamma")]})

_SCREENED_BLOCKS = ["tests/test_screen.py::"
                    "test_screened_gaussian_and_weibull_blocks_skip_the_value_map[%s]" % case
                    for case in ("tightness-level", "large-deviation")]

# the rows of the variant and law tables, each changed in one field, and
# the draw path's screen, bracket cache and plan
MUTANTS += [
    # iid_symmetric and product_rademacher trading stream tags; killed by
    # the generation-bit pins
    {"name": "variant-tags-swapped",
     "file": "src/orthofield/generators.py",
     "old": '"iid_symmetric": _Variant(101, True, lambda x, d: x, False, None, "spans"),\n'
            '    "product_rademacher": _Variant(102,',
     "new": '"iid_symmetric": _Variant(102, True, lambda x, d: x, False, None, "spans"),\n'
            '    "product_rademacher": _Variant(101,',
     "kills": ["tests/test_generation_bits.py::test_generation_bits_are_pinned"]},
    # product_rademacher's axis streams keyed with the rademacher law's
    # tag 201 instead of 0; killed by the generation-bit pins
    {"name": "signs-law-tag-201",
     "file": "src/orthofield/generators.py",
     "old": '_SIGNS = _LAW_TABLE["rademacher"]._replace(tag=0)',
     "new": '_SIGNS = _LAW_TABLE["rademacher"]._replace(tag=201)',
     "kills": ["tests/test_generation_bits.py::test_generation_bits_are_pinned"]},
    # a moving average's site scaled as one site (x, not 2x); killed by
    # the variance and float-range tests
    {"name": "moving-average-scale-x",
     "file": "src/orthofield/generators.py",
     "old": "lambda x, d: 2 * x,",
     "new": "lambda x, d: x,",
     "kills": ["tests/test_generators.py::test_spec_variance_against_quadrature",
               "tests/test_generators.py::"
               "test_a_lattice_whose_sums_can_pass_the_float_range_is_refused[moving-average]"]},
    # the product variants' site scaled as one factor (x, not x^d);
    # killed by the quadrature test's decoupled cases
    {"name": "product-scale-x",
     "file": "src/orthofield/generators.py",
     "old": 'lambda x, d: x**d, False, None, "product"),\n'
            '    "decoupled_product": _Variant(103, True, lambda x, d: x**d,',
     "new": 'lambda x, d: x, False, None, "product"),\n'
            '    "decoupled_product": _Variant(103, True, lambda x, d: x,',
     "kills": ["tests/test_generators.py::test_spec_variance_against_quadrature"]},
    # a product field's slab taking its last factor from axis 1 instead of
    # axis d; killed by the exact Rademacher product oracle
    {"name": "product-slab-from-axis-1",
     "file": "src/orthofield/generators.py",
     "old": '"slab": peaks[:-1] + [np.abs(e) for e in ends[-1:]]}',
     "new": '"slab": peaks[:-1] + [np.abs(e) for e in ends[:1]]}',
     "kills": ["tests/test_generators.py::"
               "test_product_stats_equal_float_path_exactly_for_rademacher"]},
    # a span that never screens runs every Gaussian or Weibull block
    # through the value map; killed by each case of the screened-block
    # test
    {"name": "span-stats-without-screen",
     "file": "src/orthofield/generators.py",
     "old": "    screen = plain and not signs and floor is not None\n",
     "new": "    screen = False\n",
     "kills": _SCREENED_BLOCKS},
    # a bracket table rebuilt on every call maps every bucket's words
    # again; killed by each case of the screened-block test
    {"name": "brackets-uncached",
     "file": "src/orthofield/generators.py",
     "old": "@functools.lru_cache(maxsize=32)\ndef _brackets(",
     "new": "@functools.lru_cache(maxsize=0)\ndef _brackets(",
     "kills": _SCREENED_BLOCKS},
    # a draw plan without the site before a moving average's axis, whose
    # lag sum then drops a site of that axis; killed by the generation-bit
    # pins
    {"name": "plan-without-moving-average-site",
     "file": "src/orthofield/generators.py",
     "old": "        coords[q] = np.concatenate(([coords[q][0] - 1], coords[q]))\n",
     "new": "",
     "kills": ["tests/test_generation_bits.py::test_generation_bits_are_pinned"]},
]

# the tail and factor tables' rows, each changed in one field, and the
# block driver's fork reset
MUTANTS += [
    # the Weibull tail's negligible point put at its switch point, so its
    # tail integrals stop where the tail leaves 1; killed by the quadrature
    # oracle and the Lemma 3 closed form
    {"name": "weibull-knot-without-level",
     "file": "src/orthofield/bounds.py",
     "old": "math.log(math.log(2.0) - level) / g",
     "new": "math.log(math.log(2.0)) / g",
     "kills": ["tests/test_bounds.py::test_tail_integral_against_adaptive_quad",
               "tests/test_bounds.py::test_lemma3_term_matches_the_weibull_closed_form"]},
    # iter_log as 1 + ln(1 + t), one log1p short; killed by the factor's
    # value test
    {"name": "iter-log-one-log1p",
     "file": "src/orthofield/holder.py",
     "old": "1.0 + np.log1p(np.log1p(t))",
     "new": "1.0 + np.log1p(t)",
     "kills": ["tests/test_holder.py::test_slowly_varying_factors"]},
    # a forked child that keeps its parent's helper list, whose threads it
    # does not have, so its caller drains every block alone; killed by the
    # forked-child test
    {"name": "block-driver-without-fork-reset",
     "file": "src/orthofield/lattice.py",
     "old": "    os.register_at_fork(after_in_child=_forget_helpers)\n",
     "new": "    pass\n",
     "kills": ["tests/test_lattice.py::test_map_blocks_runs_in_a_forked_child"]},
]

# the one-site product total that exponent-fit samples, and older
# checks of the hash, the sum process and the Holder coefficients
MUTANTS += [
    # a product field's total taking every factor's end from axis 1, so a
    # one-site Gaussian product is |X_1|^d; killed by the exact product
    # law at d = 2 and 3
    {"name": "product-total-ends-from-axis-1",
     "file": "src/orthofield/generators.py",
     "old": "    ends = [p[:, -1].copy() for p in prefixes]",
     "new": "    ends = [prefixes[0][:, -1].copy() for p in prefixes]",
     "kills": ["tests/test_exact_laws.py::"
               "test_one_site_gaussian_product_total_follows_the_product_law[%d]" % d
               for d in (2, 3)]},
    # sign_pm1 keeping bit 62 instead of the top bit, which with the bits
    # of 1.0 gives 1.0 or inf; killed by the exact Rademacher laws' support
    {"name": "sign-top-bit-62",
     "file": "src/orthofield/_rng.py",
     "old": "_TOP = np.uint64(1 << 63)\n",
     "new": "_TOP = np.uint64(1 << 62)\n",
     "kills": ["tests/test_exact_laws.py::"
               "test_iid_rademacher_total_follows_the_binomial_law[float-3x5]",
               "tests/test_exact_laws.py::"
               "test_product_rademacher_stats_follow_the_walk_laws[6x6]"]},
    # W normalized by the padded lattice's volume instead of the
    # lattice's; killed by the grid oracle
    {"name": "eval-w-grid-padded-volume",
     "file": "src/orthofield/sumprocess.py",
     "old": "    total /= math.sqrt(volume(m - 1 for m in dims))\n",
     "new": "    total /= math.sqrt(volume(dims))\n",
     "kills": ["tests/test_holder.py::test_grid_seq_norms_match_callable_oracle_bit_for_bit"]},
    # a coefficient's upper parent read as its lower one, which leaves
    # c - lo; killed by the grid oracle
    {"name": "grid-peaks-hi-as-lo",
     "file": "src/orthofield/holder.py",
     "old": "        hi = (slice(None),) + tuple(slice(2, None, 2) if o else even for o in odd)\n",
     "new": "        hi = lo\n",
     "kills": ["tests/test_holder.py::test_grid_seq_norms_match_callable_oracle_bit_for_bit"]},
]
