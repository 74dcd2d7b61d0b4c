"""Catalogue of mutants for the mutation gate (tools/mutation_gate.py).

Each entry names a file under src/, a snippet that occurs exactly once in
it, the snippet's replacement, the test selector expected to fail on the
mutant, and what the mutant breaks.  A refactor that moves a snippet must
update its entry; a mutant that survives is a missing test, never a reason
to drop the entry.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str       # path relative to src/
    old: str        # occurs exactly once in the file
    new: str
    selector: str   # pytest arguments, split on whitespace
    reason: str


MUTANTS = [
    Mutant("orderlab/forcing.py",
           "        b = els[low.bit_length() - 1]\n        if b in domain:\n",
           "        b = low.bit_length() - 1\n        if b in domain:\n",
           "tests/test_forcing.py::test_entry_operations_match_reference_on_relabelled_grids",
           "_max_pad reads an index as an element id; the same on ids 0..n-1"),
    Mutant("orderlab/forcing.py",
           "        if fa[k] < fb[k]:\n            return p if domain is p.domain",
           "        if fa[k] <= fb[k]:\n            return p if domain is p.domain",
           "tests/test_forcing.py::test_entry_operations_match_reference_on_small_grids",
           "extend_into_E takes an equal coordinate for a strict witness"),
    Mutant("orderlab/forcing.py",
           "            if n <= p.depth and a in p._f:",
           "            if a in p._f:",
           "tests/test_forcing.py::test_generic_build_output_is_pinned",
           "generic_build skips a domain request whose depth is not met yet"),
    Mutant("orderlab/forcing.py",
           "        own = p.domain - root\n"
           "        if own & private or not root <= p.domain:\n",
           "        own = p.domain - root\n"
           "        if own & private or not root <= p.domain:\n"
           "            continue\n"
           "        if own & private or not root <= p.domain:\n",
           "tests/test_forcing.py::test_drawn_root_families_reach_every_outcome",
           "amalgamate skips its root check, so a part missing a root element "
           "fails the agreement check (as KeyError) before RootError"),
    Mutant("orderlab/forcing.py",
           "    private = frozenset()\n    deep = low = parts[0]\n",
           "    for i, p in enumerate(parts):\n"
           "        for q in parts[i + 1:]:\n"
           "            for a in root & p.domain & q.domain:\n"
           "                d = min(p.depth, q.depth)\n"
           "                if p._f[a][:d] != q._f[a][:d]:\n"
           "                    raise AgreementError(f\"parts disagree on root element {a!r}\")\n"
           "    private = frozenset()\n    deep = low = parts[0]\n",
           "tests/test_forcing.py::test_drawn_root_families_reach_every_outcome",
           "amalgamate checks agreement on the root before the domains, so a "
           "family failing both reports AgreementError instead of RootError"),
    Mutant("orderlab/forcing.py",
           "                if p._f[a][:d] != q._f[a][:d]:\n"
           "                    raise AgreementError(f\"parts disagree on root element {a!r}\")",
           "                if p._f[a][:d] != q._f[a][:d]:\n"
           "                    raise RootError(\"pairwise domain intersections differ from the root\")",
           "tests/test_forcing.py::test_drawn_root_families_reach_every_outcome",
           "amalgamate reports a disagreement on the root as a RootError"),
    Mutant("orderlab/forcing.py",
           "    if not _monotone(ground, f, root, low.depth, depth):",
           "    if not _monotone(ground, f, root, deep.depth, depth):",
           "tests/test_forcing.py::test_drawn_root_families_reach_every_outcome",
           "amalgamate never finds the deep part non-monotone on the root"),
    Mutant("orderlab/forcing.py",
           "        if a in dom and b in dom:\n",
           "        if a in f and b in f:\n",
           "tests/test_forcing.py::test_extends_matches_reference_on_small_grids",
           "extends also checks pairs that leave q's domain"),
    Mutant("orderlab/checks.py",
           "                reqs += [(\"E\", n, a, b) for a, b in pairs]\n",
           "",
           "tests/test_forcing.py::test_exhaustive_suite_case_counts",
           "the dense grid's request table leaves out the witness requests"),
    Mutant("orderlab/redprod.py",
           "zip(ab, transpose(ab))",
           "zip(ab, ab)",
           "tests/test_redprod.py tests/test_cli.py::test_chains_golden",
           "the chain search takes the forward relation for the backward one"),
    Mutant("orderlab/tiepoint.py",
           "    for u in (complement(join(td.below, td.above)), meet(td.below, td.above)):",
           "    for u in (complement(join(td.below, td.above)),):",
           "tests/test_tiepoint.py::test_probe_certificate_matches_the_literal_sweep_on_random_triples",
           "the probe certificate leaves the cells inside below & above out of B"),
    Mutant("orderlab/tiepoint.py",
           "        size += sum(1 << (d - len(w)) for w in u.antichain) - contains(u, x)",
           "        size += sum(1 << (d - len(w)) for w in u.antichain)",
           "tests/test_tiepoint.py::test_probe_certificate_matches_the_literal_sweep_on_random_triples",
           "the probe certificate counts the point's own cell in B"),
    Mutant("orderlab/tiepoint.py",
           "    return checked, checked - (checked >> size)",
           "    return checked, checked - (checked >> size + 1)",
           "tests/test_tiepoint.py::test_probe_certificate_matches_the_literal_sweep_on_every_point",
           "the probe certificate's passing count is 2^(N-2-|B|)"),
    Mutant("orderlab/fol.py",
           "            return [full ^ r for r in compile_rows(node.arg)]",
           "            return [~r for r in compile_rows(node.arg)]",
           "tests/test_fol.py",
           "pair_rows negates a row without the mask of the tuples; this one "
           "passed the golden chains digest"),
    Mutant("orderlab/posets.py",
           "    for i, row in enumerate(rows):\n        bit = 1 << i\n",
           "    for i, row in enumerate(rows):\n        if not i:\n            continue\n"
           "        bit = 1 << i\n",
           "tests/test_posets.py tests/test_fol.py",
           "transpose skips row 0"),
    Mutant("orderlab/posets.py",
           "            out.append((a, labels[low.bit_length() - 1]))",
           "            if low > 1:\n                out.append((a, labels[low.bit_length() - 1]))",
           "tests/test_posets.py tests/test_depletion.py",
           "list_pairs drops the pairs into the first label (bit 0)"),
    Mutant("orderlab/depletion.py",
           "        for levels in (s[i:], s[i::-1]):",
           "        for levels in (s[i:],):",
           "tests/test_depletion.py",
           "depletion_order sweeps only over the higher labels"),
    Mutant("orderlab/posets.py",
           "    key = (left, None if before is None else tuple(before))",
           "    key = (left, None)",
           "tests/test_posets.py",
           "the linear_extension memo forgets the forced pair"),
    Mutant("orderlab/forcing.py",
           "if any(r & ~(1 << i) != (1 << n) - (2 << i) for i, r in enumerate(rows)):",
           "if any(r != (1 << n) - (2 << i) for i, r in enumerate(rows)):",
           "tests/test_forcing.py::test_chain_rule_matches_the_pairwise_rule",
           "the chain rule counts the diagonal, refusing a formula that holds "
           "of (t, t)"),
    Mutant("orderlab/checks.py",
           "        if swept[1] or swept != certificate:",
           "        if swept[1]:",
           "tests/test_tiepoint.py::test_tie_point_suite_holds_the_certificate_to_the_literal_sweep",
           "criterion 13 stops comparing the literal sweep with the certificate"),
    Mutant("orderlab/tiepoint.py",
           "        elif not meet(u, overlap).is_empty:\n"
           "            failures.append({\"kind\": \"probe-overlap\", \"probe\": sorted(u.antichain)})\n",
           "",
           "tests/test_tiepoint.py::test_true_tie_check_fails_probes_inside_both_sides",
           "true_tie_check passes a probe inside below & above"),
    Mutant("orderlab/_kernels.py",
           "misses_x & (outside | overlap)",
           "misses_x & outside",
           "tests/test_tiepoint.py::test_probe_certificate_matches_the_literal_sweep_on_random_triples",
           "probe_sweep passes a probe inside below & above"),
    Mutant("orderlab/posets.py",
           "        outside = ~r\n        rr = r\n",
           "        outside = ~r\n        rr = r & 1\n",
           "tests/test_posets.py",
           "is_transitive tests only the successors at bit 0"),
    Mutant("orderlab/posets.py",
           "        rows[i] |= 1 << j\n",
           "        rows[j] |= 1 << i\n",
           "tests/test_posets.py",
           "load_pairs stores each pair reversed"),
    Mutant("orderlab/redprod.py",
           "        if len(mems) != 1 << (self.ground - len(core)):",
           "        if False:",
           "tests/test_redprod.py::test_filter_validation",
           "FilterFamily drops its member count, so a family that is not "
           "upward closed is accepted"),
    Mutant("orderlab/tiepoint.py",
           "(left[-1] + \"1\" * d)[:d]",
           "(left[-1] + \"0\" * d)[:d]",
           "tests/test_tiepoint.py",
           "expansion_axiom_check pads both uncovered ends with 0s"),
    Mutant("orderlab/depletion.py",
           "    rows = inst.order._rows if ascending else inst.order._down_rows()",
           "    rows = inst.order._down_rows()",
           "tests/test_depletion.py",
           "frontier_sweep takes the down rows on the way up"),
    Mutant("orderlab/depletion.py",
           "        cur = next(p for p in inst.fibers[levels[pos - 1]] if cand >> index[p] & 1)",
           "        cur = [p for p in inst.fibers[levels[pos - 1]] if cand >> index[p] & 1][-1]",
           "tests/test_depletion.py",
           "find_walk steps to the last related element in fiber order, not "
           "the first"),
    Mutant("orderlab/checks.py",
           "        except Exception as e:\n",
           "        except Exception as e:\n            raise\n",
           "tests/test_cli.py::test_check_all_reports_a_suite_that_raises",
           "run_all lets a suite's exception escape, so check-all prints a "
           "traceback and no report"),
    Mutant("orderlab/redprod.py",
           "            try:\n"
           "                combo.append(self.class_of[v])\n"
           "            except (KeyError, TypeError):  # TypeError: an id that is a list\n"
           "                raise DomainError(f\"vector {list(v)} is not in the product\") from None\n",
           "            combo.append(self.class_of[v])\n",
           "tests/test_redprod.py::test_holds_names_a_vector_outside_the_product "
           "tests/test_cli.py::test_malformed_documents_exit_two",
           "ReducedProduct.holds lets a vector outside the product escape as a "
           "bare KeyError"),
    Mutant("orderlab/schema.py",
           "    _expect(value, dict)\n",
           "",
           "tests/test_cli.py::test_malformed_documents_exit_two",
           "the schema does not test that an object is an object, so a document "
           "that is a JSON array reads as one missing its keys"),
    Mutant("orderlab/schema.py",
           "    if shape is str:\n        _expect(value, str)\n",
           "    if shape is str:\n",
           "tests/test_cli.py::test_malformed_documents_exit_two",
           "a formula that is not a string escapes as an AttributeError traceback"),
    Mutant("orderlab/schema.py",
           "\"chain\": [IDS]",
           "\"chain\": IDS",
           "tests/test_cli.py::test_forcing_pipeline_malformed_chain_factors_exit_two",
           "a chain entry that is not a list escapes as a TypeError traceback"),
    Mutant("orderlab/schema.py",
           "        if shape[0] is None:\n            return value\n",
           "        if True:\n            return value\n",
           "tests/test_cli.py::test_relation_item_that_is_not_a_tuple_exits_two",
           "the schema does not descend into list items, so a relation item "
           "that is not a tuple escapes as a TypeError traceback"),
    Mutant("orderlab/schema.py",
           "        if name in value:\n",
           "        if name == key and name in value:\n",
           "tests/test_cli.py::test_product_command_pass_and_fail",
           "the schema reads an optional key as absent, so product drops its "
           "literals and passes a failing one"),
    Mutant("orderlab/schema.py",
           "    if len(out) < len(value):",
           "    if False:",
           "tests/test_cli.py::test_a_misspelt_key_is_refused_not_skipped",
           "the schema skips a key it does not know, so a misspelt "
           "\"literals\" turns a failing product into a pass"),
    Mutant("orderlab/schema.py",
           "        walked = _walk(KINDS[shape], value)\n",
           "        walked = value\n",
           "tests/test_cli.py::test_bad_input_exits_two_with_a_named_error",
           "the schema does not follow a named kind, so a nested shape fault "
           "escapes as a traceback"),
    Mutant("orderlab/cli.py",
           "    except (OrderlabError, OSError, json.JSONDecodeError) as e:",
           "    except (OrderlabError, OSError, json.JSONDecodeError, KeyError) as e:",
           "tests/test_cli.py::test_a_library_bug_is_not_a_usage_error",
           "main reads a KeyError from a library bug as a usage error"),
    Mutant("orderlab/checks.py",
           "                for m in g_set:\n                    want[m] = backward\n",
           "",
           "tests/test_universal.py::test_universal_witness_suite_matches_member_loop",
           "criterion 3 expects no BACKWARD mark, so it fails every case with "
           "a G position"),
    Mutant("orderlab/universal.py",
           "_DIRS_UP[n // (_POW3[m] if m < 64 else 3 ** m) % 3]",
           "_DIRS_UP[n // (_POW3[m + 1] if m < 64 else 3 ** m) % 3]",
           "tests/test_universal.py::test_rel_frozen_examples",
           "rel reads the digit one position above the smaller number"),
    Mutant("orderlab/universal.py",
           "+ 2 * sum([_POW3[x] for x in gs])",
           "+ sum([_POW3[x] for x in gs])",
           "tests/test_universal.py::test_witness_frozen_examples",
           "witness weights the G positions by 1, so they point forward"),
]
