"""Which molfp functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each layer is named after its module.  Times are self times (a span's
duration minus its traced children) per record the call handled: one
molecule for the per-molecule functions, the rows or records of a batch
for ``cli.read_smi``, ``matrix.*`` and ``corpus.generate``.  A layer
that a workload never calls reads 0.
"""

from __future__ import annotations

from molfp import chem, cli, corpus, engine, fingerprints, matrix, similarity, smarts, smiles

from tracing import Tracer, measured_pool


def _rows(args, result):
    return result.rows


def _length(args, result):
    return len(result)


def install(tracer: Tracer) -> None:
    def matched(result):
        tracer.counts["smarts.matched"] += bool(result)

    tracer.install([
        (cli.main, "cli.main", None, None),
        (cli.read_smi, "cli.read_smi", _length, None),
        (smiles.parse_smiles, "smiles.parse", None, None),
        (chem.sanitize, "chem.sanitize", None, None),
        (chem.perceive_rings, "chem.rings", None, None),
        (engine.transform_batch, "engine.transform_batch", lambda a, r: r[1].n_input, None),
        (fingerprints.ecfp, "fingerprints.ecfp", None, None),
        (fingerprints.fcfp, "fingerprints.fcfp", None, None),
        (fingerprints.atom_pair, "fingerprints.atom_pair", None, None),
        (fingerprints.topological_torsion, "fingerprints.topological_torsion", None, None),
        (fingerprints.path_fingerprint, "fingerprints.path", None, None),
        (fingerprints.substructure_fingerprint, "fingerprints.substructure", None, None),
        (fingerprints.descriptors, "fingerprints.descriptors", None, None),
        (smarts.has_match, "smarts.has_match", None, matched),
        (matrix.from_entry_rows, "matrix.assemble", _rows, None),
        (matrix.serialize, "matrix.write", lambda a, r: a[0].rows, None),
        (matrix.deserialize, "matrix.read", _rows, None),
        (similarity.bulk_top_k, "similarity.top_k", None, None),
        (smiles.write_canonical_smiles, "smiles.canonical", None, None),
        (corpus.synthetic_smiles, "corpus.generate", _length, None),
    ])
    tracer.patch(engine, "ProcessPoolExecutor", measured_pool(tracer))


# metric -> (span name, scale from ns); per record handled
_SELF_TIME = {
    "cli.read_smi_us": ("cli.read_smi", 1e-3),
    "smiles.parse_us": ("smiles.parse", 1e-3),
    "chem.sanitize_us": ("chem.sanitize", 1e-3),
    "chem.rings_us": ("chem.rings", 1e-3),
    "fingerprints.ecfp_us": ("fingerprints.ecfp", 1e-3),
    "fingerprints.fcfp_us": ("fingerprints.fcfp", 1e-3),
    "fingerprints.atom_pair_us": ("fingerprints.atom_pair", 1e-3),
    "fingerprints.topological_torsion_us": ("fingerprints.topological_torsion", 1e-3),
    "fingerprints.path_us": ("fingerprints.path", 1e-3),
    "fingerprints.substructure_us": ("fingerprints.substructure", 1e-3),
    "fingerprints.descriptors_us": ("fingerprints.descriptors", 1e-3),
    "smarts.has_match_us": ("smarts.has_match", 1e-3),
    "matrix.assemble_us": ("matrix.assemble", 1e-3),
    "matrix.write_us": ("matrix.write", 1e-3),
    "matrix.read_us": ("matrix.read", 1e-3),
    "similarity.top_k_ms": ("similarity.top_k", 1e-6),
    "smiles.canonical_us": ("smiles.canonical", 1e-3),
    "corpus.generate_us": ("corpus.generate", 1e-3),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float], host_factor: float) -> dict[str, float]:
    """Per-layer metrics; times are divided by the host factor of the
    traced rounds, as the end-to-end ones are."""
    self_times = tracer.self_times()
    counts = tracer.counts
    out = {}
    for metric, (span, scale) in _SELF_TIME.items():
        row = self_times.get(span)
        out[metric] = _ratio(row["self_ns"], row["records"]) * scale / host_factor if row else 0.0
    substructure = self_times.get("fingerprints.substructure", {"calls": 0})
    out["smarts.keys_matched_per_mol"] = _ratio(counts["smarts.matched"], substructure["calls"])
    out["engine.pool_speedup"] = extra.get("engine.pool_speedup", 0.0)
    out["engine.result_bytes_per_mol"] = _ratio(counts["engine.result_bytes"], counts["engine.records"])
    out["engine.result_unpickle_us"] = (
        _ratio(counts["engine.result_unpickle_ns"], counts["engine.records"]) * 1e-3 / host_factor
    )
    out["matrix.text_bytes_per_mol"] = _ratio(counts["matrix.text_bytes"], counts["matrix.text_rows"])
    return out
