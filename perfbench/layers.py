"""Per-layer metrics from recorded spans (layer = lsalab module).

A span's exclusive time is its duration minus the durations of its direct
children, so summing exclusive times over the spans inside ``experiments.run``
gives that call's duration exactly, and a layer whose functions call each
other (``spectral_profile`` calling ``solve_lyapunov``) is counted once.
Busy time of a group of functions counts only the outermost span of the
group, for the same reason.
"""

from __future__ import annotations

import statistics

from spans import ERR_BLOWUP, ERR_RESIDUAL, LAYERS, load

RUN_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")

_STEPPING = (
    "engine.run_trajectory", "engine.run_decomposed", "engine.product",
    "engine.final_errors", "engine.mc_norm_moment", "engine.coupled_w2",
)
# Computed floating-point operations per trajectory step at dimension d:
# matrix-vector products cost 2 d^2, matrix-matrix products 2 d^3.
_FLOPS_PER_STEP = {
    "engine.run_trajectory": lambda d: 2 * d * d,
    "engine.run_decomposed": lambda d: 7 * 2 * d * d,
    "engine.product": lambda d: 2 * d**3,
    "engine.final_errors": lambda d: 2 * d * d,
    "engine.mc_norm_moment": lambda d: 2 * d**3,
    "engine.coupled_w2": lambda d: 2 * d * d,
}
# Config handling the CLI does before it calls experiments.run.
_CLI_CONFIG = ("experiments.config_from_dict", "experiments.resolve", "experiments.validate")
# Busy time (outermost spans only) of each group of functions.
_BUSY = {
    "experiments.validate_s": ("experiments.validate",),
    "experiments.emit_s": ("experiments.write_outputs",),
    "rng.stream_s": ("rng.stream",),
    "rng.draw_s": ("rng.uniform_open01", "rng.normal_inverse_cdf", "rng.rademacher",
                   "rng.categorical"),
    "noise.exact_cov_s": ("noise.exact_stationary_cov",),
    "engine.run_decomposed_s": ("engine.run_decomposed",),
    "engine.final_errors_s": ("engine.final_errors",),
    "engine.mc_norm_moment_s": ("engine.mc_norm_moment",),
    "engine.coupled_w2_s": ("engine.coupled_w2",),
    "engine.oracle_s": ("engine.coupled_exact_sq", "engine.rademacher_exact_moment",
                        "engine.rademacher_exact_tail", "engine.cov_j0"),
    "linalg.solve_s": ("linalg.solve_lyapunov", "linalg.solve_sigma", "linalg.solve_riccati"),
    "linalg.norm_s": ("linalg.spectral_norm", "linalg.q_norm_mat", "linalg.q_norm_vec",
                      "linalg.schatten_norm"),
}
_COUNTED = {
    "experiments.validate_calls": ("experiments.validate",),
    "rng.streams": ("rng.stream",),
    "noise.sample_path_calls": ("noise.sample_path",),
    "noise.kernel_calls": ("noise.second_moment_kernel",),
    "noise.exact_cov_calls": ("noise.exact_stationary_cov",),
    "linalg.solve_calls": _BUSY["linalg.solve_s"],
    "linalg.norm_calls": _BUSY["linalg.norm_s"],
    "linalg.profile_calls": ("linalg.spectral_profile",),
}
_MODEL_BUILDERS = (
    "noise.biased_rademacher_model", "noise.rademacher_gaussian_model",
    "noise.bounded_factor_model", "noise.td_zero_model",
)


def analyze(prefix: str) -> dict:
    """Raw per-layer sums of one invocation's spans.

    Times are in seconds.  The returned dict also carries the lists that
    percentiles are taken over (``unit_s``, ``solve_d8_s``) and totals
    that only feed derived metrics (unprefixed keys such as ``run_s``, the
    traced duration of ``experiments.run``).
    """
    names, arrays, meter_errors = load(prefix)
    start, end, parent, name_ids = arrays["start"], arrays["end"], arrays["parent"], arrays["name"]
    work, dims, errs = arrays["work"], arrays["dim"], arrays["err"]
    count = len(start)
    layer_of = [n.split(".", 1)[0] for n in names]
    dur = [end[i] - start[i] for i in range(count)]
    child_sum = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_sum[p] += dur[i]

    run_id = names.index("experiments.run")
    main_id = names.index("cli.main")
    in_run = [False] * count
    for i in range(count):
        p = parent[i]
        in_run[i] = name_ids[i] == run_id or (p >= 0 and in_run[p])

    out: dict = {f"{layer}.self_s": 0.0 for layer in RUN_LAYERS}
    calls = [0] * len(names)
    for i in range(count):
        calls[name_ids[i]] += 1
        if in_run[i]:
            out[f"{layer_of[name_ids[i]]}.self_s"] += dur[i] - child_sum[i]
    by_name = dict(zip(names, calls))
    out["run_s"] = sum(dur[i] for i in range(count) if name_ids[i] == run_id)
    out["spans"] = count
    out["meter_errors"] = meter_errors

    def outermost(members: tuple[str, ...]) -> list[int]:
        ids = {names.index(m) for m in members if m in names}
        inside = [False] * count
        top = []
        for i in range(count):
            mine = name_ids[i] in ids
            p = parent[i]
            above = p >= 0 and inside[p]
            inside[i] = mine or above
            if mine and not above:
                top.append(i)
        return top

    for metric, members in _BUSY.items():
        out[metric] = sum(dur[i] for i in outermost(members))
    for metric, members in _COUNTED.items():
        out[metric] = sum(by_name.get(m, 0) for m in members)
    out["noise.model_builds"] = sum(by_name.get(m, 0) for m in _MODEL_BUILDERS)
    for layer in ("bounds", "rosenthal"):
        members = tuple(n for n in names if n.startswith(layer + "."))
        out[f"{layer}.calls"] = sum(by_name[n] for n in members)
        out[f"{layer}.s"] = sum(dur[i] for i in outermost(members))

    cli_config = {names.index(m) for m in _CLI_CONFIG}
    out["cli.config_s"] = sum(
        dur[i] for i in range(count)
        if name_ids[i] in cli_config and parent[i] >= 0 and name_ids[parent[i]] == main_id
    )
    unit_ids = outermost(("experiments.run_unit",))
    out["unit_s"] = [dur[i] for i in unit_ids]
    out["run_unit_s"] = sum(out["unit_s"])
    out["experiments.units"] = len(unit_ids)
    out["rows"] = int(sum(work[i] for i in unit_ids))
    out["experiments.unit_self_s"] = sum(dur[i] - child_sum[i] for i in unit_ids)
    out["experiments.emit_bytes"] = int(
        sum(work[i] for i in outermost(_BUSY["experiments.emit_s"]))
    )

    sample_id = names.index("noise.sample_path")
    out["noise.sample_path_self_s"] = sum(
        dur[i] - child_sum[i] for i in range(count) if name_ids[i] == sample_id
    )
    uniform_id = names.index("rng.uniform_open01")
    out["rng.words"] = int(sum(work[i] for i in range(count) if name_ids[i] == uniform_id))

    stepping = outermost(_STEPPING)
    out["stepping_s"] = sum(dur[i] for i in stepping)
    out["engine.traj_steps"] = sum(int(work[i]) for i in stepping)
    out["engine.flops_computed"] = sum(
        int(work[i]) * _FLOPS_PER_STEP[names[name_ids[i]]](dims[i]) for i in stepping
    )

    solve_ids = {names.index(m) for m in _BUSY["linalg.solve_s"]}
    out["solve_d8_s"] = [
        dur[i] for i in range(count) if name_ids[i] in solve_ids and dims[i] == 8
    ]
    out["engine.blowups"] = _raised(names, arrays, "engine.", ERR_BLOWUP)
    out["linalg.residual_errors"] = _raised(names, arrays, "linalg.", ERR_RESIDUAL)
    out["rosenthal.roots_missing"] = int(
        sum(work[i] for i in range(count) if names[name_ids[i]] == "rosenthal.attach_wasserstein")
    )
    return out


def _raised(names, arrays, layer_prefix: str, kind: int) -> int:
    """Exceptions of ``kind`` leaving the layer: raised by a layer span whose
    caller is outside the layer."""
    parent, name_ids, errs = arrays["parent"], arrays["name"], arrays["err"]
    in_layer = [n.startswith(layer_prefix) for n in names]
    total = 0
    for i in range(len(errs)):
        if errs[i] == kind and in_layer[name_ids[i]]:
            p = parent[i]
            if p < 0 or not in_layer[name_ids[p]]:
                total += 1
    return total


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def round_metrics(parts: list[dict]) -> dict:
    """Per-layer metrics of one traced round: the invocations' sums combined."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, list):
                total.setdefault(key, []).extend(value)
            else:
                total[key] = total.get(key, 0) + value
    unit_s = total["unit_s"]
    solve_d8 = total["solve_d8_s"]
    m = {key: value for key, value in total.items() if "." in key}
    m.update({
        "experiments.unit_ms_p50": 1e3 * _quantile(unit_s, 0.50),
        "experiments.unit_ms_p99": 1e3 * _quantile(unit_s, 0.99),
        "experiments.dispatch_s": total["run_s"] - total["run_unit_s"],
        "rng.words_per_s": _rate(total["rng.words"], total["rng.draw_s"]),
        "engine.traj_steps_per_s": _rate(total["engine.traj_steps"], total["stepping_s"]),
        "linalg.solve_ms_d8": 1e3 * statistics.median(solve_d8) if solve_d8 else 0.0,
        "bounds.calls_per_s": _rate(total["bounds.calls"], total["bounds.s"]),
        "trace.run_s": total["run_s"],
        "trace.self_sum_s": sum(total[f"{layer}.self_s"] for layer in RUN_LAYERS),
        "trace.spans": total["spans"],
    })
    order = ("cli",) + RUN_LAYERS + ("trace",)
    return dict(sorted(m.items(), key=lambda item: order.index(item[0].split(".")[0])))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
