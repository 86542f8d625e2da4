"""Output checks for the four workloads, and their negative control.

An operation is one result row. A row fails when its invocation exits
non-zero, when it is missing or has an empty cell, or when a ``.warnings``
line names it. Rows that did not fail are checked against the independent
references of ``reference.py`` and against properties the method must have.

Statistical comparisons allow ``K_SE`` standard errors. The value is sized
for the whole family of comparisons over every run; see the README for the
false-failure probability per run that follows from it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from reference import COMPUTE_W, MOBILITY_W, race_reference
from workloads import (
    FIG4_FRACTIONS,
    FIG4_TX_W,
    FORKY_BLOCKS,
    FORKY_ROUNDS,
    SWEEP_BLOCKS,
    SWEEP_ROUNDS,
    Invocation,
    Workload,
)

K_SE = 8.0  # standard errors allowed in every statistical comparison
P_N_REL = 1e-8  # forkwork's stated p_n error bound (quadrature_tol) where no p_n_err is printed
CLOSED_REL = 1e-9  # closed forms: e_s, e_tm and identities between cells
UPLINK_REL = 1e-7  # e_tu against the reference integral (forkwork: quadrature_tol 1e-8)

COLUMNS = {
    "analytic": "p_n,p_n_err,e_s,e_tm,e_tu,energy_round,energy_block,seed,config_hash",
    "simulate": (
        "fork_rate,p_n,p_n_se,rounds_mean,rounds_se,energy_mean,energy_se,s_mean,"
        "tm_mean,tu_mean,system_energy_mean,capped_blocks,round_trials,block_trials,"
        "seed,config_hash"
    ),
    "sweep": (
        "param,value,p_n_analytic,p_n_sim,p_n_se,energy_analytic,energy_sim,energy_se,"
        "rounds_mean,e_s,e_tm,e_tu,seed,config_hash"
    ),
}
TEXT_COLUMNS = {"param", "config_hash"}


@dataclass
class Output:
    """What one invocation left behind."""

    returncode: int
    text: str | None  # the CSV, None if it was not written
    warnings: list[str]


@dataclass
class Grade:
    attempted: int
    failed: int
    problems: list[str]


def _normal(param: str, value: str) -> str:
    """A sweep value as the CLI prints it in warnings (str of the int or float it swept)."""
    try:
        return str(int(value) if param == "num_miners" else float(value))
    except (TypeError, ValueError):
        return str(value)


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        return [], []
    header = lines[0]
    return header, [dict(zip(header, line)) for line in lines[1:]]


def _numbers(row: dict[str, str]) -> dict:
    return {k: (v if k in TEXT_COLUMNS else float(v)) for k, v in row.items()}


def _row_key(inv: Invocation, row: dict[str, str]) -> str:
    if inv.kind == "sweep":
        return f"{row.get('param')}={_normal(row.get('param'), row.get('value'))}"
    return next(iter(inv.links))


def _close(name, got, want, rel, key):
    if not abs(got - want) <= rel * abs(want):  # NaN fails too
        return [f"{key}: {name} = {got!r}, reference {want!r} (relative tolerance {rel:g})"]
    return []


def _within(name, got, want, se, slack, key):
    """got within K_SE standard errors (plus a deterministic slack) of want."""
    if not abs(got - want) <= K_SE * se + slack:  # NaN fails too
        z = abs(got - want) / se if se > 0 else math.inf
        return [f"{key}: {name} = {got!r}, expected {want!r}: {z:.1f} SE (allowed {K_SE:g})"]
    return []


def _closed_forms(link, row, key):
    return (
        _close("e_s", row["e_s"], link.e_s(), CLOSED_REL, key)
        + _close("e_tm", row["e_tm"], link.e_tm(), CLOSED_REL, key)
        + _close("e_tu", row["e_tu"], link.e_tu(), UPLINK_REL, key)
    )


def _rounds(rounds_mean, p, blocks, key):
    """Rounds per block are geometric with mean 1/p_n."""
    se = math.sqrt((1.0 - p) / (p * p) / blocks)
    return _within("rounds_mean", rounds_mean, 1.0 / p, se, 0.0, key)


def _sweep_row(link, row, key):
    p = row["p_n_analytic"]
    problems = _closed_forms(link, row, key)
    if not 0.0 <= p <= 1.0:
        return problems + [f"{key}: p_n_analytic = {p!r} outside [0, 1]"]
    se = math.sqrt(p * (1.0 - p) / SWEEP_ROUNDS)
    problems += _within("p_n_sim", row["p_n_sim"], p, se, P_N_REL * p, key)
    problems += _within(
        "energy_sim",
        row["energy_sim"],
        row["energy_analytic"],
        row["energy_se"],
        P_N_REL * row["energy_analytic"],
        key,
    )
    problems += _rounds(row["rounds_mean"], p, SWEEP_BLOCKS, key)
    return problems


def _simulate_row(link, row, key, race):
    problems = []
    if row["round_trials"] != FORKY_ROUNDS or row["block_trials"] != FORKY_BLOCKS:
        problems.append(f"{key}: trial counts {row['round_trials']}, {row['block_trials']}")
    if row["capped_blocks"] != 0:
        problems.append(f"{key}: {row['capped_blocks']:g} blocks hit the round cap")
    problems += _close("fork_rate + p_n", row["fork_rate"] + row["p_n"], 1.0, CLOSED_REL, key)
    n = row["round_trials"]
    # the winner's compute time is exponential, its relocations geometric
    problems += _within("s_mean", row["s_mean"], link.e_s(), link.e_s() / math.sqrt(n), 0.0, key)
    problems += _within("tm_mean", row["tm_mean"], link.e_tm(), link.sd_tm() / math.sqrt(n), 0.0, key)
    tu_mean, tu_sd = link.uplink_moments()
    problems += _within("tu_mean", row["tu_mean"], tu_mean, tu_sd / math.sqrt(n), 0.0, key)
    ref = race[link.key()]
    p_ref = ref["p_n"]
    se = math.sqrt(p_ref * (1.0 - p_ref) / n + ref["se"] ** 2)
    problems += _within("p_n (race reference)", row["p_n"], p_ref, se, 0.0, key)
    se_rounds = math.hypot(row["rounds_se"], ref["se"] / p_ref**2)
    problems += _within("rounds_mean", row["rounds_mean"], 1.0 / p_ref, se_rounds, 0.0, key)
    # Wald's identities: block energy - round energy x rounds has mean 0 and
    # variance E[rounds] Var(round energy), per block
    wald = link.round_energy() * row["rounds_mean"]
    se_wald = link.round_energy_sd() * math.sqrt(row["rounds_mean"] / row["block_trials"])
    problems += _within("energy_mean (Wald)", row["energy_mean"], wald, se_wald, 0.0, key)
    return problems


def _analytic_row(link, row, key, race):
    p, err = row["p_n"], row["p_n_err"]
    problems = _closed_forms(link, row, key)
    if not (0.0 <= err <= P_N_REL * p):
        problems.append(f"{key}: p_n_err = {err!r} is not within [0, {P_N_REL:g} p_n]")
    ref = race[link.key()]
    problems += _within("p_n (race reference)", p, ref["p_n"], ref["se"], err, key)
    own = COMPUTE_W * row["e_s"] + MOBILITY_W * row["e_tm"] + link.tx_w * row["e_tu"]
    problems += _close("energy_round", row["energy_round"], own, CLOSED_REL, key)
    problems += _close("energy_round", row["energy_round"], link.round_energy(), UPLINK_REL, key)
    problems += _close("energy_block", row["energy_block"], row["energy_round"] / p, CLOSED_REL, key)
    return problems


def _fig2(good):
    problems = []
    by_miners = {link.miners: row for _, key, link, row in good}
    one = by_miners.get(1)
    if one is not None and (one["p_n_analytic"] != 1.0 or one["p_n_sim"] != 1.0):
        problems.append(f"fig2: p_n at I=1 is {one['p_n_analytic']!r} / {one['p_n_sim']!r}, not 1")
    counts = sorted(by_miners)
    for a, b in zip(counts, counts[1:]):
        pa, pb = by_miners[a]["p_n_analytic"], by_miners[b]["p_n_analytic"]
        if pb > pa + P_N_REL * pa:
            problems.append(f"fig2: p_n rises from I={a} ({pa!r}) to I={b} ({pb!r})")
    if 1 in by_miners and 20 in by_miners:
        ratio = by_miners[20]["energy_analytic"] / by_miners[1]["energy_analytic"]
        if ratio > 0.10:
            problems.append(f"fig2: energy ratio I=20 / I=1 is {ratio:.4f} > 0.10")
    return problems


def _fig4(good):
    problems = []
    energy = {(link.tx_w, key.split("=")[1]): row["energy_analytic"] for _, key, link, row in good}
    for tx in FIG4_TX_W:
        series = [(q, energy.get((tx, f"{q:g}"))) for q in FIG4_FRACTIONS]
        series = [(q, e) for q, e in series if e is not None]
        for (qa, ea), (qb, eb) in zip(series, series[1:]):
            if eb < ea * (1.0 - P_N_REL):
                problems.append(f"fig4: energy falls at tx {tx} W from q={qa} ({ea!r}) to q={qb} ({eb!r})")
    return problems


def _point_queries(good):
    problems = []
    groups: dict[tuple, list] = {}
    for _, _, link, row in good:
        groups.setdefault((link.tx_w, link.thr_db), []).append((link.miners, row["p_n"]))
    for (tx, thr_db), series in groups.items():
        series.sort()
        for (ia, pa), (ib, pb) in zip(series, series[1:]):
            if pb > pa + P_N_REL * pa:
                problems.append(f"point_queries: p_n rises from I={ia} to I={ib} at tx {tx} W")
    return problems


PROPERTIES = {"fig2": _fig2, "fig4": _fig4, "forky_sim": lambda good: [], "point_queries": _point_queries}


def grade(workload: Workload, outputs: list[Output]) -> Grade:
    """Count attempted and failed operations and check every row that did not fail."""
    race = race_reference()
    attempted = failed = 0
    problems: list[str] = []
    good = []  # (invocation, row key, link, numeric row)
    for inv, out in zip(workload.invocations, outputs):
        attempted += len(inv.links)
        if out.returncode != 0 or out.text is None:
            failed += len(inv.links)
            continue
        header, rows = parse_csv(out.text)
        if ",".join(header) != COLUMNS[inv.kind]:
            problems.append(f"{inv.out.name}: unexpected header {','.join(header)!r}")
            failed += len(inv.links)
            continue
        by_key = {_row_key(inv, row): row for row in rows}
        if len(by_key) != len(rows) or not set(by_key) <= set(inv.links):
            problems.append(f"{inv.out.name}: rows {sorted(by_key)} do not match the input")
        warned = {line.split(": ", 1)[0] for line in out.warnings if line.strip()}
        for key, link in inv.links.items():
            row = by_key.get(key)
            named = key in warned if inv.kind == "sweep" else bool(warned)
            if row is None or named or len(row) != len(header) or "" in row.values():
                failed += 1
                continue
            row = _numbers(row)
            if inv.seed is not None and row["seed"] != inv.seed:
                problems.append(f"{key}: seed {row['seed']:g} is not the config's {inv.seed}")
            if inv.kind == "sweep":
                problems += _sweep_row(link, row, key)
            elif inv.kind == "simulate":
                problems += _simulate_row(link, row, key, race)
            else:
                problems += _analytic_row(link, row, key, race)
            good.append((inv, key, link, row))
    problems += PROPERTIES[workload.name](good)
    return Grade(attempted, failed, problems)


# --- negative control --------------------------------------------------------


def _rewrite(text: str, edit) -> str:
    header, rows = parse_csv(text)
    rows = edit(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[row[h] for h in header] for row in rows])
    return buf.getvalue()


def _away(value: float, centre: float) -> float:
    return 1.0 if value >= centre else -1.0


def _shift_p_n(inv: Invocation, race):
    """Move the p_n under test 10 standard errors away from what it is compared with."""

    def edit(rows):
        for row in rows:
            if inv.kind == "sweep":
                p, se = float(row["p_n_sim"]), float(row["p_n_se"])
                row["p_n_sim"] = repr(p + 10.0 * se * _away(p, float(row["p_n_analytic"])))
            else:
                ref = race[next(iter(inv.links.values())).key()]
                p = float(row["p_n"])
                se = float(row["p_n_se"]) if inv.kind == "simulate" else ref["se"]
                row["p_n"] = repr(p + 10.0 * se * _away(p, ref["p_n"]))
                if inv.kind == "simulate":
                    row["fork_rate"] = repr(1.0 - float(row["p_n"]))
        return rows

    return edit


def _blank_first(rows):
    if rows:
        key = "p_n_analytic" if "p_n_analytic" in rows[0] else "p_n"
        rows[0][key] = ""
    return rows


def doctored(workload: Workload, outputs: list[Output]):
    """(label, outputs) for each doctored table the checker must reject."""
    race = race_reference()
    shifted = [
        Output(o.returncode, _rewrite(o.text, _shift_p_n(inv, race)), o.warnings)
        for inv, o in zip(workload.invocations, outputs)
    ]
    first = outputs[0]
    dropped = Output(first.returncode, _rewrite(first.text, lambda rows: rows[:-1]), first.warnings)
    blanked = Output(first.returncode, _rewrite(first.text, _blank_first), first.warnings)
    yield "p_n shifted by 10 SE", shifted
    yield "a dropped row", [dropped] + outputs[1:]
    yield "an empty cell", [blanked] + outputs[1:]


def negative_control(workload: Workload, outputs: list[Output]) -> list[str]:
    """The doctorings the checker failed to reject (empty when it works)."""
    if any(o.returncode != 0 or o.text is None for o in outputs):
        return []
    missed = []
    for label, table in doctored(workload, outputs):
        result = grade(workload, table)
        if result.failed == 0 and not result.problems:
            missed.append(label)
    return missed
