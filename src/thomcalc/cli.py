"""Command-line surface.

Every command honors --format text|json and accepts --seed; only verify
reads the seed, to draw its randomized samples.  Text mode prints
closed classes with the background symbol c_0 suppressed; JSON keeps it so
the structural invariants stay machine-checkable.  Exit codes: 0 success,
1 computation failure, 2 usage error.
"""

import functools
import json
import random
import sys

import click

from .errors import CalcError
from .multidegree import PolynomialIdeal, WeightedRing, multidegree, toric_localization_example
from .partitions import deg_qhat, dim_normal_model, dim_orbit, enumerate_admissible
from .poly import LinearForm, Polynomial, cvar, fraction_json, read_json, yvar
from .residue import ResidueProblem, iterated_residue
from .thom import (
    DEFAULT_SEED,
    QhatRegistry,
    positivity_expansion,
    thom_polynomial,
    thom_series_view,
)
from .verify import SUITES, run_suite

# Input bounds, checked before any work starts.  The cost of tp grows about
# 1.2-1.7x per codim step: tp --d 5 --codim 14 takes 1.5-2.5 s cold (16,019
# terms) and 15 about 1.6-2.3 s in process, on a two-core Xeon VM with Python
# 3.11.7.  At d = 6 (from a numerator plugin) it grows 1.5-2x per step:
# --codim 7 takes 2.0-2.2 s (7,760 terms) and 8 about 2.3-3.2 s.
# The ratio expansion grows about 1.1x per degree: positivity --d 5 --order 46
# takes 0.64-0.75 s cold (163,642 terms, 59 MiB), 47 about 0.61-0.64 s in
# process.  At d = 6 (from a numerator plugin) it grows 1.2-1.4x per degree:
# --d 6 --order 30 takes 0.72-0.83 s cold (128,444 terms, 54 MiB), 31 about
# 0.82-0.94 s and 32 about 1.0-1.2 s in process (70 MiB).  The limits date
# from when each took about 10 s.
# The order d stops at 6 in tp, positivity and partitions: partitions lists
# 21,504 sequences at depth 6 and 817,152 at depth 7, and with the one-term
# numerator plugin z_d^deg_qhat(d), tp(8, 0) takes 4 s and tp(9, 0) more
# than two minutes.
MAX_ORDER = 6
MAX_CODIM = 14
MAX_CODIM_D6 = 7
MAX_POSITIVITY_ORDER = 46
MAX_POSITIVITY_ORDER_D6 = 30


def _common(fn):
    fn = click.option(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        show_default=True,
        help="Seed for randomized checks; 0 draws fresh entropy.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", "json"]),
        default="text",
        show_default=True,
        help="Output format.",
    )(fn)
    return fn


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CalcError as err:
            raise click.ClickException(str(err))

    return wrapper


def _resolve_seed(seed: int) -> int:
    if seed == 0:
        return random.SystemRandom().randrange(1, 2**31)
    return seed


def _echo_json(obj):
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


@click.group()
def main():
    """Exact calculator for closed classes of higher-order contact loci."""


@main.command("tp")
@click.option("--d", "order", type=int, required=True, help=f"Singularity order, 1 to {MAX_ORDER}.")
@click.option(
    "--codim",
    type=int,
    required=True,
    help=f"Codimension shift parameter, 0 to {MAX_CODIM}, or 0 to {MAX_CODIM_D6} at --d 6; "
    f"--d 5 --codim {MAX_CODIM} takes about 2-3 s and --d 6 --codim {MAX_CODIM_D6} about 2 s "
    "on a two-core Xeon VM (Python 3.11.7).",
)
@click.option(
    "--basis",
    type=click.Choice(["chern", "thom-series"]),
    default="chern",
    show_default=True,
    help="Chern symbols, or the recentered series view.",
)
@click.option(
    "--qhat-file",
    type=str,
    default=None,
    help="Register a numerator plugin from a JSON file before computing.",
)
@_common
@_guard
def tp_command(order, codim, basis, qhat_file, fmt, seed):
    """Compute one closed class."""
    if not 1 <= order <= MAX_ORDER:
        raise click.BadParameter(f"--d must be between 1 and {MAX_ORDER}")
    limit = MAX_CODIM_D6 if order == 6 else MAX_CODIM
    if not 0 <= codim <= limit:
        raise click.BadParameter(f"--codim must be between 0 and {limit}")
    registry = None
    if qhat_file:
        registry = QhatRegistry()
        registry.load_file(qhat_file)
    result = thom_polynomial(order, codim, registry)
    if basis == "thom-series":
        body = thom_series_view(result)
        to_text = body.to_text
        to_json = lambda: {"d": order, "codim": codim, "polynomial": body.to_json_dict()}
    else:
        to_text, to_json = result.to_text, result.to_json_dict
    # only the chosen format is rendered: each is a pass over every term
    if fmt == "text":
        click.echo(to_text())
    else:
        _echo_json(dict(to_json(), basis=basis))


@main.command("residue")
@click.option(
    "--problem",
    "problem_path",
    type=str,
    required=True,
    help="JSON file describing the integrand.",
)
@click.option(
    "--order",
    type=int,
    default=None,
    help="Expansion-order budget; omitted means none (the result is exact).",
)
@_common
@_guard
def residue_command(problem_path, order, fmt, seed):
    """Iterated residue at infinity of a stored integrand."""
    if order is not None and order < 0:
        raise click.BadParameter("--order must be nonnegative")
    try:
        with open(problem_path) as handle:
            obj = read_json(handle.read())
        problem = ResidueProblem.from_json_dict(obj)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise click.ClickException(f"cannot read problem file {problem_path}: {err}")
    result = iterated_residue(problem, order)
    if fmt == "text":
        # same display rule as closed classes: background symbol suppressed
        shown = result.substitute({cvar(0): Polynomial.one()})
        click.echo(shown.to_text())
    else:
        _echo_json({"residue": result.to_json_dict()})


@main.command("mdeg")
@click.option(
    "--ideal-file",
    type=str,
    default=None,
    help="JSON file with generators, weights, and an optional order list naming the "
    "coordinates (it does not change the multidegree).",
)
@click.option(
    "--example",
    type=click.Choice(["toric"]),
    default=None,
    help="Run a stored worked example instead of reading a file.",
)
@_common
@_guard
def mdeg_command(ideal_file, example, fmt, seed):
    """Multidegree of a weighted polynomial ideal."""
    if (ideal_file is None) == (example is None):
        raise click.UsageError("provide exactly one of --ideal-file or --example")
    if example == "toric":
        report = toric_localization_example()
        if fmt == "text":
            click.echo(f"localization: {report.localization_sum.to_text()}")
            click.echo(f"two-term: {report.two_term_sum.to_text()}")
            click.echo(f"groebner: {report.groebner_route.to_text()}")
            click.echo(f"expected: {report.expected.to_text()}")
            click.echo(f"agree: {str(report.agree).lower()}")
        else:
            _echo_json(
                {
                    "localization": report.localization_sum.to_text(),
                    "two_term": report.two_term_sum.to_text(),
                    "groebner": report.groebner_route.to_text(),
                    "expected": report.expected.to_text(),
                    "agree": report.agree,
                }
            )
        return
    try:
        with open(ideal_file) as handle:
            obj = read_json(handle.read())
        generators = [Polynomial.from_json_dict(g) for g in obj["generators"]]
        weights = tuple(LinearForm.from_json_dict(w) for w in obj["weights"])
        order = None
        if obj.get("order"):
            order = tuple(yvar(i) for i in obj["order"])
        ideal = PolynomialIdeal.of(generators, order=order)
        ring = WeightedRing(weights=weights)
        for v in ideal.order:
            ring.weight_of(v.index)  # a coordinate without a weight is a malformed file
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise click.ClickException(f"cannot read ideal file {ideal_file}: {err}")
    result = multidegree(ideal, ring)
    if fmt == "text":
        click.echo(result.to_text())
    else:
        _echo_json({"multidegree": result.to_json_dict()})


@main.command("partitions")
@click.option(
    "--d",
    "depth",
    type=int,
    required=True,
    help=f"Sequence depth, 1 to {MAX_ORDER}.",
)
@click.option(
    "--complete-only",
    is_flag=True,
    help="Keep only sequences closed under taking sub-multisets.",
)
@_common
@_guard
def partitions_command(depth, complete_only, fmt, seed):
    """Admissible partition sequences and dimension bookkeeping."""
    if not 1 <= depth <= MAX_ORDER:
        raise click.BadParameter(f"--d must be between 1 and {MAX_ORDER}")
    sequences = enumerate_admissible(depth, complete_only=complete_only)
    if fmt == "text":
        label = "complete" if complete_only else "admissible"
        click.echo(f"depth {depth}: {len(sequences)} {label} sequences")
        for seq in sequences:
            click.echo(f"  {seq.to_text()}")
        click.echo(
            f"orbit dimension {dim_orbit(depth)}, "
            f"model dimension {dim_normal_model(depth)}, "
            f"numerator degree {deg_qhat(depth)}"
        )
    else:
        _echo_json(
            {
                "d": depth,
                "complete_only": complete_only,
                "count": len(sequences),
                "sequences": [seq.to_text() for seq in sequences],
                "orbit_dimension": dim_orbit(depth),
                "model_dimension": dim_normal_model(depth),
                "numerator_degree": deg_qhat(depth),
            }
        )


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(list(SUITES) + ["all"]),
    default="all",
    show_default=True,
)
@_common
@_guard
def verify_command(suite, fmt, seed):
    """Run a named check suite; exits 0 only when every check passes."""
    report = run_suite(suite, _resolve_seed(seed))
    if fmt == "text":
        click.echo(report.to_text())
    else:
        _echo_json(report.to_json_dict())
    if not report.all_passed:
        sys.exit(1)


@main.command("positivity")
@click.option(
    "--d",
    "order",
    type=int,
    required=True,
    help=f"Singularity order, 1 to {MAX_ORDER} (orders past 5 need a numerator plugin).",
)
@click.option(
    "--order",
    "total_order",
    type=int,
    default=12,
    show_default=True,
    help=f"Total degree bound for the ratio expansion, 0 to {MAX_POSITIVITY_ORDER}, "
    f"or 0 to {MAX_POSITIVITY_ORDER_D6} at --d 6 (either limit takes about 0.6-0.8 s).",
)
@_common
@_guard
def positivity_command(order, total_order, fmt, seed):
    """Laurent expansion of the residue fraction in ratio coordinates."""
    if not 1 <= order <= MAX_ORDER:
        raise click.BadParameter(f"--d must be between 1 and {MAX_ORDER}")
    limit = MAX_POSITIVITY_ORDER_D6 if order == 6 else MAX_POSITIVITY_ORDER
    if not 0 <= total_order <= limit:
        raise click.BadParameter(f"--order must be between 0 and {limit} at --d {order}")
    report = positivity_expansion(order, total_order)
    if fmt == "text":
        click.echo(f"order-{report.d} expansion to total degree {report.order}")
        witness = f" (witness {report.witness})" if report.witness else ""
        click.echo(f"minimum coefficient: {report.minimum}{witness}")
        click.echo(f"terms: {report.term_count}")
        click.echo(f"nonnegative: {str(report.nonnegative).lower()}")
    else:
        _echo_json(
            {
                "d": report.d,
                "order": report.order,
                "minimum": fraction_json(report.minimum),
                "witness": report.witness,
                "term_count": report.term_count,
                "nonnegative": report.nonnegative,
            }
        )


if __name__ == "__main__":
    main()
