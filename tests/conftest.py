"""Session fixtures for the documented runs that several test modules read."""

import pytest

import coefflab.cli as cli
from coefflab.functionals import DeterminantId
from coefflab.search import DOCUMENTED_SEEDS, Objective, SearchConfig, campaign


@pytest.fixture(scope="session")
def report_docs():
    """The one report the cli runs, built once for the session and rendered
    in each format; "doc" is the document before rendering."""
    args = cli.build_parser().parse_args(["report", "--all"])
    doc = args.handler(args)
    return {"doc": doc, "json": cli.render_json(doc), "csv": cli.render_csv(doc),
            "text": cli.render_text(doc)}


@pytest.fixture(scope="session")
def documented_campaigns():
    """Each documented campaign run alone by campaign, outside report's
    shared pool: label -> ((objective, config), result)."""
    runs = {}
    for label, seed in DOCUMENTED_SEEDS.items():
        det, mode = label.split("|")
        job = (Objective(DeterminantId.parse(det), mode), SearchConfig(seed=seed))
        runs[label] = (job, campaign(*job))
    return runs
