"""Session-wide pytest hooks."""

import os


def pytest_report_header(config):
    # hypothesis picks some examples from sets whose order follows string hashing, so
    # PYTHONHASHSEED is what replays a run
    return f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', '(unset: random)')}"
