import hypothesis
import pytest

from isom4.cache import ResultCache
from isom4.verify import VerifyConfig, verify_all

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")


# the small verify-all config of the session report
SMALL_CONFIG = dict(scan_max=80, batch_count=50,
                    optimizer_spot_checks=1, optimizer_restarts=4)


@pytest.fixture(scope="session")
def report_and_rerun(tmp_path_factory):
    """A small verify-all report run into an empty cache, then rerun warm."""
    cache = ResultCache(tmp_path_factory.mktemp("verify-cache"))
    cold = verify_all(VerifyConfig(**SMALL_CONFIG, cache=cache))
    warm = verify_all(VerifyConfig(**SMALL_CONFIG, cache=cache))
    return cold, warm
