from hypothesis import settings

# Property tests run a fixed example set by default, so a tier-1 run cannot
# flake; `pytest --hypothesis-profile=ci` draws many more, at random.
settings.register_profile("tier1", max_examples=60, derandomize=True,
                          deadline=None)
settings.register_profile("ci", max_examples=1500, deadline=None,
                          print_blob=True)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption("--pull-points", type=int, default=2000,
                     help="points per scan in tests/test_pulls.py")
