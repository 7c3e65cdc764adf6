from hypothesis import settings

# Derandomized examples and no per-example deadline, so property tests give
# the same verdict on every run, however loaded the host.
settings.register_profile("hyqa", derandomize=True, deadline=None)
settings.load_profile("hyqa")
