from hypothesis import settings

# One fixed-seed profile for every property test: the same examples on every
# run, and no per-example deadline on a loaded machine.
settings.register_profile("survkit", deadline=None, derandomize=True)
settings.load_profile("survkit")
