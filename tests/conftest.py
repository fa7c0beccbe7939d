from hypothesis import settings

# Examples vary widely in run time, so no per-example deadline;
# and a failing property prints the line that reproduces it.
settings.register_profile("qkflow", deadline=None, print_blob=True)
settings.load_profile("qkflow")
