from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# ten times deeper, for the ladder and bilinear oracles: --hypothesis-profile=deep
settings.register_profile("deep", parent=settings.get_profile("exact"), max_examples=600)
settings.load_profile("exact")
