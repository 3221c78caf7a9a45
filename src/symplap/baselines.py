"""Frozen empirical baselines.

The structural estimates assert existence of constants without giving values.
The numbers here were measured once on the seeded corpora (the measurement
helpers live next to the quantities they describe: see
``tensor_models.measure_assumption_bands`` and ``verify.calibrate_constants``)
and are asserted as regression baselines ever since.  Regenerate only after a
deliberate change to the sampling or the discrete conventions.
"""

# Equivalence / monotonicity bands per (model, p, mu): min/max of the two
# pairing ratios and the max Lipschitz ratio over 10^4 seeded pairs
# (seed 20240601, |P|,|Q| <= 10), padded by 1% on each side.
TENSOR_BANDS = {
    ('A1', 2.0, 0.1): dict(r1_min=0.9899999999999994, r1_max=1.0100000000000013, r2_min=0.9899999999999989, r2_max=1.0100000000000013, lip_max=1.0100000000000013),
    ('A1', 2.0, 1.0): dict(r1_min=0.99, r1_max=1.01, r2_min=0.9899999999999984, r2_max=1.0100000000000007, lip_max=1.01),
    ('A1', 2.5, 0.1): dict(r1_min=0.47442507225551994, r1_max=0.7182159510374136, r2_min=0.9540765902700573, r2_max=1.0263884072890541, lip_max=0.7182364381204238),
    ('A1', 2.5, 1.0): dict(r1_min=0.5349424807791932, r1_max=0.8414750867862699, r2_min=0.9670689016348987, r2_max=1.0187102041102711, lip_max=0.8421604713632997),
    ('A1', 3.0, 0.1): dict(r1_min=0.24937680294748038, r1_max=0.5404992246541457, r2_min=0.8852780547354534, r2_max=1.058864644408902, lip_max=0.5405397797840387),
    ('A1', 3.0, 1.0): dict(r1_min=0.2658285601250903, r1_max=0.804321603056186, r2_min=0.8996388065610758, r2_max=1.0461726641659, lip_max=0.8043583290792875),
    ('A1', 4.0, 0.1): dict(r1_min=0.08257987546240844, r1_max=0.5069041497836647, r2_min=0.7490455487802468, r2_max=1.1338023729317228, lip_max=0.5070021055048904),
    ('A1', 4.0, 1.0): dict(r1_min=0.08327661594522762, r1_max=0.898972835629389, r2_min=0.7525629947234121, r2_max=1.126901925039932, lip_max=0.89897552597095),
    ('A2', 2.0, 0.1): dict(r1_min=0.99, r1_max=1.0100000000000002, r2_min=0.99, r2_max=1.01, lip_max=1.0100000000000002),
    ('A2', 2.0, 1.0): dict(r1_min=0.99, r1_max=1.0100000000000002, r2_min=0.99, r2_max=1.01, lip_max=1.0100000000000002),
    ('A2', 2.5, 0.1): dict(r1_min=0.4668218808869294, r1_max=0.8263766061318053, r2_min=0.9519679639223594, r2_max=1.0274490668601597, lip_max=0.826388016222358),
    ('A2', 2.5, 1.0): dict(r1_min=0.4679827490454405, r1_max=0.9801877320078914, r2_min=0.9529603153121204, r2_max=1.025025045747312, lip_max=0.9801879181163999),
    ('A2', 3.0, 0.1): dict(r1_min=0.24762933562162492, r1_max=0.691201841925049, r2_min=0.8837072717034326, r2_max=1.0601573269249693, lip_max=0.6912383680224155),
    ('A2', 3.0, 1.0): dict(r1_min=0.24876712726634673, r1_max=0.9518101428520122, r2_min=0.8857734819218239, r2_max=1.0553534963130942, lip_max=0.9518108621330906),
    ('A2', 4.0, 0.1): dict(r1_min=0.08257987546240844, r1_max=0.5069041497836647, r2_min=0.7490455487802468, r2_max=1.1338023729317228, lip_max=0.5070021055048904),
    ('A2', 4.0, 1.0): dict(r1_min=0.08327661594522762, r1_max=0.898972835629389, r2_min=0.7525629947234121, r2_max=1.126901925039932, lip_max=0.89897552597095),
}

# Multiplicative constants of the calibrated inequality checks (the explicit
# structural factors are applied verbatim on top of these), measured over the
# calibration corpus ``corpus.build_corpus(CORPUS_SIZE, CORPUS_SEED)``, each
# function sampled at CORPUS_SAMPLES points of [0, 1], and padded by 5%
# (``CALIBRATION_HEADROOM``, which ``verify.calibrate_constants`` applies).
# The corpus constants are the defaults of ``build_corpus``, ``run_matrix``,
# ``calibrate_constants`` and ``symplap verify-inequalities``.
CORPUS_SIZE, CORPUS_SEED, CORPUS_SAMPLES = 100, 1234, 1025
CALIBRATION_HEADROOM = 1.05
INEQUALITY_CONSTANTS = {
    "ACCESSION": 0.0025883872037866765,
    "INTERPOLATION": 1.1344288971454894,
    "EMBED_SOBOLEV": 0.009358146412369442,
    "EMBED_NIK": 1.9136762569581315e-17,
}

# Ball estimate: observed lhs/rhs constants for the analyzer's stationary
# check on smooth-data runs (max observed 0.105 at n = 64), padded by 50%.
CACCIOPPOLI_CONSTANT = 0.16

# Empirical exponents kappa of the interior seminorm bound, recorded per
# acceptance configuration (n = 64, T = 2, dt = 1/200), asserted within +-25%.
KAPPA_BASELINES = {
    2.0: 1.066225,
    3.0: 1.564032,
}

# Newton iteration ceiling for a single implicit step from smooth data at
# n = 32, dt = 1e-3, p = 3 (empirical; the stepper itself allows up to 50).
NEWTON_ITER_BASELINE = 10
