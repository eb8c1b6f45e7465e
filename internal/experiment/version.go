package experiment

// ModelVersion identifies the simulation semantics. Runs are pure functions
// of (spec, seed, ModelVersion): repetition fan-out is bit-identical to
// sequential execution, and kernel refactors keep the byte-identity
// goldens unchanged, so two executions of the same spec under the same
// ModelVersion produce the same bytes. The result cache (internal/rescache)
// folds this constant into every cache key; bump it whenever a change could
// alter any simulated output, and stale cached results become unreachable
// instead of silently wrong.
const ModelVersion = "noiselab-model-v2"
