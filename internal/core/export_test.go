package core

// EncodePolicyJSON exports the encoding/json oracle of MarshalJSON to the
// external tests, which solve the service's sampled problems.
var EncodePolicyJSON = encodePolicyJSON
