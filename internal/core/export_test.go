package core

// EncodePolicyJSON exports the encoding/json oracle of MarshalJSON, and
// MatchOracle the deadline kernel's oracle check, to the external tests,
// which solve the service's sampled problems.
var (
	EncodePolicyJSON = encodePolicyJSON
	MatchOracle      = matchOracle
)
