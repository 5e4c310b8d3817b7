// Package engine is the kind-generic solve engine behind the pricing
// service: a Spec interface every problem kind implements, a registry that
// maps kind names to Spec constructors and workload samplers, and an
// admission-controlled scheduler (bounded worker pool, bounded queue, load
// shedding) layered over the fingerprint-keyed LRU cache and singleflight
// deduplication the service has always had.
//
// The package deliberately knows nothing about HTTP or about any concrete
// problem kind: internal/kinds registers the paper's problem types,
// internal/server mounts the registry on /v1/solve/{kind}, and
// internal/bench samples load from the same registry — so adding a problem
// kind is one Spec implementation plus one registry entry, with zero
// per-kind code in the server, client, or load generator.
package engine

import (
	"context"
	"fmt"
)

// Spec is one solvable problem instance: the unit of work the engine
// schedules, fingerprints, and caches. Implementations are JSON-decodable
// wire structs (the registry's New constructor produces an empty one for
// the decoder to fill).
type Spec interface {
	// Kind is the registry name of the problem type ("deadline", "multi", …).
	Kind() string
	// Validate reports whether the instance is well formed and within
	// service limits; invalid specs are rejected before any solver work.
	Validate() error
	// Fingerprint returns the canonical cache key: the solver variant plus a
	// stable content hash of every parameter that influences the solved
	// artifact. Equal problems must map to equal fingerprints across
	// processes and runs. Fingerprinting an invalid spec is an error.
	Fingerprint() (string, error)
	// Solve computes the serialized artifact. It runs on an engine worker
	// goroutine; implementations may ignore ctx if their solvers are not
	// interruptible (the engine lets solves run to completion to warm the
	// cache even after the requester gives up).
	//
	// The artifact must be one JSON document. The engine checks it once
	// with ValidJSON, when the solve returns, and otherwise fails the call
	// with an error naming the kind and caches nothing. The server writes cached
	// artifacts into responses byte for byte, with no further check or
	// re-encode, so compact output keeps responses small.
	Solve(ctx context.Context) ([]byte, error)
}

// Tunable is a leftover: no spec implements it and the engine never calls
// it. Each solve runs serially, and the worker pool is the engine's only
// parallelism. It stays only because perfbench's traced spec still
// forwards it, and goes together with that forwarder.
type Tunable interface {
	SetSolverParallelism(workers int)
}

// KindDef is one registry entry: everything the generic layers need to
// serve and load-test a problem kind.
type KindDef struct {
	// Kind is the wire name, used in the /v1/solve/{kind} route, campaign
	// creates, and the bench mix.
	Kind string
	// New returns an empty Spec for JSON decoding. Required.
	New func() Spec
	// Sample deterministically generates a workload problem body: equal
	// (seed, size) pairs must yield identical specs. size is a bench scale
	// name ("small", "medium", "paper"); unknown sizes fall back to small.
	// Optional — kinds without a sampler are served but not load-testable.
	Sample func(seed int64, size string) Spec
}

// Registry maps kind names to definitions, preserving registration order so
// every listing (routes, metrics, bench mixes) is deterministic. Register
// all kinds before sharing a Registry across goroutines; lookups are
// read-only thereafter.
type Registry struct {
	defs  map[string]KindDef
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]KindDef)}
}

// Register adds a kind definition. Duplicate names and nil constructors are
// programming errors and panic.
func (r *Registry) Register(def KindDef) {
	if def.Kind == "" || def.New == nil {
		panic("engine: KindDef needs a Kind and a New constructor")
	}
	if _, dup := r.defs[def.Kind]; dup {
		panic(fmt.Sprintf("engine: kind %q registered twice", def.Kind))
	}
	r.defs[def.Kind] = def
	r.order = append(r.order, def.Kind)
}

// Lookup returns the definition for kind.
func (r *Registry) Lookup(kind string) (KindDef, bool) {
	def, ok := r.defs[kind]
	return def, ok
}

// Kinds lists the registered kind names in registration order.
func (r *Registry) Kinds() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}
