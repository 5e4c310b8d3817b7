package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"crowdpricing/internal/bench"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// Workload names, as passed to --workload.
const (
	solveWarm    = "solve-warm"
	solveCold    = "solve-cold"
	campaignLive = "campaign-live"
)

var workloadNames = []string{solveWarm, solveCold, campaignLive}

// opsPerSecond sizes each workload's fixed op sequence: a run replays
// round(seconds × rate) ops, so equal --seconds replay identical sequences
// on every commit (same cache contents, WAL size and memory), while the
// timed phase lasts about --seconds on a 2-core x86 box.
var opsPerSecond = map[string]float64{
	solveWarm:    130,
	solveCold:    60,
	campaignLive: 6500,
}

// warmProblems is solve-warm's working set: 32 paper-scale artifacts of
// ~300 KB fit the engine's 1024-entry cache many times over, so every
// timed request is a hit.
const warmProblems = 32

// coldSample is how many solve-cold responses are re-solved through the
// kinds spec after timing and compared byte for byte.
const coldSample = 3

// sessionSteps is a campaign session's length in steps. A session is then
// replaced (finish + create), so about one op in 32 carries the
// replacement: rare enough that op_p90_ms stays in the step mode.
const sessionSteps = 32

// slot is one standing campaign of campaign-live: its kind and whether it
// runs the §5.2.5 adaptive controller.
type slot struct {
	kind     string
	adaptive bool
}

// liveSlots is campaign-live's standing population. Every (kind, problem)
// is held by at least two campaigns, so the replacement create of one
// always finds its problem interned by the other.
var liveSlots = []slot{
	{kinds.KindDeadline, false}, {kinds.KindDeadline, false},
	{kinds.KindDeadline, false}, {kinds.KindDeadline, false},
	{kinds.KindDeadline, true}, {kinds.KindDeadline, true},
	{kinds.KindTradeoff, false}, {kinds.KindTradeoff, false},
	{kinds.KindMulti, false}, {kinds.KindMulti, false},
}

// script is one campaign session's observation sequence: the worker
// arrivals reported at each step and the share of each type's remaining
// tasks completed.
type script struct {
	Arrivals []float64 `json:"arrivals"`
	Shares   []float64 `json:"shares"`
}

// inputs is everything a workload run sends, generated from the seed
// alone. The program under test sees only these inputs.
type inputs struct {
	workload string
	seed     int64
	ops      int

	// Solve workloads: the deadline problems, and for solve-warm the
	// problem each op requests. solve-cold requests problems[i] at op i
	// and re-solves the ops in sample after timing.
	problems []*kinds.DeadlineRequest
	order    []int
	sample   []int

	// campaign-live: one paper-scale problem per kind, per-kind session
	// scripts (used in turn, cycling), and the slot each op steps.
	specs   map[string]engine.Spec
	scripts map[string][]script

	// hash is the SHA-256 of the whole input sequence.
	hash string
}

// opsFor returns the op count a run of seconds replays.
func opsFor(workload string, seconds int) int {
	return int(math.Round(float64(seconds) * opsPerSecond[workload]))
}

// generate builds the seeded inputs of one workload run.
func generate(workload string, seed int64, ops int) (*inputs, error) {
	if ops < 1 {
		return nil, fmt.Errorf("op count %d: need at least one op", ops)
	}
	in := &inputs{workload: workload, seed: seed, ops: ops}
	r := dist.NewRNG(seed)
	switch workload {
	case solveWarm:
		in.problems = deadlineProblems(seed, warmProblems)
		in.order = make([]int, ops)
		for i := range in.order {
			in.order[i] = r.Intn(warmProblems)
		}
	case solveCold:
		in.problems = deadlineProblems(seed, ops)
		for len(in.sample) < min(coldSample, ops) {
			if i := r.Intn(ops); !slices.Contains(in.sample, i) {
				in.sample = append(in.sample, i)
			}
		}
	case campaignLive:
		if err := in.generateLive(r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	hash, err := in.digest()
	if err != nil {
		return nil, err
	}
	in.hash = hash
	return in, nil
}

// deadlineProblems draws n distinct paper-scale deadline problems (N=200,
// 72 intervals) from the kinds sampler.
func deadlineProblems(seed int64, n int) []*kinds.DeadlineRequest {
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	out := make([]*kinds.DeadlineRequest, n)
	for i := range out {
		out[i] = def.Sample(seed*1_000_003+int64(i)*7_919+1, string(bench.SizePaper)).(*kinds.DeadlineRequest)
	}
	return out
}

// generateLive draws campaign-live's problems and session scripts from
// internal/bench's campaign scenario: with cardinality 1 every session of
// a kind shares that kind's paper-scale problem, and each session carries
// its seeded observe script.
func (in *inputs) generateLive(r *dist.RNG) error {
	in.order = make([]int, in.ops)
	for i := range in.order {
		in.order[i] = r.Intn(len(liveSlots))
	}
	// Sessions needed: one per slot up front plus one replacement per
	// sessionSteps ops; the schedule's Poisson count gets a margin, and
	// scripts cycle if a kind still runs short.
	sessions := in.ops/sessionSteps + len(liveSlots)
	sched, err := bench.GenerateSchedule(bench.Config{
		Seed:          in.seed,
		Rate:          1,
		Duration:      time.Duration(sessions+sessions/4+20) * time.Second,
		Mix:           bench.Mix{kinds.KindDeadline: 0.6, kinds.KindTradeoff: 0.2, kinds.KindMulti: 0.2},
		Cardinality:   1,
		Size:          bench.SizePaper,
		Scenario:      bench.ScenarioCampaign,
		CampaignSteps: sessionSteps,
	})
	if err != nil {
		return err
	}
	in.specs = make(map[string]engine.Spec)
	in.scripts = make(map[string][]script)
	for _, req := range sched.Requests {
		in.specs[req.Kind] = req.Spec
		in.scripts[req.Kind] = append(in.scripts[req.Kind], script{Arrivals: req.StepArrivals, Shares: req.StepShares})
	}
	for _, s := range liveSlots {
		if len(in.scripts[s.kind]) == 0 {
			return fmt.Errorf("campaign schedule drew no %s session", s.kind)
		}
	}
	return nil
}

// digest hashes the input sequence: problem bodies, op order, samples and
// scripts, in a fixed order.
func (in *inputs) digest() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/%d\n", in.workload, in.seed, in.ops)
	enc := json.NewEncoder(h)
	for _, p := range in.problems {
		if err := enc.Encode(p); err != nil {
			return "", err
		}
	}
	var buf [8]byte
	for _, list := range [][]int{in.order, in.sample} {
		for _, v := range list {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	for _, kind := range []string{kinds.KindDeadline, kinds.KindTradeoff, kinds.KindMulti} {
		if spec, ok := in.specs[kind]; ok {
			if err := enc.Encode(spec); err != nil {
				return "", err
			}
		}
		if err := enc.Encode(in.scripts[kind]); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
