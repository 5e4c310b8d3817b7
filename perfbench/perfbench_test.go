package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// tinyOps keeps every workload's replay to a second or two.
var tinyOps = map[string]int{solveWarm: 6, solveCold: 3, campaignLive: 80}

// TestInputsDeterministic generates each workload's inputs twice from one
// seed and once from another: equal seeds give equal input-sequence
// hashes, different seeds different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, tinyOps[w])
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, tinyOps[w])
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, tinyOps[w])
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: two generations from seed 7 hash %s and %s", w, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
}

// TestWorkloadsTiny runs every workload end to end at a tiny op count:
// no op may fail, and the run must report the bounded end-to-end metrics
// and, on its details line, the two unbounded ones.
func TestWorkloadsTiny(t *testing.T) {
	want := []string{"alloc_kb_per_op", "op_p50_ms", "rss_peak_mb", "setup_s"}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			in, err := generate(w, 7, tinyOps[w])
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: w, seed: 7, seconds: 1, ops: tinyOps[w], reps: 2, out: t.TempDir()}
			res, details, err := runPlain(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != tinyOps[w] {
				t.Fatalf("result %+v, first error %v", res, details["first_error"])
			}
			if details["input_sha256"] != in.hash {
				t.Errorf("run replayed inputs %v, generated %s", details["input_sha256"], in.hash)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			unbounded, _ := details["unbounded"].(map[string]metric)
			for _, name := range []string{"op_p90_ms", "ops_s"} {
				if !(unbounded[name].Value > 0) {
					t.Errorf("details carry %s = %v, want a positive measurement", name, unbounded[name])
				}
			}
		})
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 25, 20, 30, 5}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestTracedRunReportsEveryLayer builds the benchmark and runs the traced
// run of every workload at a tiny op count: it must be correct and print
// exactly the per-layer metrics BENCHMARK.json lists.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range bench.PerLayer {
		units[m.Name] = m.Unit
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			// A one-second campaign-live run replaces every session at
			// least once, so the create and finish spans exist. The run's
			// files go under the temporary directory.
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
			cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("result %+v\n%s", res, lines[0])
			}
			for name, unit := range units {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("missing per-layer metric %s", name)
				} else if m.Unit != unit {
					t.Errorf("%s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("metric %s is not listed in BENCHMARK.json", name)
				}
			}
		})
	}
}
