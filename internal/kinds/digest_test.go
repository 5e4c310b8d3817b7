package kinds

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// digestSizes is the sampler size each kind's artifacts are pinned at: the
// largest that keeps TestArtifactDigestsGolden well under a second. Multi's
// paper-scale joint DP takes ~0.2 s per seed, so it is pinned at medium.
var digestSizes = map[string]string{
	KindDeadline: "paper",
	KindBudget:   "paper",
	KindTradeoff: "paper",
	KindMulti:    "medium",
}

// TestArtifactDigestsGolden pins the bytes the service serves: for seeds
// 1000-1004 of every registered kind's sampler it solves the spec and
// compares the SHA-256 of the artifact with testdata/artifact_digests.golden
// (one "kind size seed digest" line each). The paper's figures print
// rounded outcomes, so this is the check that a solver change left every
// served price and value the same bit for bit. A change that means to move
// them rewrites the file (a failure logs the recomputed one) and says why.
//
// The digests are pinned on amd64 only. Go may fuse a multiply and an add
// into one instruction on arm64, which rounds once instead of twice, so the
// last bits of a served value can differ there.
func TestArtifactDigestsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("artifact digests are pinned on amd64; Go fuses multiply-adds on %s", runtime.GOARCH)
	}
	golden, err := os.ReadFile("testdata/artifact_digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, kind := range Default().Kinds() {
		size, ok := digestSizes[kind]
		if !ok {
			t.Fatalf("kind %q has no entry in digestSizes", kind)
		}
		def, _ := Default().Lookup(kind)
		for seed := int64(1000); seed <= 1004; seed++ {
			art, err := def.Sample(seed, size).Solve(context.Background())
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", kind, size, seed, err)
			}
			fmt.Fprintf(&got, "%s %s %d %x\n", kind, size, seed, sha256.Sum256(art))
		}
	}
	if got.String() != string(golden) {
		t.Fatalf("served artifacts differ from testdata/artifact_digests.golden; recomputed file:\n%s", got.String())
	}
}
