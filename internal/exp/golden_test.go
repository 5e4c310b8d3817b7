package exp

import (
	"bytes"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestFiguresGolden renders every experiment the way cmd/experiments does
// by default (seed 1, 200 trials) and compares the bytes with
// testdata/figures.golden, which
//
//	go run ./cmd/experiments > internal/exp/testdata/figures.golden
//
// writes. Figure 8(d)'s train-time column is wall-clock time, so it is
// masked on both sides. The other tests here check shapes and headline
// numbers within tolerances; this one fails on any reproduced number that
// moves. A change that means to move one rewrites the golden file and says
// which figures moved and why.
//
// The bytes are pinned on amd64 only. Go may fuse a multiply and an add
// into one instruction on arm64, which rounds once instead of twice, so
// the last printed digit of a figure can differ there.
func TestFiguresGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("figures.golden is pinned on amd64; Go fuses multiply-adds on %s", runtime.GOARCH)
	}
	golden, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, nil, 1, 200); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(maskTrainTime(buf.String()), "\n")
	want := strings.Split(maskTrainTime(string(golden)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("figures line %d differs from the golden file:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// trainTimeCell matches a Figure 8(d) row up to its last column, the
// wall-clock training time.
var trainTimeCell = regexp.MustCompile(`(?m)^(\d+ +[0-9.]+ +)\S+$`)

// maskTrainTime replaces every train-time cell of Figure 8(d) with "-".
func maskTrainTime(out string) string {
	const header = "interval(min)  avg-reward  train-time\n"
	i := strings.Index(out, header)
	if i < 0 {
		return out
	}
	start := i + len(header)
	end := len(out)
	if j := strings.Index(out[start:], "\n\n"); j >= 0 {
		end = start + j + 1
	}
	return out[:start] + trainTimeCell.ReplaceAllString(out[start:end], "${1}-") + out[end:]
}
