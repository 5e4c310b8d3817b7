// Command wal inspects a campaign event log written by priced's -wal-dir,
// the daemon's only durable campaign state: the offline view of what a
// restart would replay (after a crash, for instance) and of the traffic it
// recorded. Every subcommand reads the log directory without modifying it
// (the daemon may still be running), stopping at a torn tail exactly where
// priced's recovery would truncate it.
//
//	wal list -dir D [-json]
//	      one line per record, or JSON lines with -json; a "snapshot"
//	      record is a compaction record folding the older history into
//	      one table. A summary goes to stderr.
//	wal verify -dir D
//	      check every frame: exit 1 if a segment is corrupt or a torn
//	      tail was found.
//	wal stats -dir D [-figures f]
//	      fold every recorded create/observe/finish into the aggregator
//	      that serves /v1/analytics live and print the fleet λ̂ re-fit,
//	      the per-interval arrival profile (the piecewise NHPP rate fit)
//	      and the per-cohort summaries as JSON. It reads the records
//	      with the pass a restart's replay runs, so it refuses a log
//	      whose records a restart would refuse and prints the analytics
//	      a daemon restarted on the log starts from. The λ̂ re-fit's
//	      trailing window is the daemon's, the last 256 observes;
//	      -figures also writes the profile as TSV (interval index, fitted
//	      rate, mean arrivals, observe count) for gnuplot/pgfplots. The
//	      output is byte-identical on every run over the same log, so
//	      recorded production traffic regenerates paper figures
//	      reproducibly.
//
// Usage errors exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wal: ")
	usage := func() {
		fmt.Fprintf(os.Stderr, "usage: wal list|verify|stats -dir DIR [flags]\n\n"+
			"Inspect a campaign event log written by priced -wal-dir; wal <command> -h lists a command's flags.\n")
		os.Exit(2)
	}
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet("wal "+cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "campaign event-log directory (required)")
	parse := func(flags string) {
		fs.Usage = func() {
			fmt.Fprintf(fs.Output(), "usage: wal %s -dir DIR %s\n\nflags:\n", cmd, flags)
			fs.PrintDefaults()
		}
		_ = fs.Parse(os.Args[2:]) // ExitOnError: a bad flag exits 2
		if *dir == "" || fs.NArg() > 0 {
			fs.Usage()
			os.Exit(2)
		}
	}
	switch cmd {
	case "list":
		asJSON := fs.Bool("json", false, "list records as JSON lines")
		parse("[-json]")
		listRecords(*dir, *asJSON)
	case "verify":
		parse("")
		verifyLog(*dir)
	case "stats":
		figures := fs.String("figures", "", `write the per-interval arrival profile as TSV ("" disables)`)
		parse("[-figures out.tsv]")
		printStats(*dir, *figures)
	default:
		usage()
	}
}

// jsonRecord is the list -json line schema.
type jsonRecord struct {
	LSN     uint64          `json:"lsn"`
	Type    string          `json:"type"`
	Segment int64           `json:"segment"`
	Offset  int64           `json:"offset"`
	Bytes   int64           `json:"bytes"`
	Body    json.RawMessage `json:"body"`
}

func listRecords(dir string, asJSON bool) {
	enc := json.NewEncoder(os.Stdout)
	report, err := wal.Scan(wal.DirFS{}, dir, func(rec wal.Record, pos wal.FramePos) error {
		name := campaign.WALRecordName(rec.Type)
		if asJSON {
			return enc.Encode(jsonRecord{
				LSN:     rec.LSN,
				Type:    name,
				Segment: pos.Segment,
				Offset:  pos.Offset,
				Bytes:   pos.End - pos.Offset,
				Body:    json.RawMessage(rec.Data),
			})
		}
		body := rec.Data
		// Snapshot payloads are whole tables; keep the listing readable.
		const maxBody = 120
		suffix := ""
		if len(body) > maxBody {
			body, suffix = body[:maxBody], fmt.Sprintf("… (%d bytes)", len(rec.Data))
		}
		_, err := fmt.Printf("lsn=%-6d %-8s seg=%d off=%-8d %s%s\n",
			rec.LSN, name, pos.Segment, pos.Offset, body, suffix)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	printSummary(report)
}

func verifyLog(dir string) {
	report, err := wal.Scan(wal.DirFS{}, dir, nil)
	if err != nil {
		log.Fatalf("CORRUPT: %v", err)
	}
	printSummary(report)
	if report.Torn != nil {
		log.Printf("TORN TAIL: recovery would truncate %s at offset %d (dropping %d byte(s)): %s",
			report.Torn.Name, report.Torn.Offset, report.Torn.Bytes, report.Torn.Reason)
		os.Exit(1)
	}
	fmt.Println("ok: every frame intact")
}

func printSummary(report *wal.ScanReport) {
	fmt.Fprintf(os.Stderr, "%d record(s) across %d segment(s), max lsn %d\n",
		report.Records, len(report.Segments), report.MaxLSN)
	if report.Torn != nil {
		fmt.Fprintf(os.Stderr, "torn tail in %s: %d byte(s) past offset %d not replayed\n",
			report.Torn.Name, report.Torn.Bytes, report.Torn.Offset)
	}
}

func printStats(dir, figures string) {
	// The daemon's window (analytics.DefaultWindow), so the fold prints
	// the λ̂ a daemon restarted on this log starts from.
	agg := analytics.New(0)
	if err := campaign.FoldWAL(wal.NewReader(nil, dir), agg); err != nil {
		log.Fatal(err)
	}
	snap := agg.Snapshot()
	// encoding/json marshals map keys sorted, so the output is
	// byte-identical across runs over the same log by construction.
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", out)
	if figures != "" {
		if err := writeFigures(figures, snap); err != nil {
			log.Fatal(err)
		}
	}
}

// writeFigures renders the λ̂_t profile — the piecewise arrival-rate fit
// over interval index — as a TSV plotting tools consume directly.
func writeFigures(path string, snap *analytics.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "# interval\tlambda_hat\tmean_arrivals\tobserves")
	r := snap.Rate()
	for i, mean := range snap.IntervalMeans {
		fitted := 0.0
		if r != nil {
			fitted = r.Rate(float64(i) + 0.5)
		}
		fmt.Fprintf(f, "%d\t%g\t%g\t%d\n", i, fitted, mean, snap.IntervalObserves[i])
	}
	return f.Close()
}
