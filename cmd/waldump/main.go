// Command waldump inspects a campaign event log written by priced's
// -wal-dir: it lists records (human or JSON lines) and verifies frame
// integrity. The log is the daemon's only durable campaign state, so this
// is the offline view of what a restart would replay — after a crash, for
// instance. A "snapshot" record in the listing is a compaction record
// folding the older history into one table.
//
// The log directory is never modified: waldump scans read-only, stopping
// (and reporting) at a torn tail exactly where priced's recovery would
// truncate it.
//
// Examples:
//
//	waldump -dir /var/lib/priced/wal                 # human listing
//	waldump -dir /var/lib/priced/wal -json | jq .    # machine listing
//	waldump -dir /var/lib/priced/wal -verify         # integrity check (exit 1 on damage)
//
// Flags:
//
//	-dir string        log directory (required)
//	-json              list records as JSON lines instead of the human format
//	-verify            verify integrity only: print a summary, exit 1 if any
//	                   segment is corrupt or a torn tail was found
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("waldump: ")
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprintf(o, "usage: waldump -dir DIR [-json] [-verify]\n\n")
		fmt.Fprintf(o, "Inspect a campaign event log written by priced -wal-dir.\n\nflags:\n")
		flag.PrintDefaults()
	}
	dir := flag.String("dir", "", "log directory (required)")
	asJSON := flag.Bool("json", false, "list records as JSON lines")
	verify := flag.Bool("verify", false, "verify integrity only; exit 1 on corruption or a torn tail")
	flag.Parse()
	if *dir == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(1)
	}

	if *verify {
		verifyLog(*dir)
	} else {
		listRecords(*dir, *asJSON)
	}
}

// jsonRecord is the -json line schema.
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
