package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout. A segment file is a 16-byte header followed by frames:
//
//	header:  magic "CPWALSEG" (8) | version uint32 LE | reserved uint32 LE
//	frame:   length uint32 LE | crc32c uint32 LE | payload (length bytes)
//	payload: type byte | lsn uint64 LE | data (length-9 bytes)
//
// The CRC (Castagnoli polynomial) covers the whole payload, so a torn
// write — a frame whose tail never reached the platter — fails either the
// length bound or the checksum and recovery truncates the segment there.
const (
	magic           = "CPWALSEG"
	formatVersion   = 1
	headerSize      = 16
	frameHeaderSize = 8
	framePrefixSize = 9 // type byte + LSN inside the payload

	// maxRecordBytes bounds a single record (a compaction snapshot of a
	// full campaign table is the largest) and, more importantly, bounds
	// how far the decoder trusts a length field read from garbage.
	maxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one log entry: an opaque payload tagged with a caller-defined
// type byte and the log sequence number assigned at append time.
type Record struct {
	LSN  uint64
	Type byte
	// Data is the record payload. Decoded records alias the scan buffer;
	// copy Data if it is retained past the callback.
	Data []byte
}

// Decode failure modes: a truncated frame may simply be the torn tail of
// the final segment (recovery cuts there); a bad frame failed a
// validation that more bytes would not fix.
var (
	errTruncatedFrame = errors.New("wal: truncated frame")
	errBadFrame       = errors.New("wal: bad frame")
)

// frameLen returns the encoded size of a record with n payload-data bytes.
func frameLen(n int) int { return frameHeaderSize + framePrefixSize + n }

// appendFrame encodes rec onto dst.
func appendFrame(dst []byte, rec Record) []byte {
	payloadLen := framePrefixSize + len(rec.Data)
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	start := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, rec.Type)
	var lsn [8]byte
	binary.LittleEndian.PutUint64(lsn[:], rec.LSN)
	dst = append(dst, lsn[:]...)
	dst = append(dst, rec.Data...)
	crc := crc32.Checksum(dst[start+frameHeaderSize:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc)
	return dst
}

// readRecord decodes the frame at the start of b, returning the record
// and the number of bytes consumed. It never panics and never reads past
// len(b): a short buffer yields errTruncatedFrame, an implausible length
// or checksum mismatch yields errBadFrame. rec.Data aliases b.
func readRecord(b []byte) (rec Record, n int, err error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, errTruncatedFrame
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length < framePrefixSize || length > maxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: payload length %d outside [%d, %d]",
			errBadFrame, length, framePrefixSize, maxRecordBytes)
	}
	total := frameHeaderSize + int(length)
	if len(b) < total {
		return Record{}, 0, errTruncatedFrame
	}
	payload := b[frameHeaderSize:total]
	want := binary.LittleEndian.Uint32(b[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch (want %08x, got %08x)", errBadFrame, want, got)
	}
	return Record{
		Type: payload[0],
		LSN:  binary.LittleEndian.Uint64(payload[1:9]),
		Data: payload[framePrefixSize:],
	}, total, nil
}

// encodeHeader renders a segment header.
func encodeHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[8:12], formatVersion)
	return h
}

// checkHeader validates a segment header prefix.
func checkHeader(b []byte) error {
	if len(b) < headerSize {
		return fmt.Errorf("%w: %d-byte segment header, want %d", errTruncatedFrame, len(b), headerSize)
	}
	if string(b[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad segment magic %q", errBadFrame, b[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != formatVersion {
		return fmt.Errorf("wal: segment format version %d, this binary expects %d", v, formatVersion)
	}
	return nil
}

// segmentName renders the file name of segment seq.
func segmentName(seq int64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseSegmentName inverts segmentName.
func parseSegmentName(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".log")
	if !ok || len(digits) < 8 {
		return 0, false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq <= 0 {
		return 0, false
	}
	return seq, true
}

// FramePos locates a record inside the log.
type FramePos struct {
	// Segment is the segment sequence number; Offset/End are the frame's
	// byte bounds inside that segment file.
	Segment int64
	Offset  int64
	End     int64
}

// SegmentInfo summarizes one scanned segment.
type SegmentInfo struct {
	Seq     int64
	Name    string
	Size    int64 // bytes of valid content (header + whole frames)
	Records int64
}

// TornTail describes invalid trailing bytes found in the final segment:
// the expected residue of a crash mid-write. Offset is the length of the
// valid prefix; recovery truncates the file there.
type TornTail struct {
	Segment int64
	Name    string
	Offset  int64
	Bytes   int64
	Reason  string
}

// ScanReport is the outcome of one pass over a log directory.
type ScanReport struct {
	Segments []SegmentInfo
	Records  int64
	MaxLSN   uint64
	Torn     *TornTail
}

// Scan reads every record in dir's segments in file order, invoking fn
// (which may be nil) for each. It is tolerant exactly where a crash can
// leave damage — invalid bytes at the tail of the final segment are
// reported in the ScanReport, not treated as an error — and strict
// everywhere else: a bad frame in a non-final segment means real
// corruption and fails the scan. Scan never modifies the directory.
func Scan(fsys FS, dir string, fn func(Record, FramePos) error) (*ScanReport, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	type seg struct {
		seq  int64
		name string
	}
	var segs []seg
	for _, name := range names {
		if seq, ok := parseSegmentName(name); ok {
			segs = append(segs, seg{seq, name})
		}
	}
	// ReadDir's lexicographic order matches sequence order for zero-padded
	// names; keep it explicit so 9-digit sequences stay correct too.
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })

	report := &ScanReport{}
	for i, sg := range segs {
		final := i == len(segs)-1
		data, err := readAll(fsys, join(dir, sg.name))
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", sg.name, err)
		}
		info := SegmentInfo{Seq: sg.seq, Name: sg.name}
		if err := checkHeader(data); err != nil {
			if !final {
				return nil, fmt.Errorf("wal: segment %s: %v (corruption before the final segment)", sg.name, err)
			}
			report.Torn = &TornTail{Segment: sg.seq, Name: sg.name, Offset: 0,
				Bytes: int64(len(data)), Reason: err.Error()}
			report.Segments = append(report.Segments, info)
			return report, nil
		}
		off := headerSize
		for off < len(data) {
			rec, n, err := readRecord(data[off:])
			if err != nil {
				if !final {
					return nil, fmt.Errorf("wal: segment %s offset %d: %v (corruption before the final segment)", sg.name, off, err)
				}
				report.Torn = &TornTail{Segment: sg.seq, Name: sg.name, Offset: int64(off),
					Bytes: int64(len(data) - off), Reason: err.Error()}
				break
			}
			if fn != nil {
				if err := fn(rec, FramePos{Segment: sg.seq, Offset: int64(off), End: int64(off + n)}); err != nil {
					return nil, err
				}
			}
			info.Records++
			report.Records++
			if rec.LSN > report.MaxLSN {
				report.MaxLSN = rec.LSN
			}
			off += n
		}
		if report.Torn != nil {
			info.Size = report.Torn.Offset
		} else {
			info.Size = int64(off)
		}
		report.Segments = append(report.Segments, info)
	}
	return report, nil
}

// readAll slurps one file through the FS seam.
func readAll(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Reader replays a log directory read-only: no recovery truncation, no
// new segment files — the inspection path cmd/wal uses. It tolerates
// a torn tail exactly like Open, by stopping in front of it.
type Reader struct {
	fsys FS
	dir  string
}

// NewReader wraps dir on fsys (nil = the real filesystem).
func NewReader(fsys FS, dir string) *Reader {
	if fsys == nil {
		fsys = DirFS{}
	}
	return &Reader{fsys: fsys, dir: dir}
}

// Replay streams every intact record to fn in log order.
func (r *Reader) Replay(fn func(Record) error) error {
	_, err := Scan(r.fsys, r.dir, func(rec Record, _ FramePos) error { return fn(rec) })
	return err
}
