// Package wal is the durability substrate: a write-ahead delta log plus
// periodic snapshot spills, from which every published epoch is recoverable.
//
// The log is a sequence of segment files (wal-<n>.seg), each a concatenation
// of length-prefixed CRC32C-framed records. A record is either a delta —
// one base relation's insert or delete tuple batch for one ingest batch —
// or a commit marker closing a batch. A batch is durable exactly when all of
// its records, commit included, are on disk; recovery replays complete
// batches in sequence order and truncates anything after the last valid
// commit (torn tails are discarded whole, never half-applied — see
// replay.go). Appends are made durable by a group-commit daemon that
// takes every record queued since its last write and issues one fsync per
// group; callers block on the group's sync barrier (log.go).
//
// A manifest file records the recovery root: the latest snapshot spill, the
// batch and epoch it captures, and the first segment still needed to replay
// past it (manifest.go, spill.go). Recovery = load the spill, then replay
// the delta segments through the ordinary differential refresh path.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// Record type tags (first payload byte).
const (
	recDelta  = 0x01
	recCommit = 0x02
)

// maxFrameBytes bounds a single frame's payload. Decoding rejects larger
// claims before allocating, so a corrupt length prefix cannot OOM recovery.
const maxFrameBytes = 1 << 28

// castagnoli is the CRC32C polynomial table (the checksum used by every
// frame and by snapshot spills).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DeltaRec is one base relation's logged tuple batch: the δ+ (Del=false) or
// δ− (Del=true) rows contributed to ingest batch Seq.
type DeltaRec struct {
	Seq  int64
	Rel  string
	Del  bool
	Rows []algebra.Tuple
}

// CommitRec closes batch Seq: all of the batch's delta records precede it in
// the log. Epoch is the snapshot epoch the batch's refresh publishes last,
// recorded for observability (recovery recomputes it by replay).
type CommitRec struct {
	Seq   int64
	Epoch int64
}

// AppendFrame appends payload as one framed record: u32 length, u32 CRC32C
// of the payload, payload bytes.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// NextFrame splits the first frame off b, verifying the length prefix and
// checksum. It returns the payload, the remaining bytes, and the total frame
// size consumed. Any violation — short header, oversized claim, truncated
// payload, checksum mismatch — is an error; the caller decides whether it is
// a torn tail (truncate) or corruption (fail).
func NextFrame(b []byte) (payload, rest []byte, n int, err error) {
	if len(b) < 8 {
		return nil, nil, 0, fmt.Errorf("wal: short frame header: %d bytes", len(b))
	}
	ln := binary.LittleEndian.Uint32(b)
	if ln > maxFrameBytes {
		return nil, nil, 0, fmt.Errorf("wal: frame length %d exceeds limit", ln)
	}
	if uint64(len(b)-8) < uint64(ln) {
		return nil, nil, 0, fmt.Errorf("wal: truncated frame: want %d payload bytes, have %d", ln, len(b)-8)
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	payload = b[8 : 8+ln]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, 0, fmt.Errorf("wal: frame checksum mismatch")
	}
	return payload, b[8+int(ln):], 8 + int(ln), nil
}

// EncodeDelta renders a delta record's payload (unframed).
func EncodeDelta(rec *DeltaRec) []byte {
	b := make([]byte, 0, 64+16*len(rec.Rows))
	b = append(b, recDelta)
	b = binary.AppendUvarint(b, uint64(rec.Seq))
	b = binary.AppendUvarint(b, uint64(len(rec.Rel)))
	b = append(b, rec.Rel...)
	if rec.Del {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Rows)))
	for _, t := range rec.Rows {
		b = AppendTuple(b, t)
	}
	return b
}

// EncodeCommit renders a commit record's payload (unframed).
func EncodeCommit(rec *CommitRec) []byte {
	b := make([]byte, 0, 24)
	b = append(b, recCommit)
	b = binary.AppendUvarint(b, uint64(rec.Seq))
	b = binary.AppendUvarint(b, uint64(rec.Epoch))
	return b
}

// DecodeRecord parses one record payload, returning *DeltaRec or *CommitRec.
// It never panics: every malformed input — unknown tag, bad value kind,
// short buffer, length overflow, trailing garbage — returns an error.
func DecodeRecord(payload []byte) (interface{}, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	tag, b := payload[0], payload[1:]
	switch tag {
	case recDelta:
		rec := &DeltaRec{}
		seq, b, err := decodeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("wal: delta seq: %w", err)
		}
		rec.Seq = int64(seq)
		nameLen, b, err := decodeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("wal: delta relation length: %w", err)
		}
		if uint64(len(b)) < nameLen {
			return nil, fmt.Errorf("wal: delta relation name truncated")
		}
		rec.Rel, b = string(b[:nameLen]), b[nameLen:]
		if len(b) < 1 {
			return nil, fmt.Errorf("wal: delta op flag missing")
		}
		switch b[0] {
		case 0:
			rec.Del = false
		case 1:
			rec.Del = true
		default:
			return nil, fmt.Errorf("wal: delta op flag %d invalid", b[0])
		}
		b = b[1:]
		nrows, b, err := decodeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("wal: delta row count: %w", err)
		}
		// Each tuple costs at least one byte, so the remaining length bounds
		// the plausible row count; cap the allocation by it.
		capRows := nrows
		if capRows > uint64(len(b)) {
			capRows = uint64(len(b))
		}
		rec.Rows = make([]algebra.Tuple, 0, capRows)
		for i := uint64(0); i < nrows; i++ {
			var t algebra.Tuple
			t, b, err = DecodeTuple(b)
			if err != nil {
				return nil, fmt.Errorf("wal: delta row %d: %w", i, err)
			}
			rec.Rows = append(rec.Rows, t)
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("wal: %d trailing bytes after delta record", len(b))
		}
		return rec, nil
	case recCommit:
		seq, b, err := decodeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("wal: commit seq: %w", err)
		}
		epoch, b, err := decodeUvarint(b)
		if err != nil {
			return nil, fmt.Errorf("wal: commit epoch: %w", err)
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("wal: %d trailing bytes after commit record", len(b))
		}
		return &CommitRec{Seq: int64(seq), Epoch: int64(epoch)}, nil
	default:
		return nil, fmt.Errorf("wal: unknown record tag %#x", tag)
	}
}

// AppendTuple appends one tuple's self-describing encoding: column count,
// then per value a kind byte and the kind's payload (varint for Int/Date,
// raw bits for Float, length-prefixed bytes for String).
func AppendTuple(b []byte, t algebra.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = append(b, byte(v.Kind))
		switch v.Kind {
		case catalog.Int, catalog.Date:
			b = binary.AppendVarint(b, v.I)
		case catalog.Float:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		case catalog.String:
			b = binary.AppendUvarint(b, uint64(len(v.S)))
			b = append(b, v.S...)
		default:
			panic(fmt.Sprintf("wal: cannot encode value kind %d", v.Kind))
		}
	}
	return b
}

// DecodeTuple parses one tuple off b, returning the remainder. Errors rather
// than panics on every malformed input.
func DecodeTuple(b []byte) (algebra.Tuple, []byte, error) {
	ncols, b, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, fmt.Errorf("column count: %w", err)
	}
	capCols := ncols
	if capCols > uint64(len(b)) {
		capCols = uint64(len(b))
	}
	t := make(algebra.Tuple, 0, capCols)
	for i := uint64(0); i < ncols; i++ {
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("column %d: missing kind byte", i)
		}
		kind := catalog.Type(b[0])
		b = b[1:]
		var v algebra.Value
		switch kind {
		case catalog.Int, catalog.Date:
			x, n := binary.Varint(b)
			if n <= 0 {
				return nil, nil, fmt.Errorf("column %d: bad varint", i)
			}
			b = b[n:]
			v = algebra.Value{Kind: kind, I: x}
		case catalog.Float:
			if len(b) < 8 {
				return nil, nil, fmt.Errorf("column %d: truncated float", i)
			}
			v = algebra.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case catalog.String:
			var ln uint64
			ln, b, err = decodeUvarint(b)
			if err != nil {
				return nil, nil, fmt.Errorf("column %d: string length: %w", i, err)
			}
			if uint64(len(b)) < ln {
				return nil, nil, fmt.Errorf("column %d: truncated string", i)
			}
			v = algebra.NewString(string(b[:ln]))
			b = b[ln:]
		default:
			return nil, nil, fmt.Errorf("column %d: unknown value kind %d", i, kind)
		}
		t = append(t, v)
	}
	return t, b, nil
}

// appendUvarint is binary.AppendUvarint, named for symmetry with decode.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// decodeUvarint reads one uvarint, returning the remainder.
func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, b[n:], nil
}
