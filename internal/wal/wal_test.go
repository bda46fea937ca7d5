package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
)

// tup builds a small mixed-kind tuple.
func tup(i int64) algebra.Tuple {
	return algebra.Tuple{
		algebra.NewInt(i),
		algebra.NewFloat(float64(i) * 1.5),
		algebra.NewString("row"),
		algebra.NewDate(i % 2556),
	}
}

func batch(seq int64, rel string, n int) *Batch {
	b := &Batch{Seq: seq, Epoch: seq * 2}
	ins := DeltaRec{Rel: rel}
	for i := 0; i < n; i++ {
		ins.Rows = append(ins.Rows, tup(seq*1000+int64(i)))
	}
	del := DeltaRec{Rel: rel, Del: true, Rows: []algebra.Tuple{tup(seq)}}
	b.Deltas = []DeltaRec{ins, del}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &DeltaRec{Seq: 7, Rel: "lineitem", Del: true, Rows: []algebra.Tuple{tup(1), tup(2)}}
	payload := EncodeDelta(rec)
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("delta round trip: got %+v want %+v", got, rec)
	}
	c := &CommitRec{Seq: 9, Epoch: 54}
	got, err = DecodeRecord(EncodeCommit(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("commit round trip: got %+v want %+v", got, c)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	payload := EncodeDelta(&DeltaRec{Seq: 1, Rel: "orders", Rows: []algebra.Tuple{tup(1)}})
	framed := AppendFrame(nil, payload)
	// Bit flip anywhere must be caught by the checksum or the header checks.
	for i := 0; i < len(framed); i++ {
		bad := append([]byte(nil), framed...)
		bad[i] ^= 0x40
		if p, _, _, err := NextFrame(bad); err == nil {
			if _, derr := DecodeRecord(p); derr == nil {
				// Flipping a length-prefix bit can still yield a valid shorter
				// frame only if the checksum matches, which is astronomically
				// unlikely; treat it as a failure.
				t.Fatalf("bit flip at %d went undetected", i)
			}
		}
	}
	// Truncations must be errors, not panics.
	for i := 0; i < len(framed); i++ {
		if _, _, _, err := NextFrame(framed[:i]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest != nil || len(rec.Batches) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	var want []*Batch
	for seq := int64(1); seq <= 5; seq++ {
		b := batch(seq, "orders", 3)
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a post-crash scan: no manifest yet means fresh — so write one
	// anchoring replay at batch 0 first.
	if err := WriteManifest(dir, &Manifest{Snapshot: "", SnapshotBatch: 0, KeepFromSegment: 1}); err != nil {
		t.Fatal(err)
	}
	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Batches) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(rec2.Batches), len(want))
	}
	for i, b := range rec2.Batches {
		if !reflect.DeepEqual(b, want[i]) {
			t.Fatalf("batch %d mismatch:\ngot  %+v\nwant %+v", i, b, want[i])
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch(1, "orders", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch(2, "orders", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, &Manifest{SnapshotBatch: 0, KeepFromSegment: 1}); err != nil {
		t.Fatal(err)
	}

	// Tear the tail at every possible byte boundary of the second batch: the
	// first batch must always survive, the second must be gone whole.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	batch1End := len(batch(1, "orders", 2).encode())
	for cut := batch1End + 1; cut < len(data); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteManifest(dir2, &Manifest{SnapshotBatch: 0, KeepFromSegment: 1}); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(rec.Batches) != 1 || rec.Batches[0].Seq != 1 {
			t.Fatalf("cut at %d: recovered %d batches, want exactly batch 1", cut, len(rec.Batches))
		}
		// The torn segment is truncated durably: a second recovery sees the
		// same single batch.
		l2.Close()
		fixed, err := os.ReadFile(filepath.Join(dir2, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fixed, data[:batch1End]) {
			t.Fatalf("cut at %d: truncated to %d bytes, want %d", cut, len(fixed), batch1End)
		}
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true, CommitWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 8, 5
	var wg sync.WaitGroup
	var seqMu sync.Mutex
	seq := int64(0)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seqMu.Lock()
				seq++
				s := seq
				seqMu.Unlock()
				if err := l.AppendBatch(batch(s, "orders", 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("group commit did not coalesce: %d syncs for %d appends", st.Syncs, st.Appends)
	}
}

// TestLoneAppenderDoesNotLinger holds that the daemon never waits for more
// appends: a sequential appender has no one to share its fsync with, so no
// single append may wait out a CommitWindow, even a long one.
func TestLoneAppenderDoesNotLinger(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Fsync: true, CommitWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := int64(1); seq <= 20; seq++ {
		start := time.Now()
		if err := l.AppendBatch(batch(seq, "orders", 1)); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el >= 500*time.Millisecond {
			t.Fatalf("append %d took %v: the daemon lingered with no one to coalesce", seq, el)
		}
	}
	st := l.Stats()
	if st.Syncs != st.Appends {
		t.Fatalf("%d syncs for %d sequential appends, want one each", st.Syncs, st.Appends)
	}
}

func TestSegmentRotationAndScan(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of batches.
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 20; seq++ {
		if err := l.AppendBatch(batch(seq, "lineitem", 4)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("no rotations despite tiny segment size")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	batches, err := ScanBatches(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 20 {
		t.Fatalf("scanned %d batches, want 20", len(batches))
	}
	for i, b := range batches {
		if b.Seq != int64(i+1) {
			t.Fatalf("batch %d has seq %d", i, b.Seq)
		}
	}
}

func TestManifestRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	m, err := ReadManifest(dir)
	if err != nil || m != nil {
		t.Fatalf("empty dir manifest: %v %v", m, err)
	}
	sp := &Spill{Batch: 3, Epoch: 18, Rels: map[string][]algebra.Tuple{"orders": {tup(1)}},
		Mats: map[int][]algebra.Tuple{7: {tup(2)}}}
	name, err := WriteSpill(dir, sp)
	if err != nil {
		t.Fatal(err)
	}
	old, err := WriteSpill(dir, &Spill{Batch: 1, Rels: map[string][]algebra.Tuple{}, Mats: map[int][]algebra.Tuple{}})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		f, err := openSegment(dir, seq)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	want := &Manifest{Snapshot: name, SnapshotBatch: 3, SnapshotEpoch: 18, KeepFromSegment: 3}
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest: got %+v want %+v", got, want)
	}
	Prune(dir, got)
	for _, gone := range []string{segName(1), segName(2), old} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived pruning", gone)
		}
	}
	for _, kept := range []string{segName(3), name, manifestName} {
		if _, err := os.Stat(filepath.Join(dir, kept)); err != nil {
			t.Fatalf("%s was pruned: %v", kept, err)
		}
	}
}

func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sp := &Spill{
		Batch: 12, Epoch: 72,
		Rels: map[string][]algebra.Tuple{
			"orders":   {tup(1), tup(2), tup(3)},
			"lineitem": {},
		},
		Mats: map[int][]algebra.Tuple{4: {tup(9)}, 11: {}},
	}
	name, err := WriteSpill(dir, sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpill(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch != sp.Batch || got.Epoch != sp.Epoch {
		t.Fatalf("header: got %d/%d want %d/%d", got.Batch, got.Epoch, sp.Batch, sp.Epoch)
	}
	if len(got.Rels) != len(sp.Rels) || len(got.Mats) != len(sp.Mats) {
		t.Fatalf("shape: got %d rels %d mats", len(got.Rels), len(got.Mats))
	}
	for n, rows := range sp.Rels {
		if !reflect.DeepEqual(got.Rels[n], rows) && !(len(rows) == 0 && len(got.Rels[n]) == 0) {
			t.Fatalf("relation %s mismatch", n)
		}
	}
	for id, rows := range sp.Mats {
		if !reflect.DeepEqual(got.Mats[id], rows) && !(len(rows) == 0 && len(got.Mats[id]) == 0) {
			t.Fatalf("mat %d mismatch", id)
		}
	}
	// A flipped byte anywhere in the file must fail verification.
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		bad := append([]byte(nil), data...)
		bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		if bytes.Equal(bad, data) {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, "bad.snap"), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSpill(dir, "bad.snap"); err == nil {
			t.Fatal("corrupt spill loaded without error")
		}
	}
}

// Explicit rotation returns monotonically increasing segment sequences and
// lands on batch boundaries; appends and rotations after Close fail cleanly.
func TestExplicitRotateAndClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest != nil {
		t.Fatal("fresh dir has a manifest")
	}
	if l.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", l.Dir(), dir)
	}
	if err := l.AppendBatch(batch(1, "r", 3)); err != nil {
		t.Fatal(err)
	}
	s1, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch(2, "r", 3)); err != nil {
		t.Fatal(err)
	}
	s2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if s2 <= s1 {
		t.Fatalf("rotation sequences not increasing: %d then %d", s1, s2)
	}
	if st := l.Stats(); st.Rotations < 2 {
		t.Fatalf("rotations = %d, want >= 2", st.Rotations)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch(3, "r", 1)); err == nil {
		t.Fatal("append accepted on closed log")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("rotate accepted on closed log")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Both batches survive, each in its own pre-rotation segment.
	got, err := ScanBatches(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("scan after rotations: %d batches", len(got))
	}
}

// Manifest decoding rejects garbage, wrong versions, and absolute snapshot
// paths rather than trusting the directory contents.
func TestManifestRejectsBadContents(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("{not json")
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("garbage manifest accepted")
	}
	write(`{"version": 99, "snapshot": "snap-0000000000000001.snap"}`)
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("unknown manifest version accepted")
	}
}
