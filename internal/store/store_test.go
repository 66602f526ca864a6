package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cliffedge/internal/campaign"
)

func testRecord(i int) Record {
	return Record{
		Cell:    campaign.CellKey{Topology: "ring", Regime: "quiescent", Engine: "sim"},
		Seed:    int64(100 + i),
		Attempt: i % 3,
		Stats: campaign.RunStats{
			Nodes:     64,
			Crashed:   i,
			Border:    2 * i,
			Domains:   1,
			Decisions: 64 - i,
			Messages:  1000 + i,
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	seg, payloads, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 0 {
		t.Fatalf("fresh segment replayed %d payloads", len(payloads))
	}
	want := []string{"one", "two", `{"three":3}`}
	for _, p := range want {
		if err := seg.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg, payloads, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d payloads, want %d", len(payloads), len(want))
	}
	for i, p := range payloads {
		if string(p) != want[i] {
			t.Errorf("payload %d = %q, want %q", i, p, want[i])
		}
	}
}

func TestSegmentTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	seg, _, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"alpha", "beta", "gamma"} {
		if err := seg.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	seg.Close()

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last frame (keep its header plus one
	// payload byte) — the shape a SIGKILL mid-write leaves behind.
	cut := len(full) - len("gamma") + 1
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	seg, payloads, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 || string(payloads[0]) != "alpha" || string(payloads[1]) != "beta" {
		t.Fatalf("after torn tail, payloads = %q", payloads)
	}
	// The open must have truncated the torn bytes and positioned for
	// appending: a new record followed by reopen yields exactly three.
	if err := seg.Append([]byte("delta")); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg, payloads, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if len(payloads) != 3 || string(payloads[2]) != "delta" {
		t.Fatalf("after re-append, payloads = %q", payloads)
	}
}

func TestSegmentRejectsCorruptAndZeroFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	seg, _, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	seg.Append([]byte("keep"))
	seg.Close()

	full, _ := os.ReadFile(path)

	t.Run("crc-flip", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "seg.log")
		bad := append(append([]byte{}, full...), full...)
		bad[len(full)+frameHeader] ^= 0xff // corrupt second record's payload
		os.WriteFile(p, bad, 0o644)
		seg, payloads, err := OpenSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if len(payloads) != 1 || string(payloads[0]) != "keep" {
			t.Fatalf("payloads = %q, want just %q", payloads, "keep")
		}
	})

	t.Run("zero-filled-tail", func(t *testing.T) {
		// A preallocated-then-crashed file ends in zero bytes. A zero
		// length field must read as corruption, not as an endless run of
		// valid empty records.
		p := filepath.Join(t.TempDir(), "seg.log")
		bad := append(append([]byte{}, full...), make([]byte, 64)...)
		os.WriteFile(p, bad, 0o644)
		seg, payloads, err := OpenSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if len(payloads) != 1 {
			t.Fatalf("zero tail replayed as %d payloads, want 1", len(payloads))
		}
		info, _ := os.Stat(p)
		if info.Size() != int64(len(full)) {
			t.Fatalf("zero tail not truncated: size %d, want %d", info.Size(), len(full))
		}
	})

	t.Run("oversized-length", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "seg.log")
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], MaxPayload+1)
		bad := append(append([]byte{}, full...), hdr[:]...)
		os.WriteFile(p, bad, 0o644)
		seg, payloads, err := OpenSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if len(payloads) != 1 {
			t.Fatalf("oversized length replayed as %d payloads, want 1", len(payloads))
		}
	})
}

func TestSegmentAppendRejectsEmpty(t *testing.T) {
	seg, _, err := OpenSegment(filepath.Join(t.TempDir(), "seg.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if err := seg.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded, want error")
	}
}

func TestStoreManifestLifecycle(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(map[string]any{"seeds": 4})
	m := Manifest{
		ID:      "c000001",
		Created: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		Client:  "t",
		Status:  StatusRunning,
		Spec:    spec,
	}
	if err := s.Create(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(m); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	got, err := s.Manifest(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Spec is raw JSON; the indent-for-humans manifest write may reflow
	// its whitespace, so compare it compacted.
	var gc, wc bytes.Buffer
	json.Compact(&gc, got.Spec)
	json.Compact(&wc, m.Spec)
	if gc.String() != wc.String() {
		t.Fatalf("spec round trip: got %s, want %s", gc.String(), wc.String())
	}
	got.Spec, m.Spec = nil, nil
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round trip:\n got %+v\nwant %+v", got, m)
	}
	m.Spec = spec
	if err := s.SetStatus(m.ID, StatusDone); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Manifest(m.ID)
	if got.Status != StatusDone {
		t.Fatalf("status = %q, want %q", got.Status, StatusDone)
	}

	if err := s.Create(Manifest{ID: "c000000", Status: StatusRunning, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "c000000" || list[1].ID != "c000001" {
		t.Fatalf("List = %+v", list)
	}
}

func TestStoreRejectsBadIDs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", "UPPER", "x y", "ok..", string(make([]byte, 65))} {
		if err := s.Create(Manifest{ID: id, Status: StatusRunning}); err == nil {
			t.Errorf("Create(%q) succeeded, want error", id)
		}
		if _, err := s.Manifest(id); err == nil {
			t.Errorf("Manifest(%q) succeeded, want error", id)
		}
	}
}

func TestStoreResultsRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	res, recs, err := s.OpenResults("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh results replayed %d records", len(recs))
	}
	var want []Record
	for i := 0; i < 5; i++ {
		rec := testRecord(i)
		want = append(want, rec)
		if err := res.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	res.Close()

	res, recs, err = s.OpenResults("c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records round trip:\n got %+v\nwant %+v", recs, want)
	}
	if j := recs[2].Job(); j != (campaign.Job{Cell: recs[2].Cell, Seed: recs[2].Seed, Attempt: recs[2].Attempt}) {
		t.Fatalf("Job() = %+v", j)
	}
}

func TestStoreReport(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report("c000001"); err == nil {
		t.Fatal("Report before WriteReport succeeded")
	}
	body := []byte(`{"totals":{}}`)
	if err := s.WriteReport("c000001", body); err != nil {
		t.Fatal(err)
	}
	got, err := s.Report("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) {
		t.Fatalf("report = %q, want %q", got, body)
	}
}

// TestStoreTraceDir: the traces directory is created on demand under the
// campaign, rejects invalid IDs, and is removed with the campaign.
func TestStoreTraceDir(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	td, err := s.TraceDir("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(td) != filepath.Join(s.Dir(), "c000001") {
		t.Fatalf("trace dir %q not under the campaign dir", td)
	}
	if err := os.WriteFile(filepath.Join(td, "x.bin"), []byte("CETR"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TraceDir("../escape"); err == nil {
		t.Fatal("TraceDir accepted a path-escaping ID")
	}
}

// TestCreateAfterTraceDir pins the daemon's submit order: the server
// resolves the campaign's trace dir (creating the campaign directory)
// before Create writes the manifest, so Create must anchor uniqueness
// on the manifest file, not on Mkdir succeeding.
func TestCreateAfterTraceDir(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TraceDir("c000001"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err != nil {
		t.Fatalf("Create after TraceDir must succeed: %v", err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err == nil {
		t.Fatal("duplicate Create must still fail")
	}
}

// buildFrame assembles a valid frame for corpus seeds and tests.
func buildFrame(payload []byte) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func TestDecodeRecordsMatchesOpenAndToleratesTornTail(t *testing.T) {
	// DecodeRecords is the network twin of OpenResults: the fleet
	// coordinator feeds it a worker's results.log fetched over HTTP. It
	// must decode exactly what a local open would replay, and a stream cut
	// mid-frame — the worker died mid-transfer, or the log was snapshotted
	// mid-append — must degrade to the clean prefix, never to an error or
	// a corrupt record.
	s, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Manifest{ID: "c000001", Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.OpenResults("c000001")
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 5; i++ {
		rec := testRecord(i)
		want = append(want, rec)
		if err := res.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	res.Close()

	path, err := s.File("c000001", "results.log")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("DecodeRecords:\n got %+v\nwant %+v", recs, want)
	}

	// Every possible truncation point yields some clean prefix of the
	// records, monotonically shrinking as the cut moves left.
	for cut := len(raw); cut >= 0; cut-- {
		recs, err := DecodeRecords(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) > len(want) {
			t.Fatalf("cut %d: %d records from a %d-record log", cut, len(recs), len(want))
		}
		if !reflect.DeepEqual(recs, want[:len(recs)]) {
			t.Fatalf("cut %d: decoded records are not a prefix of the originals", cut)
		}
	}

	// A framing-valid payload that isn't a Record document is schema
	// drift, not corruption: that must error rather than silently merge
	// garbage into a fleet.
	driftPath := filepath.Join(t.TempDir(), "drift.log")
	seg, _, err := OpenSegment(driftPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Append([]byte(`["not", "a", "record"]`)); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	drift, err := os.ReadFile(driftPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecords(bytes.NewReader(drift)); err == nil {
		t.Fatal("DecodeRecords accepted a non-Record payload")
	}
}

// recordLog frames n test records the way Results.Append does and returns
// the log bytes, the records, and every frame boundary (0 and the end
// included).
func recordLog(t testing.TB, n int) (raw []byte, recs []Record, bounds []int) {
	t.Helper()
	bounds = []int{0}
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, buildFrame(payload)...)
		recs = append(recs, rec)
		bounds = append(bounds, len(raw))
	}
	return raw, recs, bounds
}

// TestDecodeRecordsNCursor pins what the fleet's merge feed relies on: the
// consumed length DecodeRecordsN reports is a cursor. Resuming at any frame
// boundary yields exactly the remaining records, the two consumed lengths
// sum to the clean length, and a cut inside a frame consumes nothing past
// the last clean frame — so a reader that adds the consumed length to its
// offset never skips or repeats a record.
func TestDecodeRecordsNCursor(t *testing.T) {
	raw, want, bounds := recordLog(t, 6)

	whole, clean, err := DecodeRecordsN(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, want) || clean != int64(len(raw)) {
		t.Fatalf("whole log: %d records, %d bytes consumed; want %d, %d", len(whole), clean, len(want), len(raw))
	}

	for i, k := range bounds {
		head, n1, err := DecodeRecordsN(bytes.NewReader(raw[:k]))
		if err != nil {
			t.Fatal(err)
		}
		tail, n2, err := DecodeRecordsN(bytes.NewReader(raw[k:]))
		if err != nil {
			t.Fatal(err)
		}
		if n1 != int64(k) || n1+n2 != clean {
			t.Fatalf("boundary %d: consumed %d + %d, want %d + %d", k, n1, n2, k, len(raw)-k)
		}
		if len(head) != i || !reflect.DeepEqual(append(head, tail...), want) {
			t.Fatalf("boundary %d: %d + %d records do not reassemble the log", k, len(head), len(tail))
		}
	}

	// Every cut consumes up to the last frame boundary at or before it.
	for cut := 0; cut <= len(raw); cut++ {
		last := 0
		for _, k := range bounds {
			if k <= cut {
				last = k
			}
		}
		recs, n, err := DecodeRecordsN(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != int64(last) {
			t.Fatalf("cut %d: consumed %d bytes, want %d (the last clean frame)", cut, n, last)
		}
		if !reflect.DeepEqual(recs, want[:len(recs)]) {
			t.Fatalf("cut %d: decoded records are not a prefix of the log", cut)
		}
	}
}
