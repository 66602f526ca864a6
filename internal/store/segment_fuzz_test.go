package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreSegment feeds arbitrary bytes to OpenSegment as the on-disk
// log and checks the recovery invariants the server relies on after a
// crash: opening never panics or errors on any byte soup, replay is
// idempotent (a second open sees exactly the same records), and the
// truncated log accepts appends that survive a further reopen.
func FuzzStoreSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildFrame([]byte("hello")))
	f.Add(append(buildFrame([]byte("a")), buildFrame([]byte("bb"))...))
	torn := append(buildFrame([]byte("clean")), buildFrame([]byte("torn-tail"))...)
	f.Add(torn[:len(torn)-4])
	crcFlipped := buildFrame([]byte("flip"))
	crcFlipped[4] ^= 0xff
	f.Add(crcFlipped)
	f.Add(make([]byte, 256))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, first, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("OpenSegment on arbitrary bytes: %v", err)
		}
		for _, p := range first {
			if len(p) == 0 {
				t.Fatal("replayed an empty payload")
			}
		}
		seg.Close()

		seg, second, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if len(second) != len(first) {
			t.Fatalf("reopen replayed %d records, first open %d", len(second), len(first))
		}
		for i := range second {
			if !bytes.Equal(second[i], first[i]) {
				t.Fatalf("record %d changed across reopens", i)
			}
		}
		if err := seg.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		seg.Close()

		seg, third, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer seg.Close()
		if len(third) != len(first)+1 {
			t.Fatalf("after append, replayed %d records, want %d", len(third), len(first)+1)
		}
		if string(third[len(third)-1]) != "post-recovery" {
			t.Fatalf("appended record = %q", third[len(third)-1])
		}
	})
}

// FuzzDecodeAt reads a record log from an arbitrary offset, as a fleet
// coordinator whose cursor went stale would: any bytes appended to the
// log, any offset into its clean prefix (a cursor only ever advances over
// clean bytes). Decoding never panics, never consumes more than it was
// given, and — the property the merge's safety rests on — never yields a
// record the whole log does not hold, even when the offset lands inside a
// frame: the CRC framing turns a misaligned read into an empty one.
func FuzzDecodeAt(f *testing.F) {
	f.Add(uint(0), []byte{})
	f.Add(uint(8), []byte{})
	f.Add(uint(3), []byte("torn"))
	f.Add(uint(1<<20), make([]byte, 64))
	f.Add(uint(200), buildFrame([]byte(`{"seed": 7}`)))

	f.Fuzz(func(t *testing.T, offset uint, tail []byte) {
		raw, _, _ := recordLog(t, 4)
		raw = append(raw, tail...)
		whole, clean, err := DecodeRecordsN(bytes.NewReader(raw))
		if err != nil {
			return // the fuzzed tail framed a non-record payload
		}
		if clean > int64(len(raw)) {
			t.Fatalf("consumed %d bytes of a %d-byte log", clean, len(raw))
		}
		at := int(offset % uint(clean+1))
		recs, n, err := DecodeRecordsN(bytes.NewReader(raw[at:]))
		if err != nil {
			return
		}
		if n > int64(len(raw)-at) {
			t.Fatalf("offset %d: consumed %d of %d bytes", at, n, len(raw)-at)
		}
		for _, rec := range recs {
			found := false
			for _, w := range whole {
				if reflect.DeepEqual(rec, w) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("offset %d: decoded %+v, which the whole log does not hold", at, rec)
			}
		}
	})
}
