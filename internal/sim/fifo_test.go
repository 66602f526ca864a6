package sim

import (
	"math/rand"
	"testing"
)

// checkFloorScript replays a send script on chanFloors and on a dense
// reference, one []int64 row per sender indexed by recipient — the form
// the kernel's floors once had. Every delivery time must agree, and after
// every multicast each row must be strictly ascending and hold exactly the
// channels that carried a delivery, with the reference's floors.
//
// The script's first byte picks the node count. Then each op is a header
// byte and its operands: header 0xFF resets to the node count of the next
// byte; any other header is a multicast from sender h%n with 1 + (h>>3)%8
// recipients, one byte each (to = b%n, dropped if b&0x80), after a byte
// that advances the clock. Recipients come in any order and may repeat.
func checkFloorScript(t *testing.T, data []byte) {
	nodes := func(b byte) int { return 1 + int(b)%40 }
	n := nodes(data[0])
	var f chanFloors
	f = emptyRows(f, n)
	var dense [][]int64
	var used [][]bool
	resetRef := func() {
		dense, used = make([][]int64, n), make([][]bool, n)
		for i := range dense {
			dense[i], used[i] = make([]int64, n), make([]bool, n)
		}
	}
	resetRef()
	now := int64(0)
	for i := 1; i < len(data); {
		h := data[i]
		i++
		if h == 0xFF {
			if i < len(data) {
				n = nodes(data[i])
				i++
			}
			f = emptyRows(f, n)
			resetRef()
			for from, row := range f {
				if len(row) != 0 {
					t.Fatalf("after reset row %d holds %v", from, row)
				}
			}
			continue
		}
		from := int32(int(h) % n)
		if i < len(data) {
			now += int64(data[i] % 8)
			i++
		}
		k := 0
		for r := 0; r < 1+int(h>>3)%8 && i < len(data); r++ {
			b := data[i]
			i++
			to := int32(int(b&0x7F) % n)
			if b&0x80 != 0 {
				continue // lost on the wire: the floor is not touched
			}
			at := now + int64(b%13)
			want := max(at, dense[from][to])
			dense[from][to], used[from][to] = want, true
			if got := f.fifo(from, to, at, &k); got != want {
				t.Fatalf("op at byte %d: %d→%d at %d delivers at %d, reference %d", i, from, to, at, got, want)
			}
		}
		for from, row := range f {
			held := 0
			for j, c := range row {
				if j > 0 && row[j-1].to >= c.to {
					t.Fatalf("row %d out of order: %v", from, row)
				}
				if !used[from][c.to] || dense[from][c.to] != c.at {
					t.Fatalf("row %d: channel to %d floor %d, reference %d (used %v)",
						from, c.to, c.at, dense[from][c.to], used[from][c.to])
				}
				held++
			}
			want := 0
			for _, u := range used[from] {
				if u {
					want++
				}
			}
			if held != want {
				t.Fatalf("row %d holds %d channels, reference %d", from, held, want)
			}
		}
	}
}

// TestChanFloors runs scripts that exercise the cursor walk (ascending
// multicasts), the binary search (descending and repeated recipients),
// drops, several senders and reuse after a reset to more and to fewer
// nodes, then random ones.
func TestChanFloors(t *testing.T) {
	for _, script := range floorSeeds() {
		checkFloorScript(t, script)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, 1+rng.Intn(400))
		rng.Read(script)
		checkFloorScript(t, script)
	}
}

func floorSeeds() [][]byte {
	return [][]byte{
		{9, 0x38, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0x38, 1, 8, 7, 6, 5, 4, 3, 2, 1},
		{20, 0x3A, 2, 3, 3, 1, 9, 0x83, 9, 1, 0x3A, 5, 9, 1, 3, 3, 0x90, 2, 2, 12},
		{39, 0x01, 0, 5, 0x0A, 1, 5, 0x09, 2, 5, 0x01, 0, 5, 0xFF, 3, 0x3B, 4, 0, 1, 2, 3, 0, 1, 2, 3},
		{5, 0x3C, 7, 4, 3, 2, 1, 0, 4, 3, 2, 0xFF, 30, 0x3C, 7, 29, 0, 28, 1, 27, 2, 26, 3},
	}
}

// FuzzChanFloors is TestChanFloors over arbitrary scripts.
//
//	go test -run '^$' -fuzz '^FuzzChanFloors$' -fuzztime 10s ./internal/sim
func FuzzChanFloors(f *testing.F) {
	for _, script := range floorSeeds() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		checkFloorScript(t, data)
	})
}
