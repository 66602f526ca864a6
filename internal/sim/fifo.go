package sim

import (
	"cmp"
	"slices"
)

// chanFloors holds the FIFO floor of every channel that carried a
// message: row from lists (recipient, floor) pairs in ascending recipient
// order, where a floor is the latest delivery time scheduled on the
// channel. A channel without a pair has floor 0. In a cliff-edge run only
// border nodes send, each to the borders of the views it took part in, so
// a row holds what its sender talked to rather than one word per node.
// Row from is only touched by from's owner shard.
type chanFloors [][]chanFloor

type chanFloor struct {
	to int32
	at int64
}

// fifo returns the delivery time of a message the network would deliver
// at `at` on channel (from, to) — at, or the channel's floor if that is
// later — and makes it the channel's floor. *k is the cursor of the
// multicast in progress, 0 at its start: recipients in ascending order
// walk the row once, and one out of order is found by binary search.
func (f chanFloors) fifo(from, to int32, at int64, k *int) int64 {
	row := f[from]
	j := *k
	if j < len(row) && row[j].to > to {
		j, _ = slices.BinarySearchFunc(row[:j], to, func(c chanFloor, to int32) int {
			return cmp.Compare(c.to, to)
		})
	} else {
		for j < len(row) && row[j].to < to {
			j++
		}
	}
	if j == len(row) || row[j].to != to {
		row = slices.Insert(row, j, chanFloor{to: to})
		f[from] = row
	}
	if at < row[j].at {
		at = row[j].at
	}
	row[j].at = at
	*k = j
	return at
}
