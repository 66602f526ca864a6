package core

// viewSlot is what a node knows about one view it has heard of: the live
// consensus instance while the view is in `received`, or the bare key once
// it moved to `rejected` (line 30) — the instance is dropped then, the key
// stays so later messages for the view are ignored (line 18).
type viewSlot struct {
	key  string
	inst *instance // nil ⇔ rejected
	next *viewSlot // further views whose keys hash alike
}

// viewTable is the paper's received ∪ rejected (lines 18–22, 30) as one
// index keyed by region.Region.Hash. View keys grow with the region (3.5 kB
// for a 24×24 block), so a string-keyed map would hash the whole key on
// every delivery; here a delivery is one integer lookup plus one key
// comparison. The hash only picks the bucket: identity is the full key,
// compared along the chain, and nothing observable (reject order,
// fingerprints, traces) depends on hash values or bucket order.
//
// The zero table is empty and ready for use; the map is allocated by the
// first insert, since most nodes of a large system never hear of a view.
type viewTable struct {
	slots map[uint64]*viewSlot
}

// lookup returns the slot of the view with the given key, or nil. hash must
// be the key's Region.Hash; it is a parameter so that the collision chain
// can be tested with hashes forced equal.
func (t *viewTable) lookup(hash uint64, key string) *viewSlot {
	for s := t.slots[hash]; s != nil; s = s.next {
		if s.key == key {
			return s
		}
	}
	return nil
}

// insert adds a slot for a key that lookup does not find.
func (t *viewTable) insert(hash uint64, key string, inst *instance) *viewSlot {
	if t.slots == nil {
		t.slots = make(map[uint64]*viewSlot)
	}
	s := &viewSlot{key: key, inst: inst, next: t.slots[hash]}
	t.slots[hash] = s
	return s
}

// all iterates over every slot, received and rejected, in no particular
// order.
func (t *viewTable) all(yield func(*viewSlot) bool) {
	for _, s := range t.slots {
		for ; s != nil; s = s.next {
			if !yield(s) {
				return
			}
		}
	}
}

// clone deep-copies the table and its instances.
func (t *viewTable) clone() viewTable {
	var out viewTable
	for hash, s := range t.slots {
		for ; s != nil; s = s.next {
			var inst *instance
			if s.inst != nil {
				inst = s.inst.clone()
			}
			out.insert(hash, s.key, inst)
		}
	}
	return out
}
