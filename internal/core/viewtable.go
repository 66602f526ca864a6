package core

// viewSlot is what a node knows about one view it has heard of: the live
// consensus instance while the view is in `received`, or the bare key once
// it moved to `rejected` (line 30) — the instance is dropped then, the key
// stays so later messages for the view are ignored (line 18).
type viewSlot struct {
	key  string
	hash uint64    // the key's Region.Hash
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
	// last is the slot the previous successful lookup found. A node hears
	// about the view of its own instance from every participant in every
	// round, so most lookups repeat the previous one and end here, without
	// probing the map. Slots are never removed, so the cache cannot dangle.
	last *viewSlot
}

// lookup returns the slot of the view with the given key, or nil. hash must
// be the key's Region.Hash; it is a parameter so that the collision chain
// can be tested with hashes forced equal.
func (t *viewTable) lookup(hash uint64, key string) *viewSlot {
	if s := t.last; s != nil && s.hash == hash && s.key == key {
		return s
	}
	for s := t.slots[hash]; s != nil; s = s.next {
		if s.key == key {
			t.last = s
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
	s := &viewSlot{key: key, hash: hash, inst: inst, next: t.slots[hash]}
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

// clone deep-copies the table and its instances; the copy starts with an
// empty cache.
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
