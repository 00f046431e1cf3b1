package socialrec

// epochkey fixtures: cache accesses and key literals must derive their
// epoch from snapshot-state plumbing.

func fabricatedEpochs(c *vectorCache, st *snapState, target int, v *cachedVector) {
	c.put(0, target, v)          // want "cache access keyed by 0"
	c.put(st.epoch+1, target, v) // want "cache access keyed by st.epoch . 1"
	myKey := uint64(7)
	_, _ = c.get(myKey, target)            // want "cache access keyed by myKey"
	_, _ = c.get(123, target)              // want "cache access keyed by 123"
	_ = cacheKey{epoch: 9, target: target} // want "key literal fabricates epoch 9"
}

func fabricatedAssign(ent *cacheEntry) {
	ent.key.epoch = 3 // want "epoch field assigned non-epoch value 3"
}

func threadedEpochs(c *vectorCache, st *snapState, target int, v *cachedVector) {
	c.put(st.epoch, target, v)
	_, _ = c.get(st.epoch, target)
	_ = cacheKey{epoch: st.epoch, target: target}
}

func plumbedEpochs(c *vectorCache, fromEpoch, toEpoch uint64, target int, ent *cacheEntry) {
	_, _ = c.get(fromEpoch, target)
	ent.key.epoch = toEpoch
	_ = cacheKey{epoch: toEpoch, target: target}
}
