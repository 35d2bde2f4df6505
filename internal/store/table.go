package store

import "time"

// table is the lock-agnostic core both engines share: one map of
// entries plus the bookkeeping that keeps Flat and Sharded from ever
// drifting semantically. Every method must be called with the
// enclosing engine's lock (the shard's, or Flat's single one) held.
type table struct {
	data map[string]Entry
	// now is the wall-time source, consulted lazily: an entry with no
	// TTL never costs a clock read on the hot path.
	now func() time.Time
	// touch notifies the engine's Merkle tree that key's raw entry
	// changed; every mutation of data must call it (never nil).
	touch func(key string)
	// live counts non-tombstone entries. An entry that expired but has
	// not been lazily tombstoned or swept still counts; the invariant
	// is live == number of entries with Tombstone == false.
	live int
}

func newTable(now func() time.Time, touch func(key string)) table {
	return table{data: map[string]Entry{}, now: now, touch: touch}
}

// liveNow reports whether e is readable, reading the wall clock only
// when e actually carries an expiry.
func (t *table) liveNow(e Entry) bool {
	if e.Tombstone {
		return false
	}
	return e.ExpireAt == 0 || t.now().UnixNano() < e.ExpireAt
}

// get returns key's live entry, lazily converting an expired one into
// a tombstone: the tombstone keeps the entry's version and expiry, so
// the expiry propagates through merge like a delete would, and a stale
// immortal copy on another replica can never resurrect the value (the
// hole outright deletion used to leave). The sweeper reaps it at the
// GC horizon.
func (t *table) get(key string) (Entry, bool) {
	e, ok := t.data[key]
	if !ok || e.Tombstone {
		return Entry{}, false
	}
	if e.ExpireAt != 0 && t.now().UnixNano() >= e.ExpireAt {
		t.expire(key, e)
		return Entry{}, false
	}
	return e, true
}

// expire converts an expired value entry into its expiry tombstone.
func (t *table) expire(key string, e Entry) {
	t.data[key] = Entry{Version: e.Version, Tombstone: true, ExpireAt: e.ExpireAt}
	t.live--
	t.touch(key)
}

// load returns the raw entry, tombstones and expired entries included.
func (t *table) load(key string) (Entry, bool) {
	e, ok := t.data[key]
	return e, ok
}

// set installs a value entry (a private copy of val) at version ver.
func (t *table) set(key string, val []byte, ver uint64, expireAt int64) {
	if cur, ok := t.data[key]; !ok || cur.Tombstone {
		t.live++
	}
	t.data[key] = Entry{Value: append([]byte(nil), val...), Version: ver, ExpireAt: expireAt}
	t.touch(key)
}

// del installs a tombstone at version ver and reports whether a live
// value was displaced.
func (t *table) del(key string, ver uint64) bool {
	cur, ok := t.data[key]
	existed := ok && t.liveNow(cur)
	if ok && !cur.Tombstone {
		t.live--
	}
	t.data[key] = Entry{Version: ver, Tombstone: true}
	t.touch(key)
	return existed
}

// merge applies e iff it Wins the resident entry, installing a private
// copy of its value. It returns the winning version and whether e was
// applied.
func (t *table) merge(key string, e Entry) (uint64, bool) {
	cur, ok := t.data[key]
	if ok && !e.Wins(cur) {
		return cur.Version, false
	}
	if (!ok || cur.Tombstone) && !e.Tombstone {
		t.live++
	} else if ok && !cur.Tombstone && e.Tombstone {
		t.live--
	}
	if e.Tombstone {
		e.Value = nil
	} else {
		e.Value = append([]byte(nil), e.Value...)
	}
	t.data[key] = e
	t.touch(key)
	return e.Version, true
}

// install stores e exactly as given — no Wins comparison, no value
// copy. WAL replay uses it: records reapply in append order, so
// last-record-wins reproduces the table state at the crash point, and
// the decoded entry is already a private copy.
func (t *table) install(key string, e Entry) {
	cur, ok := t.data[key]
	if (!ok || cur.Tombstone) && !e.Tombstone {
		t.live++
	} else if ok && !cur.Tombstone && e.Tombstone {
		t.live--
	}
	t.data[key] = e
	t.touch(key)
}

// purgeIf removes key's entry only if it is still exactly the copy a
// listing reported: same version, value digest (ValueDigest),
// tombstone flag and expiry. It runs under the lock every write takes,
// so a write that landed after the listing keeps its entry.
func (t *table) purgeIf(key string, version, digest uint64, tombstone bool, expireAt int64) bool {
	cur, ok := t.data[key]
	if !ok || cur.Version != version || cur.Tombstone != tombstone ||
		cur.ExpireAt != expireAt || ValueDigest(cur.Value) != digest {
		return false
	}
	return t.purge(key)
}

// purge removes key's entry outright, reporting whether one existed.
func (t *table) purge(key string) bool {
	cur, ok := t.data[key]
	if !ok {
		return false
	}
	if !cur.Tombstone {
		t.live--
	}
	delete(t.data, key)
	t.touch(key)
	return true
}

// sweep scans the whole table, converting expired value entries into
// expiry tombstones and garbage-collecting tombstones older than the
// GC horizon. A delete tombstone ages from its version's wall-clock
// bits; an expiry tombstone from max(write wall time, ExpireAt), so it
// survives long enough for every replica to have expired its own copy.
// onPurge (may be nil) fires for each GC'd tombstone while the
// enclosing lock is still held — the persistent engine logs the purge
// there so a reopen cannot resurrect a collected tombstone. Expiry
// conversions are deliberately not reported: they are deterministic
// from the stored ExpireAt, so replay re-derives them for free.
func (t *table) sweep(now, gcBeforeMillis int64, onPurge func(key string)) (expired, purged int) {
	for k, e := range t.data {
		switch {
		case e.Tombstone:
			age := WallMillis(e.Version)
			if expMillis := e.ExpireAt / int64(time.Millisecond); expMillis > age {
				age = expMillis
			}
			if age < gcBeforeMillis {
				delete(t.data, k)
				t.touch(k)
				if onPurge != nil {
					onPurge(k)
				}
				purged++
			}
		case e.ExpireAt != 0 && now >= e.ExpireAt:
			t.expire(k, e)
			expired++
		}
	}
	return expired, purged
}
