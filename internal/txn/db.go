package txn

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"pdcedu/internal/store"
)

// DB is a transactional key-value store protected by strict 2PL. The
// data lives in a store.Engine — the same sharded, versioned substrate
// the csnet KV handler and the dist cluster run on — so transactions
// no longer funnel every access through one DB-wide mutex: the lock
// manager serializes conflicting transactions per key, and the engine
// shards the physical access under them.
type DB struct {
	lm      *LockManager
	eng     store.Engine
	nextTxn atomic.Int64
	history *History
	// Commits and Aborts count outcomes.
	Commits atomic.Int64
	Aborts  atomic.Int64
}

// NewDB creates an empty store under the given deadlock policy, on a
// fresh sharded engine. The history of every successful read/write is
// recorded for offline serializability checking.
func NewDB(s Strategy) *DB {
	return NewDBOn(s, store.NewSharded(store.Options{}))
}

// NewDBOn creates a DB over an existing engine, so a node can share
// one storage substrate between its transactional and replicated
// faces.
func NewDBOn(s Strategy, eng store.Engine) *DB {
	return &DB{lm: NewLockManager(s), eng: eng, history: &History{}}
}

// Engine returns the underlying storage engine.
func (db *DB) Engine() store.Engine { return db.eng }

// encInt packs a value for the byte-oriented engine.
func encInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// decInt unpacks an engine value; absent or foreign-sized values read
// as zero, matching the old map's zero-value semantics.
func decInt(b []byte, ok bool) int64 {
	if !ok || len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Set initializes a key outside any transaction — seeding for tests,
// benchmarks, and demos. It bypasses the lock manager, so it must not
// run concurrently with active transactions: a Set racing a
// transaction's Put on the same key can be overwritten when the
// transaction commits, because nothing orders the two. The old DB-wide
// mutex hid that race by accident; the contract is now explicit.
func (db *DB) Set(key string, v int64) {
	db.eng.Set(key, encInt(v), 0)
}

// ReadCommitted returns a key's committed value outside any transaction.
func (db *DB) ReadCommitted(key string) int64 {
	e, ok := db.eng.Get(key)
	return decInt(e.Value, ok)
}

// History returns the recorded operation history.
func (db *DB) History() *History { return db.history }

// Txn is an active transaction. Its writes are deferred: they are
// buffered in Put order and applied to the engine only once the
// transaction is past its commit point, so an aborted transaction has
// nothing to undo.
type Txn struct {
	db     *DB
	id     int
	ts     uint64 // begin timestamp, kept across Transfer's restarts
	writes []write
	done   bool
}

type write struct {
	key string
	v   int64
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn { return db.begin(0) }

// begin starts a transaction with begin timestamp ts (0 = fresh).
func (db *DB) begin(ts uint64) *Txn {
	id := int(db.nextTxn.Add(1))
	return &Txn{db: db, id: id, ts: db.lm.register(id, ts)}
}

// ID returns the transaction identifier.
func (t *Txn) ID() int { return t.id }

// Get reads key under a shared lock.
func (t *Txn) Get(key string) (int64, error) {
	if t.done {
		return 0, fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if err := t.db.lm.Acquire(t.id, key, S); err != nil {
		t.rollback()
		return 0, err
	}
	t.db.history.Record(t.id, OpRead, key)
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].key == key {
			return t.writes[i].v, nil // read your own write
		}
	}
	e, ok := t.db.eng.Get(key)
	return decInt(e.Value, ok), nil
}

// Put writes key under an exclusive lock. The write is buffered until
// Commit; the X lock, held to the end of the transaction, keeps every
// other transaction off the key in the meantime.
func (t *Txn) Put(key string, v int64) error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if err := t.db.lm.Acquire(t.id, key, X); err != nil {
		t.rollback()
		return err
	}
	t.writes = append(t.writes, write{key: key, v: v})
	t.db.history.Record(t.id, OpWrite, key)
	return nil
}

// Commit finishes the transaction; if it was chosen as a deadlock victim
// since its last operation, its writes are discarded and ErrAborted
// returned. Otherwise it passes the commit point, after which it can no
// longer be aborted, and applies its writes while still holding every
// lock.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if !t.db.lm.commitPoint(t.id) {
		t.rollback()
		return ErrAborted
	}
	for _, w := range t.writes {
		t.db.eng.Set(w.key, encInt(w.v), 0)
	}
	t.done = true
	t.db.history.Record(t.id, OpCommit, "")
	t.db.lm.ReleaseAll(t.id)
	t.db.Commits.Add(1)
	return nil
}

// Abort rolls the transaction back voluntarily.
func (t *Txn) Abort() {
	if !t.done {
		t.rollback()
	}
}

// rollback discards the buffered writes and releases locks. Nothing
// reached the engine, so a victim whose locks were already stripped
// cannot overwrite the writes of the transaction that took them.
func (t *Txn) rollback() {
	if t.done {
		return
	}
	t.done = true
	t.writes = nil
	t.db.history.Record(t.id, OpAbort, "")
	t.db.lm.ReleaseAll(t.id)
	t.db.Aborts.Add(1)
}

// Transfer is the canonical bank workload: move amount from one account
// to another inside a transaction, retrying on deadlock aborts up to
// maxRetries times. Each retry keeps the first attempt's timestamp and
// starts after an exponential backoff (1µs doubling to 1ms), so a
// victim does not burn its retries against a winner that still holds
// the locks it lost.
func Transfer(db *DB, from, to string, amount int64, maxRetries int) error {
	var ts uint64
	for attempt := 0; ; attempt++ {
		t := db.begin(ts)
		ts = t.ts
		err := func() error {
			a, err := t.Get(from)
			if err != nil {
				return err
			}
			b, err := t.Get(to)
			if err != nil {
				return err
			}
			if err := t.Put(from, a-amount); err != nil {
				return err
			}
			if err := t.Put(to, b+amount); err != nil {
				return err
			}
			return t.Commit()
		}()
		if err == nil {
			return nil
		}
		if err == ErrAborted && attempt < maxRetries {
			time.Sleep(time.Microsecond << min(attempt, 10))
			continue
		}
		t.Abort()
		return err
	}
}
