// Package txn implements the transaction-processing content of the
// database column of Table I ("transactions processing, scheduling
// concurrent transactions, transaction locks, and deadlocks"): a strict
// two-phase-locking lock manager with three deadlock policies (waits-for
// cycle detection with youngest-victim abort, wound-wait, wait-die),
// a transactional key-value store with deferred writes, basic timestamp-
// ordering concurrency control, and a conflict-serializability checker
// over recorded histories.
package txn

import (
	"errors"
	"fmt"
	"sync"
)

// ErrAborted is returned to a transaction that has been chosen as a
// deadlock victim (or wounded/died under the priority schemes).
var ErrAborted = errors.New("txn: transaction aborted")

// Mode is a lock mode.
type Mode int

const (
	// S is a shared (read) lock.
	S Mode = iota
	// X is an exclusive (write) lock.
	X
)

// String returns the mode name.
func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// Strategy selects how the lock manager handles deadlocks.
type Strategy int

const (
	// Detect builds the waits-for graph on each block and aborts the
	// youngest transaction on a cycle.
	Detect Strategy = iota
	// WoundWait lets an older requester abort ("wound") younger
	// conflicting holders; younger requesters wait for older holders.
	WoundWait
	// WaitDie lets an older requester wait; a younger requester aborts
	// itself ("dies") instead of waiting on an older holder.
	WaitDie
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Detect:
		return "detect"
	case WoundWait:
		return "wound-wait"
	case WaitDie:
		return "wait-die"
	default:
		return "unknown"
	}
}

// lockState tracks one key's holders.
type lockState struct {
	holders map[int]Mode // txn -> mode held
}

// LockManager grants S/X locks under strict two-phase locking.
type LockManager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	strategy Strategy
	locks    map[string]*lockState
	// ts assigns each transaction its age (smaller = older).
	ts      map[int]uint64
	nextTS  uint64
	aborted map[int]bool
	// committing marks transactions past their commit point: they can
	// no longer be chosen as victims.
	committing map[int]bool
	// waitsFor[t] = set of transactions t waits on (Detect only).
	waitsFor map[int]map[int]bool
	// stats
	Deadlocks int64
	Wounds    int64
	Deaths    int64
}

// NewLockManager creates a lock manager with the given deadlock policy.
func NewLockManager(s Strategy) *LockManager {
	lm := &LockManager{
		strategy:   s,
		locks:      map[string]*lockState{},
		ts:         map[int]uint64{},
		aborted:    map[int]bool{},
		committing: map[int]bool{},
		waitsFor:   map[int]map[int]bool{},
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// Register assigns a begin timestamp to a transaction; must be called
// once before its first Acquire.
func (lm *LockManager) Register(txn int) { lm.register(txn, 0) }

// register gives txn the begin timestamp ts, or a fresh one when ts is
// 0, and returns it. A restarted transaction passes its first
// attempt's timestamp: it keeps its age, so it eventually becomes the
// oldest and the deadlock policies stop choosing it as the victim.
func (lm *LockManager) register(txn int, ts uint64) uint64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if old, ok := lm.ts[txn]; ok {
		return old
	}
	if ts == 0 {
		lm.nextTS++
		ts = lm.nextTS
	}
	lm.ts[txn] = ts
	return ts
}

// Aborted reports whether the transaction has been marked as a victim.
func (lm *LockManager) Aborted(txn int) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.aborted[txn]
}

// conflicting returns the holders of key that conflict with txn's
// request.
func (st *lockState) conflicting(txn int, mode Mode) []int {
	var out []int
	for h, hm := range st.holders {
		if h == txn {
			continue
		}
		if mode == X || hm == X {
			out = append(out, h)
		}
	}
	return out
}

// canGrant reports whether txn may take key in mode right now.
func (st *lockState) canGrant(txn int, mode Mode) bool {
	if st == nil {
		return true
	}
	return len(st.conflicting(txn, mode)) == 0
}

// Acquire takes key in the given mode for txn, blocking until granted.
// It returns ErrAborted when the transaction loses a deadlock
// resolution; the caller must then roll back and release.
func (lm *LockManager) Acquire(txn int, key string, mode Mode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if _, ok := lm.ts[txn]; !ok {
		return fmt.Errorf("txn: transaction %d not registered", txn)
	}
	for {
		if lm.aborted[txn] {
			delete(lm.waitsFor, txn)
			return ErrAborted
		}
		st := lm.locks[key]
		if st == nil {
			st = &lockState{holders: map[int]Mode{}}
			lm.locks[key] = st
		}
		// Grant, upgrading S to X when requested and compatible.
		if st.canGrant(txn, mode) {
			if prev, held := st.holders[txn]; !held || (prev == S && mode == X) {
				st.holders[txn] = mode
			}
			delete(lm.waitsFor, txn)
			return nil
		}
		conf := st.conflicting(txn, mode)
		switch lm.strategy {
		case WoundWait:
			// Older requester wounds younger holders; a holder past
			// its commit point is about to release, so it is waited on.
			wounded := false
			for _, h := range conf {
				if lm.ts[txn] < lm.ts[h] && !lm.committing[h] {
					lm.abortLocked(h)
					lm.Wounds++
					wounded = true
				}
			}
			if wounded {
				lm.cond.Broadcast()
				continue // re-check grant
			}
			// All conflicting holders are older: wait.
		case WaitDie:
			for _, h := range conf {
				if lm.ts[txn] > lm.ts[h] {
					// Younger than a holder: die.
					lm.abortLocked(txn)
					lm.Deaths++
					lm.cond.Broadcast()
					return ErrAborted
				}
			}
			// Older than every holder: wait.
		case Detect:
			w := lm.waitsFor[txn]
			if w == nil {
				w = map[int]bool{}
				lm.waitsFor[txn] = w
			}
			for _, h := range conf {
				w[h] = true
			}
			if cycle := lm.findCycleLocked(); len(cycle) > 0 {
				victim := cycle[0]
				for _, t := range cycle[1:] {
					if lm.ts[t] > lm.ts[victim] {
						victim = t // youngest dies
					}
				}
				lm.abortLocked(victim)
				lm.Deadlocks++
				lm.cond.Broadcast()
				if victim == txn {
					delete(lm.waitsFor, txn)
					return ErrAborted
				}
				continue
			}
		}
		lm.cond.Wait()
		// Stale waits-for edges are rebuilt on the next iteration.
		delete(lm.waitsFor, txn)
	}
}

// abortLocked marks a victim and strips its locks (the victim's own
// goroutine observes ErrAborted at its next lock-manager interaction).
// Stripping is safe because a transaction's writes reach the store
// only after commitPoint, which a marked victim can no longer pass:
// whatever it does after losing its locks is discarded.
func (lm *LockManager) abortLocked(victim int) {
	lm.aborted[victim] = true
	for _, st := range lm.locks {
		delete(st.holders, victim)
	}
	delete(lm.waitsFor, victim)
}

// findCycleLocked finds a cycle in the waits-for graph; edges to
// transactions that no longer hold conflicting locks are pruned lazily
// by waiters, so the graph may be slightly stale but only toward false
// positives resolved by the retry loop.
func (lm *LockManager) findCycleLocked() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	parent := map[int]int{}
	var cycle []int
	var dfs func(t int) bool
	dfs = func(t int) bool {
		color[t] = gray
		for u := range lm.waitsFor[t] {
			switch color[u] {
			case white:
				parent[u] = t
				if dfs(u) {
					return true
				}
			case gray:
				cycle = []int{u}
				for cur := t; cur != u; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				return true
			}
		}
		color[t] = black
		return false
	}
	for t := range lm.waitsFor {
		if color[t] == white && dfs(t) {
			return cycle
		}
	}
	return nil
}

// commitPoint atomically checks that txn has not been chosen as a
// victim and makes it immune to later aborts, so it keeps every lock
// until ReleaseAll. It reports false when txn must roll back instead.
func (lm *LockManager) commitPoint(txn int) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.aborted[txn] {
		return false
	}
	lm.committing[txn] = true
	return true
}

// ReleaseAll releases every lock held by txn (commit or rollback point
// of strict 2PL) and clears its abort mark and timestamp.
func (lm *LockManager) ReleaseAll(txn int) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, st := range lm.locks {
		delete(st.holders, txn)
	}
	delete(lm.waitsFor, txn)
	delete(lm.aborted, txn)
	delete(lm.committing, txn)
	delete(lm.ts, txn)
	lm.cond.Broadcast()
}

// HoldsLock reports txn's mode on key (for tests).
func (lm *LockManager) HoldsLock(txn int, key string) (Mode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[key]
	if st == nil {
		return 0, false
	}
	m, ok := st.holders[txn]
	return m, ok
}
