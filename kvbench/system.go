package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pdcedu/internal/csnet"
	"pdcedu/internal/dist"
	"pdcedu/internal/store"
)

const rpcTimeout = 5 * time.Second

// system is one in-process deployment built from the public
// constructors: backends (engine, KV handler, csnet server) and either
// a dist.Cluster coordinator or one raw mux client.
type system struct {
	w       workload
	dir     string
	engines []store.Engine
	durable []*store.Sharded
	servers []*csnet.Server
	addrs   []string
	cluster *dist.Cluster
	client  *csnet.Client
}

// setup spawns the backends, opens their WALs when the workload is
// durable, connects the load's client side and preloads every key.
// With a tracer, the handlers and engines are wrapped in its timers.
func setup(w workload, dir string, keys []string, t *tracer) (*system, error) {
	s := &system{w: w, dir: dir}
	if err := s.start(t); err != nil {
		return nil, errors.Join(err, s.close())
	}
	if err := s.preload(keys); err != nil {
		return nil, errors.Join(fmt.Errorf("preload: %w", err), s.close())
	}
	return s, nil
}

func (s *system) start(t *tracer) error {
	for i := 0; i < s.w.backends; i++ {
		var eng store.Engine
		if s.w.durable {
			d, err := store.OpenSharded(store.Options{Shards: s.w.shards}, store.WALOptions{
				Dir:           filepath.Join(s.dir, fmt.Sprintf("node%d", i)),
				Fsync:         fsyncPolicy,
				Interval:      fsyncInterval,
				SnapshotBytes: snapshotBytes,
			})
			if err != nil {
				return err
			}
			s.durable = append(s.durable, d)
			eng = d
		} else {
			eng = store.NewSharded(store.Options{Shards: s.w.shards})
		}
		s.engines = append(s.engines, eng)
		var h csnet.Handler
		if t == nil {
			h = csnet.NewKVHandlerOn(eng)
		} else {
			h = &timedHandler{h: csnet.NewKVHandlerOn(&timedEngine{e: eng, t: t, node: int16(i)}), t: t, node: int16(i)}
		}
		srv := csnet.NewServer(h, 0)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
		s.addrs = append(s.addrs, addr)
	}
	var err error
	if s.w.coordinated() {
		s.cluster, err = dist.NewCluster(dist.ClusterConfig{
			Addrs: s.addrs, Replication: replication, ReadCache: s.w.readCache, Timeout: rpcTimeout,
		})
	} else {
		s.client, err = csnet.Dial(s.addrs[0], rpcTimeout)
	}
	return err
}

const preloadBatch = 1000

func (s *system) preload(keys []string) error {
	for lo := 0; lo < len(keys); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(keys))
		vals := make([][]byte, hi-lo)
		for i := range vals {
			vals[i] = make([]byte, s.w.valSize)
			putValue(vals[i], lo+i, seqOf(0, uint64(lo+i)))
		}
		if s.cluster != nil {
			if err := s.cluster.MSet(keys[lo:hi], vals); err != nil {
				return err
			}
			continue
		}
		calls := make([]*csnet.Call, len(vals))
		for i, v := range vals {
			calls[i] = s.client.Send(csnet.Request{Op: csnet.OpSetV, Key: keys[lo+i], Value: v})
		}
		for _, c := range calls {
			resp, err := c.ResponseV()
			if err != nil {
				return err
			}
			if resp.Status != csnet.StatusOK {
				return fmt.Errorf("preload: status %s", resp.Status)
			}
		}
	}
	return nil
}

// verify runs the correctness checks on a quiesced system: the
// durable engines report no sticky WAL error, every replica holds
// every key with a well-formed value, and (with replicas) their Merkle
// roots agree.
func (s *system) verify() error {
	for i, d := range s.durable {
		if err := d.Err(); err != nil {
			return fmt.Errorf("backend %d engine error: %w", i, err)
		}
	}
	var root uint64
	for i, eng := range s.engines {
		live, bad := 0, 0
		eng.Range(func(k string, e store.Entry) bool {
			ki, ok := keyIndex(k)
			if !ok || e.Tombstone || !validValue(e.Value, ki, s.w.valSize) {
				bad++
			} else {
				live++
			}
			return true
		})
		if bad > 0 || live != numKeys {
			return fmt.Errorf("backend %d holds %d well-formed keys of %d and %d bad entries", i, live, numKeys, bad)
		}
		r := eng.Digest().Root()
		if i > 0 && r != root {
			return fmt.Errorf("backend %d Merkle root %016x differs from backend 0's %016x", i, r, root)
		}
		root = r
	}
	return nil
}

// close tears the system down and removes its data directory.
func (s *system) close() error {
	var errs []error
	if s.cluster != nil {
		errs = append(errs, s.cluster.Close())
	}
	if s.client != nil {
		errs = append(errs, s.client.Close())
	}
	for _, srv := range s.servers {
		srv.Shutdown()
	}
	for _, d := range s.durable {
		errs = append(errs, d.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// clientConns counts the process's TCP connections from its socket
// descriptors: every loopback connection has both ends here, and each
// backend holds one listening socket.
func clientConns(backends int) (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	sockets := 0
	for _, e := range ents {
		if l, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(l, "socket:") {
			sockets++
		}
	}
	return (sockets - backends) / 2, nil
}
