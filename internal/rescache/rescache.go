// Package rescache is a content-addressed result cache for deterministic
// experiment executions. Keys are canonical hashes of (spec, seed, model
// version) — see internal/service.SpecHash — and values are opaque result
// payloads. Because every run is a pure function of its key (DESIGN.md §5),
// serving stored bytes is semantically identical to re-executing, so the
// cache turns determinism into throughput.
//
// The cache is an in-memory LRU in front of an on-disk store. Disk entries
// are written atomically (temp file + rename) with a SHA-256 checksum
// header; a corrupt or truncated entry is detected on read, removed, and
// treated as a miss so it is recomputed rather than served. Concurrent
// computations of the same key are deduplicated with a singleflight group:
// exactly one caller executes, the rest wait and share the bytes.
package rescache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// MemHits and DiskHits count lookups served from the LRU and the disk
	// store; Misses count lookups that found nothing valid.
	MemHits, DiskHits, Misses uint64
	// FlightHits counts callers that were deduplicated onto another
	// caller's in-flight computation (singleflight).
	FlightHits uint64
	// Computes counts executions of the compute callback.
	Computes uint64
	// Corrupt counts on-disk entries rejected by checksum verification.
	Corrupt uint64
	// Evictions counts LRU evictions from the memory tier.
	Evictions uint64
	// MemEntries is the current memory-tier size.
	MemEntries int
}

// HitRatio returns hits/(hits+misses), 0 when no lookups happened. Flight
// hits count as hits: the caller was served without a new execution.
func (s Stats) HitRatio() float64 {
	hits := s.MemHits + s.DiskHits + s.FlightHits
	total := hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Cache is the two-tier content-addressed store. The zero value is not
// usable; construct with New.
type Cache struct {
	dir        string
	maxEntries int

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight
	stats   Stats
}

// memEntry is one LRU element.
type memEntry struct {
	key  string
	data []byte
}

// New creates a cache rooted at dir (created if missing; "" disables the
// disk tier) holding at most maxMemEntries payloads in memory (minimum 1).
func New(dir string, maxMemEntries int) (*Cache, error) {
	if maxMemEntries < 1 {
		maxMemEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: creating %s: %w", dir, err)
		}
	}
	return &Cache{
		dir:        dir,
		maxEntries: maxMemEntries,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flight),
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = c.lru.Len()
	return s
}

// DerivedKey returns the cache key for an artifact derived from the entry at
// base — e.g. a job's exported timeline stored alongside its result
// (DerivedKey(hash, "tl")). The separator keeps derived keys valid (hex
// digests never contain '-') and collision-free with primary keys.
func DerivedKey(base, suffix string) string {
	return base + "-" + suffix
}

// KeyPoint maps a content key (or any stable label) to a point on the
// 64-bit hash ring used for shard placement. The fleet coordinator places
// each sub-job on the backend owning its content key's point, so a given
// key always lands on the same shard and per-shard caches stay hot and
// disjoint. The mapping is a pure function of the key — no process seed —
// so placement survives restarts and is reproducible in tests. FNV-1a is
// followed by a splitmix64 finalizer: content keys are already uniform hex
// digests, but ring vnode labels ("url|i") are not, and the finalizer's
// avalanche keeps their points spread.
func KeyPoint(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// validateKey rejects keys that could escape the cache directory; keys are
// hex digests in practice.
func validateKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("rescache: invalid key %q", key)
	}
	return nil
}

// path returns the disk location of key, sharded by the first two bytes to
// keep directories small.
func (c *Cache) path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(c.dir, shard, key+".res")
}

// Get returns the payload for key from memory or disk, recording hit/miss
// counters. A corrupt disk entry is removed and reported as a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	if validateKey(key) != nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*memEntry).data
		c.stats.MemHits++
		c.mu.Unlock()
		return data, true
	}
	c.mu.Unlock()

	data, err := c.readDisk(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.stats.DiskHits++
		c.putMemLocked(key, data)
		return data, true
	case errors.Is(err, errCorrupt):
		c.stats.Corrupt++
		c.stats.Misses++
		return nil, false
	default:
		c.stats.Misses++
		return nil, false
	}
}

// Put stores the payload in both tiers. Disk errors are returned but the
// memory tier is always updated, so the entry still serves this process.
func (c *Cache) Put(key string, data []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	c.mu.Lock()
	c.putMemLocked(key, data)
	c.mu.Unlock()
	return c.writeDisk(key, data)
}

// putMemLocked inserts into the LRU, evicting from the back. Caller holds mu.
func (c *Cache) putMemLocked(key string, data []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*memEntry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&memEntry{key: key, data: data})
	for c.lru.Len() > c.maxEntries {
		back := c.lru.Back()
		delete(c.entries, back.Value.(*memEntry).key)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
}

// GetOrCompute returns the cached payload for key, or runs compute exactly
// once across concurrent callers and caches its result: Get, then Compute
// on a miss. hit reports whether the caller was served without running
// compute itself (cache or flight dedup).
func (c *Cache) GetOrCompute(ctx context.Context, key string,
	compute func(ctx context.Context) ([]byte, error)) (data []byte, hit bool, err error) {
	if data, ok := c.Get(key); ok {
		return data, true, nil
	}
	return c.Compute(ctx, key, compute)
}

// Compute is GetOrCompute for a caller whose own Get of key already missed:
// it counts no second lookup. It runs compute exactly once across
// concurrent callers and caches its result, unless the memory tier gained
// the entry since the caller's Get (a memory hit) or another caller is
// computing it (a flight hit). It does not read the disk again: every
// entry stored since then went to memory too. If the computing caller's
// context dies, waiting callers whose own contexts are still live retry —
// one of them becomes the new computer — so a cancelled submission never
// poisons identical concurrent submissions.
func (c *Cache) Compute(ctx context.Context, key string,
	compute func(ctx context.Context) ([]byte, error)) (data []byte, hit bool, err error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}

		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			data := el.Value.(*memEntry).data
			c.stats.MemHits++
			c.mu.Unlock()
			return data, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.stats.FlightHits++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.data, true, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue // the computer died, not us: retry (possibly as computer)
			}
			return nil, false, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Computes++
		c.mu.Unlock()

		f.data, f.err = compute(ctx)
		if f.err == nil {
			// Store before releasing waiters/retriers so they find it. A
			// disk persistence failure is not fatal: the memory tier (which
			// Put always updates) still serves this process.
			_ = c.Put(key, f.data)
		}
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.data, false, f.err
	}
}

// errCorrupt marks a disk entry that failed checksum verification.
var errCorrupt = errors.New("rescache: corrupt entry")

// Disk format: one header line "sha256:<hex digest of payload>\n" followed
// by the raw payload bytes. The digest makes partial writes, truncation and
// bit flips detectable; writes go through a temp file + rename so readers
// never observe a half-written entry.

// readDisk loads and verifies one entry. It returns errCorrupt (and removes
// the file) when verification fails.
func (c *Cache) readDisk(key string) ([]byte, error) {
	if c.dir == "" {
		return nil, os.ErrNotExist
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	nl := -1
	for i, b := range raw {
		if b == '\n' {
			nl = i
			break
		}
	}
	header := ""
	if nl >= 0 {
		header = string(raw[:nl])
	}
	digest, ok := strings.CutPrefix(header, "sha256:")
	if !ok {
		os.Remove(c.path(key))
		return nil, errCorrupt
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != digest {
		os.Remove(c.path(key))
		return nil, errCorrupt
	}
	return payload, nil
}

// writeDisk persists one entry atomically.
func (c *Cache) writeDisk(key string, data []byte) error {
	if c.dir == "" {
		return nil
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	sum := sha256.Sum256(data)
	_, werr := fmt.Fprintf(tmp, "sha256:%s\n", hex.EncodeToString(sum[:]))
	if werr == nil {
		_, werr = tmp.Write(data)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: writing %s: %w", path, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: %w", err)
	}
	return nil
}
