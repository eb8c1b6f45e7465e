package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"times_ns":[1,2,3]}`)
	if err := c.Put(key(1), data); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key(1))
	if !ok || string(got) != string(data) {
		t.Fatalf("memory round trip: ok=%v got=%q", ok, got)
	}

	// A fresh cache over the same directory must serve the persisted entry.
	c2, err := New(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.Get(key(1))
	if !ok || string(got) != string(data) {
		t.Fatalf("disk round trip: ok=%v got=%q", ok, got)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", s.DiskHits)
	}
	// Second read is a memory hit (promoted on the disk read).
	if _, ok := c2.Get(key(1)); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Fatalf("mem hits = %d, want 1", s.MemHits)
	}
}

func TestMissAndInvalidKey(t *testing.T) {
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(9)); ok {
		t.Fatal("unexpected hit")
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses)
	}
	for _, bad := range []string{"", "../escape", "a/b", `a\b`, "dot.dot"} {
		if err := c.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
		if _, ok := c.Get(bad); ok {
			t.Fatalf("Get(%q) hit", bad)
		}
	}
}

// TestComputeCountsNoSecondLookup: after a caller's own Get missed,
// Compute adds a compute but no miss, and serves a stored entry as one
// memory hit without running compute.
func TestComputeCountsNoSecondLookup(t *testing.T) {
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"times_ns":[4]}`)
	computes := 0
	compute := func(context.Context) ([]byte, error) { computes++; return payload, nil }
	if _, ok := c.Get(key(4)); ok {
		t.Fatal("unexpected hit")
	}
	if data, hit, err := c.Compute(context.Background(), key(4), compute); err != nil || hit || string(data) != string(payload) {
		t.Fatalf("first Compute: data=%q hit=%v err=%v", data, hit, err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Computes != 1 || s.MemHits != 0 {
		t.Fatalf("after Get+Compute: %+v, want 1 miss, 1 compute", s)
	}
	if data, hit, err := c.Compute(context.Background(), key(4), compute); err != nil || !hit || string(data) != string(payload) {
		t.Fatalf("second Compute: data=%q hit=%v err=%v", data, hit, err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Computes != 1 || s.MemHits != 1 || computes != 1 {
		t.Fatalf("after a stored Compute: %+v, %d computes, want 1 miss, 1 compute, 1 memory hit", s, computes)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New("", 2) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Put(key(i), []byte{byte(i)})
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Fatal("newest entry missing")
	}
	if s := c.Stats(); s.Evictions != 1 || s.MemEntries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSingleflightStress is the issue's concurrency contract: N goroutines
// submitting the same key must yield exactly one computation and N
// identical payloads.
func TestSingleflightStress(t *testing.T) {
	c, err := New(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var computes atomic.Int64
	payload := []byte(`{"deterministic":true}`)

	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			data, _, err := c.GetOrCompute(context.Background(), key(7),
				func(context.Context) ([]byte, error) {
					computes.Add(1)
					time.Sleep(20 * time.Millisecond) // widen the race window
					return payload, nil
				})
			results[i], errs[i] = data, err
		}(i)
	}
	close(start)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if string(results[i]) != string(payload) {
			t.Fatalf("goroutine %d: payload %q differs", i, results[i])
		}
	}
	if s := c.Stats(); s.Computes != 1 {
		t.Fatalf("stats computes = %d, want 1", s.Computes)
	}
}

// TestCorruptEntryRecomputed: a corrupt on-disk entry must be detected and
// recomputed, never served.
func TestCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"summary":"good"}`)
	if err := c.Put(key(3), good); err != nil {
		t.Fatal(err)
	}

	// Flip payload bytes on disk without updating the checksum header.
	path := filepath.Join(dir, key(3)[:2], key(3)+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A cold cache over the same dir must reject the entry...
	c2, err := New(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(3)); ok {
		t.Fatal("corrupt entry served")
	}
	s := c2.Stats()
	if s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt + 1 miss", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file not removed: %v", err)
	}

	// ...and GetOrCompute must recompute and repersist it.
	var computes atomic.Int64
	data, hit, err := c2.GetOrCompute(context.Background(), key(3),
		func(context.Context) ([]byte, error) {
			computes.Add(1)
			return good, nil
		})
	if err != nil || hit || computes.Load() != 1 {
		t.Fatalf("recompute: err=%v hit=%v computes=%d", err, hit, computes.Load())
	}
	if string(data) != string(good) {
		t.Fatalf("recomputed payload %q", data)
	}
	c3, _ := New(dir, 8)
	if got, ok := c3.Get(key(3)); !ok || string(got) != string(good) {
		t.Fatalf("repersisted entry: ok=%v got=%q", ok, got)
	}
}

// Truncated files and files without the checksum header are corrupt too.
func TestTruncatedAndHeaderlessEntries(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(dir, 8)
	if err := c.Put(key(4), []byte("payload-payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(4)[:2], key(4)+".res")
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-4], 0o644)
	c2, _ := New(dir, 8)
	if _, ok := c2.Get(key(4)); ok {
		t.Fatal("truncated entry served")
	}

	os.MkdirAll(filepath.Dir(path), 0o755)
	os.WriteFile(path, []byte("no header at all"), 0o644)
	c3, _ := New(dir, 8)
	if _, ok := c3.Get(key(4)); ok {
		t.Fatal("headerless entry served")
	}
	if s := c3.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestComputeErrorNotCached: a failed computation must not poison the key.
func TestComputeErrorNotCached(t *testing.T) {
	c, _ := New(t.TempDir(), 8)
	boom := fmt.Errorf("engine exploded")
	_, _, err := c.GetOrCompute(context.Background(), key(5),
		func(context.Context) ([]byte, error) { return nil, boom })
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	data, hit, err := c.GetOrCompute(context.Background(), key(5),
		func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(data) != "ok" {
		t.Fatalf("retry after failure: data=%q hit=%v err=%v", data, hit, err)
	}
}

// TestCanceledLeaderWaiterRetries: when the computing caller's context is
// canceled, a waiter with a live context must take over and succeed.
func TestCanceledLeaderWaiterRetries(t *testing.T) {
	c, _ := New(t.TempDir(), 8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inCompute := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.GetOrCompute(leaderCtx, key(6),
			func(ctx context.Context) ([]byte, error) {
				close(inCompute)
				<-ctx.Done()
				return nil, ctx.Err()
			})
	}()

	<-inCompute
	waiterDone := make(chan error, 1)
	var waiterData []byte
	go func() {
		data, _, err := c.GetOrCompute(context.Background(), key(6),
			func(context.Context) ([]byte, error) { return []byte("second try"), nil })
		waiterData = data
		waiterDone <- err
	}()
	// Give the waiter a moment to join the flight, then kill the leader.
	time.Sleep(10 * time.Millisecond)
	cancelLeader()

	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if string(waiterData) != "second try" {
		t.Fatalf("waiter data = %q", waiterData)
	}
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("leader should have failed with its context error")
	}
}

// TestRepeatedLeaderCancellationStress kills not one but a chain of
// successive leaders: each newly elected computer cancels its own context
// mid-compute until several have died, and only then does a leader finish.
// The retry loop must re-elect through every failure without orphaning a
// waiter, double-running a live compute, or caching a canceled result.
type cancelKeyType struct{}

func TestRepeatedLeaderCancellationStress(t *testing.T) {
	const (
		goroutines      = 32
		leadersToCancel = 5
	)
	c, _ := New(t.TempDir(), 8)
	var attempts atomic.Int64
	payload := []byte("survivor")

	var wg sync.WaitGroup
	var okCount, canceledCount atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The compute callback receives the computing caller's own
			// context; smuggle that caller's cancel func alongside so the
			// elected leader can kill itself mid-flight.
			ctx = context.WithValue(ctx, cancelKeyType{}, cancel)
			data, _, err := c.GetOrCompute(ctx, key(7),
				func(ctx context.Context) ([]byte, error) {
					if attempts.Add(1) <= leadersToCancel {
						ctx.Value(cancelKeyType{}).(context.CancelFunc)()
						<-ctx.Done()
						return nil, ctx.Err()
					}
					return payload, nil
				})
			switch {
			case err == nil:
				if string(data) != string(payload) {
					t.Errorf("got %q, want %q", data, payload)
				}
				okCount.Add(1)
			case context.Cause(ctx) != nil:
				canceledCount.Add(1) // this goroutine was a sacrificed leader
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := canceledCount.Load(); got != leadersToCancel {
		t.Fatalf("%d callers died as canceled leaders, want %d", got, leadersToCancel)
	}
	if got := okCount.Load(); got != goroutines-leadersToCancel {
		t.Fatalf("%d callers served, want %d", got, goroutines-leadersToCancel)
	}
	// One compute per leader election: five sacrifices then a survivor.
	// (A caller that misses the cache in the instant before the survivor's
	// Put may legally be elected once more — singleflight dedups concurrent
	// computes, it does not promise exactly-once — so bound, don't pin.)
	if got := c.Stats().Computes; got < leadersToCancel+1 || got > leadersToCancel+3 {
		t.Fatalf("computes = %d, want ~%d", got, leadersToCancel+1)
	}
	if data, ok := c.Get(key(7)); !ok || string(data) != string(payload) {
		t.Fatalf("cache should hold the survivor's payload, got %q ok=%v", data, ok)
	}
}

// TestManyKeysConcurrent exercises eviction + disk + flights under the race
// detector.
func TestManyKeysConcurrent(t *testing.T) {
	c, _ := New(t.TempDir(), 4) // tiny LRU forces constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := key(i % 10)
				want := fmt.Sprintf("v%d", i%10)
				data, _, err := c.GetOrCompute(context.Background(), k,
					func(context.Context) ([]byte, error) { return []byte(want), nil })
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if string(data) != want {
					t.Errorf("g%d i%d: got %q want %q", g, i, data, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDerivedKey: derived keys must be valid cache keys, distinct from the
// base, and round-trip through both tiers like any other entry.
func TestDerivedKey(t *testing.T) {
	base := "0123abcd"
	k := DerivedKey(base, "tl")
	if k == base {
		t.Fatal("derived key collides with base")
	}
	if err := validateKey(k); err != nil {
		t.Fatalf("derived key invalid: %v", err)
	}
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, []byte("timeline")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || string(got) != "timeline" {
		t.Fatalf("derived entry: %q ok=%v", got, ok)
	}
	if _, ok := c.Get(base); ok {
		t.Fatal("derived entry leaked into the base key")
	}
}
