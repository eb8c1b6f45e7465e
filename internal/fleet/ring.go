// Package fleet scales the serving layer horizontally: a coordinator
// shards jobs across multiple noiselabd backends by consistent hashing on
// the rescache content key, splits a job's repetitions into sub-jobs fanned
// across backends, merges the index-addressed result slices byte-identically
// to a single-node run, fails sub-jobs over to the next ring node, and
// streams aggregated progress as server-sent events.
//
// The whole design rides one fact (DESIGN.md §7, §11): a rep is a pure
// function of (ModelVersion, spec, SeedAt(i)). Sharding therefore cannot
// change results — it can only change where the bytes are computed and
// cached — and every claim in this package ships with a test that would
// catch its violation.
package fleet

import (
	"fmt"
	"sort"

	"repro/internal/rescache"
)

// DefaultReplicas is the per-node vnode count. 128 points per node keeps
// the 1k-key load spread well within 2x of ideal (pinned by TestRingBalance)
// while ring construction stays trivially cheap.
const DefaultReplicas = 128

// Ring is a consistent-hash ring over backend names. Placement is a pure
// function of (key, member set): members are deduplicated and sorted before
// hashing, vnode points derive only from member names, and ties break on
// the name — so two rings built from any permutation of the same members
// place every key identically (fuzzed by FuzzRingPlacement).
type Ring struct {
	members []string
	points  []ringPoint // sorted by (hash, node)
}

type ringPoint struct {
	h    uint64
	node string
}

// NewRing builds a ring with the given vnode count per member (<=0 uses
// DefaultReplicas). An empty member set yields a ring that places nothing.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*replicas)}
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{h: rescache.KeyPoint(fmt.Sprintf("%s|%d", m, i)), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Members returns the deduplicated, sorted member set.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// start returns the index of the first vnode at or after key's point
// (wrapping past the top of the ring).
func (r *Ring) start(key string) int {
	h := rescache.KeyPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Pick returns the owning node for a content key ("" on an empty ring).
func (r *Ring) Pick(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.start(key)].node
}

// Seq returns every member in ring-walk order starting from the key's
// owner: the failover sequence for a sub-job placed at key. The owner is
// always first; each subsequent entry is the next distinct node clockwise.
func (r *Ring) Seq(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	start := r.start(key)
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
