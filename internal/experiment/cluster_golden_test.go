package experiment

// The cluster golden test: pins the exact outputs of the simulated
// datacenter — per-rep batch completion times and a fingerprint of every
// job's makespan and placement — for each placement policy on the headline
// straggler scenario, at executor parallelism 1 and 8. This is the
// acceptance proof that lifting the single-node assumption kept the
// determinism contract: a cluster run is a pure function of (spec, seed).
//
// Regenerate with REPRO_UPDATE_GOLDEN=1 go test ./internal/experiment
// -run TestGoldenCluster — only for a deliberate, reviewed behaviour change.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

const clusterGoldenPath = "testdata/golden_cluster.json"

const clusterGoldenReps = 3

// clusterGoldenSpec is the pinned scenario: the headline straggler study at
// a reduced rep count.
func clusterGoldenSpec(policy string) cluster.Spec {
	s := cluster.StragglerStudySpec()
	s.Policy = policy
	return s
}

// clusterGoldenRecord is the pinned outcome of one policy.
type clusterGoldenRecord struct {
	BatchNs []int64 `json:"batch_ns"`
	Hash    string  `json:"hash"`
	Jobs    int     `json:"jobs"`
}

// fingerprintClusterResults hashes every job's makespan and placement of
// every rep, in order, so any change to placement or timing is caught.
func fingerprintClusterResults(results []*cluster.Result) string {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%s/%d/%d\n", r.Policy, r.Jobs, r.BatchNs)
		for i := range r.MakespanNs {
			fmt.Fprintf(h, "%d %d\n", r.MakespanNs[i], r.Placements[i])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runClusterGolden executes one policy's series at the given parallelism.
// With withObs the passive recorder (timeline, lanes) is attached. worlds
// picks the lifecycle: FreshWorlds builds a new shell per rep, a recycling
// pool (or nil) runs reps through warm shells reset between reps. The
// fixture must match exactly either way.
func runClusterGolden(t *testing.T, policy string, parallelism int, withObs bool, worlds *WorldPool) clusterGoldenRecord {
	t.Helper()
	exec := Executor{Parallelism: parallelism, Worlds: worlds}
	if withObs {
		exec.Obs = &ObsOptions{Timeline: true, Reg: obs.NewRegistry()}
	}
	results, err := exec.ClusterSeries(context.Background(), clusterGoldenSpec(policy), 42, clusterGoldenReps)
	if err != nil {
		t.Fatal(err)
	}
	rec := clusterGoldenRecord{Hash: fingerprintClusterResults(results)}
	for _, r := range results {
		rec.BatchNs = append(rec.BatchNs, r.BatchNs)
		rec.Jobs += r.Jobs
	}
	return rec
}

// TestGoldenCluster verifies cluster runs reproduce the pinned outputs
// exactly, at executor parallelism 1 and 8, with and without observability,
// with every rep in a fresh shell (FreshWorlds, the reference the fixture is
// generated from).
func TestGoldenCluster(t *testing.T) {
	update := os.Getenv("REPRO_UPDATE_GOLDEN") != ""
	var golden map[string]clusterGoldenRecord
	if !update {
		raw, err := os.ReadFile(clusterGoldenPath)
		if err != nil {
			t.Fatalf("reading cluster golden fixture (set REPRO_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]clusterGoldenRecord{}
	for _, policy := range cluster.PolicyNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			seq := runClusterGolden(t, policy, 1, false, FreshWorlds())
			for _, withObs := range []bool{false, true} {
				for _, parallelism := range []int{1, 8} {
					if !withObs && parallelism == 1 {
						continue
					}
					// Neither parallelism nor the passive recorder (with
					// per-node lanes) may move a single event.
					other := runClusterGolden(t, policy, parallelism, withObs, FreshWorlds())
					if fmt.Sprint(seq) != fmt.Sprint(other) {
						t.Fatalf("p=%d obs=%v diverged:\n  p=1:   %+v\n  other: %+v",
							parallelism, withObs, seq, other)
					}
				}
			}
			got[policy] = seq
			if update {
				return
			}
			want, ok := golden[policy]
			if !ok {
				t.Fatalf("policy %q missing from golden fixture; regenerate with REPRO_UPDATE_GOLDEN=1", policy)
			}
			if fmt.Sprint(want) != fmt.Sprint(seq) {
				t.Errorf("cluster output diverged from golden fixture:\n  want %+v\n  got  %+v", want, seq)
			}
		})
	}
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(clusterGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d policies)", clusterGoldenPath, len(got))
	}
}

// TestGoldenClusterBatch re-runs the cluster golden matrix through pooled
// shells — every rep after a shell's first runs in the multi-node world
// reset to its construction snapshot instead of rebuilt — at parallelism 1
// and 8, with and without the observability recorder, and demands the
// fixture still matches byte for byte.
func TestGoldenClusterBatch(t *testing.T) {
	if os.Getenv("REPRO_UPDATE_GOLDEN") != "" {
		t.Skip("fixture is regenerated by TestGoldenCluster (pooled shells must not define the baseline)")
	}
	raw, err := os.ReadFile(clusterGoldenPath)
	if err != nil {
		t.Fatalf("reading cluster golden fixture: %v", err)
	}
	var golden map[string]clusterGoldenRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, policy := range cluster.PolicyNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			want, ok := golden[policy]
			if !ok {
				t.Fatalf("policy %q missing from golden fixture", policy)
			}
			for _, withObs := range []bool{false, true} {
				for _, parallelism := range []int{1, 8} {
					got := runClusterGolden(t, policy, parallelism, withObs, NewWorldPool())
					if fmt.Sprint(want) != fmt.Sprint(got) {
						t.Errorf("pooled run diverged from fixture (p=%d obs=%v):\n  want %+v\n  got  %+v",
							parallelism, withObs, want, got)
					}
				}
			}
		})
	}
}
