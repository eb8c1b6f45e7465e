package analyze

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
)

// TestFrozenArtifacts re-runs the repository's frozen analysis specs
// (results/analysis/ and results/analysis-io/) and checks that each still
// produces its frozen artifact.json byte for byte.
func TestFrozenArtifacts(t *testing.T) {
	for _, dir := range []string{"analysis", "analysis-io"} {
		t.Run(dir, func(t *testing.T) {
			base := filepath.Join("..", "..", "results", dir)
			data, err := os.ReadFile(filepath.Join(base, "spec.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spec Spec
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatalf("decoding spec.json: %v", err)
			}
			want, err := os.ReadFile(filepath.Join(base, "artifact.json"))
			if err != nil {
				t.Fatal(err)
			}
			out, err := Run(context.Background(), experiment.Executor{Parallelism: 2}, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := encode(t, out); !bytes.Equal(got, want) {
				n := 0
				for n < min(len(got), len(want)) && got[n] == want[n] {
					n++
				}
				t.Fatalf("artifact differs from %s/artifact.json at byte %d (%d vs %d bytes):\n got: %.120s\nwant: %.120s",
					dir, n, len(got), len(want), got[n:], want[n:])
			}
		})
	}
}
