package experiment

// The runtime-timeline golden test: pins the complete obs timeline — task
// names, region/kernel span names and args, barrier and io-wait spans — of
// both runtime models on the tiny topology, as the SHA-256 of its Chrome
// JSON export. The kernel goldens pin execution times and noise traces but
// not these labels, so without this test a runtime refactor could rename
// a task or a span silently.
//
// Print fresh digests with REPRO_PRINT_DIGESTS=1 go test ./internal/experiment
// -run TestGoldenRuntimeTimeline -v — but only adopt them for a deliberate,
// reviewed behaviour change.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/parmodel"
	"repro/internal/sim"
)

func TestGoldenRuntimeTimeline(t *testing.T) {
	ompWith := func(s parmodel.Schedule, chunk int) *parmodel.Config {
		cfg := parmodel.OpenMP()
		cfg.Schedule, cfg.Chunk = s, chunk
		return &cfg
	}
	cases := []struct {
		name     string
		workload string
		model    string
		omp      *parmodel.Config
		dl       bool
		contains string // a span name or arg the timeline must hold
		digest   string
	}{
		{name: "nbody-omp-static", workload: "nbody", model: "omp",
			omp: ompWith(parmodel.Static, 0), contains: "static",
			digest: "ea2afeac95cc3fb06cff3f437ff24216626916035672801c7e245dd44d580842"},
		{name: "nbody-omp-dynamic4", workload: "nbody", model: "omp",
			omp: ompWith(parmodel.Dynamic, 4), contains: "dynamic",
			digest: "c7dfd3c4c3690c5113a5044d26d9aac481dbe538e371de30b4fd1aef197dba5a"},
		{name: "nbody-omp-guided", workload: "nbody", model: "omp",
			omp: ompWith(parmodel.Guided, 0), contains: "guided",
			digest: "5055d57c0bb96faa584ce16f41e555bdb594cb62c65bc1c29539b28fde0c14b5"},
		{name: "nbody-sycl", workload: "nbody", model: "sycl", contains: "in-order",
			digest: "2adf6532d0378c9a6134b4f022dcf77d0923176812723359d982e2a46d043dbc"},
		{name: "logwriter-omp", workload: "logwriter", model: "omp", contains: "io-wait",
			digest: "910fc8d8706f82a85933c93f0952c7e4ad070e49493d2ea62af5250603bf4bc1"},
		{name: "logwriter-sycl", workload: "logwriter", model: "sycl", contains: "io-wait",
			digest: "bc64b9fdb772aba0fbf467ab58ac7fe2efd88aeb776f1c44671af12ecc12f960"},
		{name: "svcloop-sycl-deadline", workload: "svcloop", model: "sycl", dl: true,
			contains: "SCHED_DEADLINE",
			digest:   "1cebef2cc966fee693c51b3af3ed8be2eb7ec16c1a912112e45d4f483cca830c"},
	}
	print := os.Getenv("REPRO_PRINT_DIGESTS") != ""
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Platform: tinyPlatform(t), Workload: tinyWorkload(t, c.workload),
				Model: c.model, Strategy: mitigate.Rm, Seed: 5,
				OMP: c.omp, Obs: &obs.Options{Timeline: true},
			}
			if c.dl {
				spec.DLRuntime, spec.DLPeriod = 400*sim.Microsecond, sim.Millisecond
			}
			res, err := RunOnce(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Obs.WriteChromeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), fmt.Sprintf("%q", c.contains)) {
				t.Errorf("timeline holds no %q", c.contains)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			if print {
				t.Logf("digest %s", got)
				return
			}
			if got != c.digest {
				t.Errorf("timeline digest %s, want %s", got, c.digest)
			}
		})
	}
}
